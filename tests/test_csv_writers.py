"""The block CSV writers against the csv-module, per-cell writers they replaced,
and the one-pass campaign writer against the three separate writers it replaced."""

import csv
import io
import tracemalloc

import numpy as np
import pytest

from simfarm.cli import _write_campaign_csvs
from simfarm.doe import (
    Boolean,
    Categorical,
    Continuous,
    Design,
    FactorSpec,
    Integer,
    lhs_design,
    write_design,
)
from simfarm.errors import ContractViolationError
from simfarm.execution import DesignChunk, SubprocessRunner, run_batches
from simfarm.tables import CSV_BLOCK_ROWS, ResultTable, format_float, quote_cell, write_csv_columns

N = 2 * CSV_BLOCK_ROWS + 123  # two full blocks and a short one
LEVELS = ("plain", "a,b", 'say "hi"', "two\nlines", "", "trailing ")
EDGE_FLOATS = (0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308,
               np.finfo(np.float64).max, -np.finfo(np.float64).max, 1e16, 123456789.0)


def block_two_nan(n: int) -> np.ndarray:
    """Random doubles of every magnitude, the edge values, and NaN in block 2 only."""
    g = np.random.default_rng(1)
    y = g.standard_normal(n) * 10.0 ** g.integers(-320, 308, n)
    y[: len(EDGE_FLOATS)] = EDGE_FLOATS
    y[CSV_BLOCK_ROWS + 5] = np.nan
    return y


def reference_table_csv(table: ResultTable) -> str:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["_index", "_status", *table.columns])
    for pos in range(table.n_rows):
        row = [str(int(table.index[pos])), "ok" if table.status[pos] else "failed"]
        for arr in table.columns.values():
            v = arr[pos]
            if arr.dtype.kind == "f":
                row.append(format_float(v))
            else:
                row.append("" if v is None else str(v))
        writer.writerow(row)
    return fh.getvalue()


def reference_design_rows(design: Design, index=None) -> str:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    for i in range(design.n):
        row = [] if index is None else [str(int(index[i]))]
        for f in design.factors:
            v = design.columns[f.name][i]
            if isinstance(f.kind, Continuous):
                row.append(format_float(v))
            elif isinstance(f.kind, Integer):
                row.append(str(int(v)))
            elif isinstance(f.kind, Boolean):
                row.append("true" if v else "false")
            else:
                row.append(str(v))
        writer.writerow(row)
    return fh.getvalue()


def mixed_design(n: int) -> Design:
    factors = [
        FactorSpec("x", Continuous(-1e-300, 1e300)),
        FactorSpec("k", Integer(-5, 10**12)),
        FactorSpec("mode", Categorical(LEVELS)),
        FactorSpec("armed", Boolean()),
    ]
    return lhs_design(factors, n, seed=3)


def test_result_csv_matches_per_cell_writer(tmp_path):
    g = np.random.default_rng(0)
    y = g.standard_normal(N) * 10.0 ** g.integers(-300, 300, N)
    y[::7] = np.nan
    y[1] = 0.0
    y[2] = -0.0
    y[3] = 1e-320  # subnormal
    labels = np.array([LEVELS[i % len(LEVELS)] for i in range(N)], dtype=object)
    labels[::5] = None
    table = ResultTable(
        index=np.arange(N) * 3 + 10**12,
        status=np.arange(N) % 4 != 0,
        columns={
            "y": y,
            "label": labels,
            "flag": np.arange(N) % 2 == 0,
            "z": block_two_nan(N),
            **{f"{level}!": -np.arange(N) for level in LEVELS[1:4]},
        },
    )
    path = tmp_path / "t.csv"
    table.to_csv(path)
    assert path.read_bytes() == reference_table_csv(table).encode("utf-8")


def test_design_csv_matches_per_cell_writer(tmp_path):
    design = mixed_design(N)
    path = tmp_path / "d.csv"
    write_design(design, path)
    header = "x,k,mode,armed\n"
    assert path.read_bytes() == (header + reference_design_rows(design)).encode("utf-8")


def test_chunk_csv_matches_per_cell_writer(tmp_path):
    design = mixed_design(N)
    positions = np.arange(100, N, dtype=np.int64)
    chunk = DesignChunk(design=design.take(positions), indices=positions)
    path = tmp_path / "in.csv"
    SubprocessRunner(["true"])._write_chunk(chunk, path)
    header = "_index,x,k,mode,armed\n"
    expected = header + reference_design_rows(chunk.design, positions)
    assert path.read_bytes() == expected.encode("utf-8")


def test_design_with_nan_and_quoted_names_matches_per_cell_writer(tmp_path):
    base = mixed_design(N)
    factors = [FactorSpec(f"{f.name},{LEVELS[2]}", f.kind) for f in base.factors]
    columns = {g.name: base.columns[f.name] for f, g in zip(base.factors, factors)}
    columns[factors[0].name] = block_two_nan(N)
    design = Design(factors=tuple(factors), columns=columns)
    path = tmp_path / "d.csv"
    write_design(design, path)
    fh = io.StringIO(newline="")
    csv.writer(fh, lineterminator="\n").writerow([f.name for f in factors])
    expected = fh.getvalue() + reference_design_rows(design)
    assert path.read_bytes() == expected.encode("utf-8")

    positions = np.arange(N, dtype=np.int64)[::-1]
    chunk = DesignChunk(design=design.take(positions), indices=positions)
    SubprocessRunner(["true"])._write_chunk(chunk, path)
    fh = io.StringIO(newline="")
    csv.writer(fh, lineterminator="\n").writerow(["_index", *(f.name for f in factors)])
    expected = fh.getvalue() + reference_design_rows(chunk.design, positions)
    assert path.read_bytes() == expected.encode("utf-8")


def test_single_factor_empty_cells_are_quoted(tmp_path):
    # A lone empty cell must not read back as a blank line: csv.writer writes "".
    factors = (FactorSpec("mode", Categorical(LEVELS)),)
    for design in (
        lhs_design(factors, 40, seed=5),
        Design(factors=(FactorSpec("x", Continuous(0.0, 1.0)),),
               columns={"x": np.array([0.5, np.nan, 0.25])}),
    ):
        path = tmp_path / "d.csv"
        write_design(design, path)
        header = design.factors[0].name + "\n"
        assert path.read_bytes() == (header + reference_design_rows(design)).encode("utf-8")


# -- write_csv_columns on every dtype it spells, against a per-cell writer -----------

INT64 = np.iinfo(np.int64)
TEXTS = ("plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "naïve ✓", "nul\x00", "\udc80")


def reference_columns_csv(names, columns) -> str:
    """What the per-cell writer wrote: float as format_float (NaN empty), int as
    str(int), bool as true/false, other values as str (None empty), each quoted
    by quote_cell, and a row of one empty cell as ``""``."""
    lines = [",".join(map(quote_cell, names))]
    for i in range(min(map(len, columns), default=0)):
        row = []
        for arr in columns:
            v = arr[i]
            if arr.dtype.kind == "f":
                row.append(format_float(v))
            elif arr.dtype.kind in "iu":
                row.append(str(int(v)))
            elif arr.dtype.kind == "b":
                row.append("true" if v else "false")
            else:
                row.append("" if v is None else str(v))
        line = ",".join(map(quote_cell, row))
        lines.append('""' if line == "" and len(columns) == 1 else line)
    return "\n".join(lines) + "\n"


def written(*targets) -> list[str]:
    handles = [io.StringIO(newline="") for _ in targets]
    write_csv_columns(*((fh, names, columns) for fh, (names, columns) in zip(handles, targets)))
    return [fh.getvalue() for fh in handles]


def every_dtype(n: int) -> dict[str, np.ndarray]:
    g = np.random.default_rng(n)
    y = g.standard_normal(n) * 10.0 ** g.integers(-30, 30, n)
    if n > CSV_BLOCK_ROWS:
        y[CSV_BLOCK_ROWS] = np.nan  # a NaN in the second block only
    k = g.integers(INT64.min, INT64.max, n, endpoint=True)
    k[:2] = (INT64.min, INT64.max)[: min(n, 2)]
    u = g.integers(2**63, 2**64, n, dtype=np.uint64, endpoint=False)
    u[: min(n, 3)] = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)[: min(n, 3)]
    text = np.array([TEXTS[i % len(TEXTS)] for i in range(n)], dtype=object)
    text[::7] = None
    return {
        "y": y,
        "k": k,
        "u": u,
        "flag": g.random(n) < 0.5,
        "text": text,
        "status": np.where(g.random(n) < 0.9, "ok", "failed"),
        "word": np.array([TEXTS[i % 2 + 6] for i in range(n)]),  # non-ASCII str_ column
        "code": np.array([("a\x00b", "", "xyz")[i % 3] for i in range(n)]),  # ASCII str_, a NUL inside
        "f32": (g.standard_normal(n) * 1e3).astype(np.float32),
        "f128": (g.standard_normal(n) / 3).astype(np.longdouble),
        "small": np.arange(n, dtype=np.int8) % 100 - 50,
    }


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_every_dtype_matches_per_cell_writer(n):
    columns = every_dtype(n)
    names = ["y", "a,b", *list(columns)[2:]]
    assert written((names, list(columns.values()))) == [
        reference_columns_csv(names, list(columns.values()))
    ]


@pytest.mark.parametrize("n", [1, CSV_BLOCK_ROWS + 1])
@pytest.mark.parametrize("name", ["y", "text", "status", "flag", "k"])
def test_single_column_files_quote_empty_rows(n, name):
    column = every_dtype(n)[name]
    if name == "y":
        column = column.copy()
        column[::3] = np.nan
    assert written(([name], [column])) == [reference_columns_csv([name], [column])]


def test_shared_columns_and_files_of_different_lengths():
    cols = every_dtype(2 * CSV_BLOCK_ROWS + 5)
    short = {name: arr[: CSV_BLOCK_ROWS + 3] for name, arr in cols.items()}
    targets = [
        (list(cols), list(cols.values())),
        (["y", "text", "k"], [cols["y"], cols["text"], short["k"]]),  # ends at its short column
        (["k"], [cols["k"]]),
        ([], []),
    ]
    assert written(*targets) == [reference_columns_csv(*t) for t in targets]


# The per-cell % row-format writer peaked at 4 211 424 traced bytes on the
# 64 000-row campaign below (measured with this test's code).  A block-wise
# byte-matrix writer stays below that; the same writer with 65 536-row blocks,
# whole files at once, peaked at 26.8 MB.
PERCENT_WRITER_PEAK = 4_211_424
PEAK_MARGIN = 1 << 20


def test_campaign_write_stays_block_wise(tmp_path):
    n = 64_000
    factors = [FactorSpec("speed", Continuous(350.0, 500.0)),
               FactorSpec("altitude", Continuous(1e4, 4e4))]
    design = lhs_design(factors, n, 7)
    g = np.random.default_rng(7)
    results = ResultTable(
        index=np.arange(n),
        status=g.random(n) > 0.01,
        columns={"time_of_flight": g.uniform(3e3, 7e3, n), "fuel_consumed": g.uniform(800, 1400, n)},
    )
    _write_campaign_csvs(design, results, tmp_path)  # first call: lazy imports and tables
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _write_campaign_csvs(design, results, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= PERCENT_WRITER_PEAK + PEAK_MARGIN, peak


def test_percent_g_matches_format_on_random_doubles():
    g = np.random.default_rng(2)
    bits = g.integers(0, 2**64, 300_000, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    x = np.concatenate([x[~np.isnan(x)], EDGE_FLOATS, [2.0**-1074, 2.0**-1022 * 0.5]])
    values = x.tolist()
    assert ["%.17g" % v for v in values] == [format(v, ".17g") for v in values]


# -- the one-pass campaign writer of ``simfarm run`` and ``casestudy`` -------------


def three_writer_csvs(design: Design, results: ResultTable, out) -> None:
    """design.csv, results.csv and joined.csv as three separate writers make them."""
    write_design(design, out / "design.csv")
    results.to_csv(out / "results.csv")
    columns = {f.name: design.column(f.name)[results.index] for f in design.factors}
    columns.update(results.columns)
    joined = ResultTable(index=results.index, status=results.status, columns=columns)
    joined.to_csv(out / "joined.csv")


def assert_one_pass_matches_three_writers(tmp_path, design, results):
    one, three = tmp_path / "one", tmp_path / "three"
    one.mkdir()
    three.mkdir()
    _write_campaign_csvs(design, results, one)
    three_writer_csvs(design, results, three)
    for name in ("design.csv", "results.csv", "joined.csv"):
        assert (one / name).read_bytes() == (three / name).read_bytes(), name


def campaign_design(n: int, seed: int) -> Design:
    """An LHS design whose integer column reaches 2**62, where %.17g and %d spell
    a value apart.  lhs_design draws integers within 2**53 only, so the drawn
    column is scaled by 512 and the design built directly."""
    factors = [
        FactorSpec("x", Continuous(-1e-300, 1e300)),
        FactorSpec("k", Integer(-5, 2**53)),
        FactorSpec("mode", Categorical(LEVELS)),
        FactorSpec("armed", Boolean()),
    ]
    drawn = lhs_design(factors, n, seed)
    factors[1] = FactorSpec("k", Integer(-5 * 512 - 5, 2**62 - 5))
    return Design(factors, dict(drawn.columns, k=drawn.column("k") * 512 - 5))  # odd values


def mixed_runner(failed_chunk_start=None, echo=()):
    """Rows with index % 7 == 3 fail with empty cells; the chunk starting at
    ``failed_chunk_start`` comes back column-less and all failed, as from a
    failed external command; ``echo`` names factors returned as result columns."""

    def run(chunk: DesignChunk) -> ResultTable:
        if chunk.indices[0] == failed_chunk_start:
            return ResultTable(index=chunk.indices, status=np.zeros(chunk.n, dtype=bool))
        ok = chunk.indices % 7 != 3
        y = np.where(ok, chunk.indices * np.pi, np.nan)
        label = np.array([LEVELS[i % len(LEVELS)] for i in chunk.indices], dtype=object)
        label[~ok] = None
        columns = {"y": y, "label": label}
        columns.update({name: chunk.column(name) * 0.5 for name in echo})
        return ResultTable(index=chunk.indices, status=ok, columns=columns)

    return run


def stop_after(rows: int):
    return lambda chunk: chunk.index[-1] + 1 >= rows


class TestCampaignCsvs:
    def test_early_stop_past_a_block_boundary(self, tmp_path):
        design = campaign_design(N, seed=3)
        results, report = run_batches(design, mixed_runner(), stop_after(5000), 1000)
        assert report.rows_executed == 5000 and CSV_BLOCK_ROWS < 5000 < N
        assert_one_pass_matches_three_writers(tmp_path, design, results)

    @pytest.mark.parametrize("n", [1, 2, CSV_BLOCK_ROWS + 1])
    def test_whole_design_of_odd_sizes(self, tmp_path, n):
        design = campaign_design(n, seed=4)
        results, _ = run_batches(design, mixed_runner(), None, 333)
        assert_one_pass_matches_three_writers(tmp_path, design, results)

    def test_stop_exactly_at_a_block_boundary(self, tmp_path):
        design = campaign_design(N, seed=5)
        results, _ = run_batches(design, mixed_runner(), stop_after(CSV_BLOCK_ROWS), 1024)
        assert results.n_rows == CSV_BLOCK_ROWS
        assert_one_pass_matches_three_writers(tmp_path, design, results)

    def test_failed_chunk_is_written_with_empty_cells(self, tmp_path):
        design = campaign_design(3000, seed=6)
        results, _ = run_batches(design, mixed_runner(failed_chunk_start=500), None, 500)
        assert not results.status[500:1000].any()
        assert np.isnan(results.column("y")[500:1000]).all()
        assert_one_pass_matches_three_writers(tmp_path, design, results)
        assert "\n500,failed,,\n" in (tmp_path / "one" / "results.csv").read_text()

    def test_every_chunk_failed_leaves_no_result_columns(self, tmp_path):
        design = campaign_design(30, seed=6)
        results, _ = run_batches(design, mixed_runner(failed_chunk_start=0), stop_after(10), 10)
        assert results.column_names == [] and results.n_rows == 10
        assert_one_pass_matches_three_writers(tmp_path, design, results)

    def test_result_column_named_like_a_factor_takes_its_place(self, tmp_path):
        design = campaign_design(500, seed=8)
        results, _ = run_batches(design, mixed_runner(echo=("x",)), stop_after(300), 100)
        assert_one_pass_matches_three_writers(tmp_path, design, results)
        header = (tmp_path / "one" / "joined.csv").read_text().split("\n", 1)[0]
        assert header == "_index,_status,x,k,mode,armed,y,label"

    def test_single_categorical_factor_with_empty_and_quoted_levels(self, tmp_path):
        design = lhs_design([FactorSpec("mode", Categorical(LEVELS))], 50, seed=9)
        results, _ = run_batches(design, mixed_runner(), stop_after(20), 10)
        assert_one_pass_matches_three_writers(tmp_path, design, results)
        lines = (tmp_path / "one" / "design.csv").read_text().split("\n")
        assert '""' in lines and '"a,b"' in lines and '"say ""hi"""' in lines

    def test_numeric_factors_are_floats_in_joined_csv(self, tmp_path):
        factors = [FactorSpec("k", Integer(2**60, 2**61)), FactorSpec("armed", Boolean())]
        k = np.array([2**60 + 1, 2**61 - 3, 2**60 + 2**55 + 7, 2**61 - 1])  # past 2**53
        design = Design(factors, {"k": k, "armed": np.array([True, False, False, True])})
        results, _ = run_batches(design, mixed_runner(), None, 4)
        _write_campaign_csvs(design, results, tmp_path)
        design_row = (tmp_path / "design.csv").read_text().split("\n")[1].split(",")
        joined_row = (tmp_path / "joined.csv").read_text().split("\n")[1].split(",")
        k, armed = design.column("k")[0], design.column("armed")[0]
        assert design_row == [str(k), "true" if armed else "false"]
        assert joined_row[2:4] == ["%.17g" % float(k), "1" if armed else "0"]

    def test_rows_that_are_not_a_design_prefix_are_refused(self, tmp_path):
        design = campaign_design(20, seed=2)
        for index in ([1, 2, 3], [0, 2, 3], [2, 1, 0]):
            results = ResultTable(index=np.array(index), status=np.ones(3, dtype=bool))
            with pytest.raises(ContractViolationError, match="prefix"):
                _write_campaign_csvs(design, results, tmp_path)
