"""The block CSV writers against the csv-module, per-cell writers they replaced."""

import csv
import io

import numpy as np

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
from simfarm.execution import DesignChunk, SubprocessRunner
from simfarm.tables import CSV_BLOCK_ROWS, ResultTable, format_float

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


def test_percent_g_matches_format_on_random_doubles():
    g = np.random.default_rng(2)
    bits = g.integers(0, 2**64, 300_000, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    x = np.concatenate([x[~np.isnan(x)], EDGE_FLOATS, [2.0**-1074, 2.0**-1022 * 0.5]])
    values = x.tolist()
    assert ["%.17g" % v for v in values] == [format(v, ".17g") for v in values]
