import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simfarm.errors import InvalidArgumentError, ParseError
from simfarm.tables import CSV_BLOCK_ROWS, DataColumn, ResultTable, columns_from_table


def make_table():
    return ResultTable(
        index=np.array([0, 1, 2, 3]),
        status=np.array([True, True, False, True]),
        columns={
            "y": np.array([1.5, np.nan, 3.0, -2.25]),
            "label": np.array(["a", None, "b", "a"], dtype=object),
        },
    )


class TestResultTable:
    def test_roundtrip_csv(self, tmp_path):
        table = make_table()
        path = tmp_path / "t.csv"
        table.to_csv(path)
        back = ResultTable.from_csv(path)
        assert np.array_equal(back.index, table.index)
        assert list(back.status) == list(table.status)
        assert np.array_equal(back.column("y"), table.column("y"), equal_nan=True)
        assert list(back.column("label")) == list(table.column("label"))

    def test_duplicate_index_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ResultTable(index=np.array([0, 0]), status=np.array([True, True]))

    def test_unknown_status_rejected(self):
        # Status is a bool array; the CSV spellings and other dtypes are refused.
        for status in (np.array(["ok"], dtype=object), np.array(["ok"]), np.array([1]), [1.0]):
            with pytest.raises(InvalidArgumentError, match="bool"):
                ResultTable(index=np.array([0]), status=status)

    def test_reserved_column_name_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ResultTable(
                index=np.array([0]),
                status=np.array([True]),
                columns={"_status": np.array([1.0])},
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ResultTable(
                index=np.array([0, 1]),
                status=np.array([True, True]),
                columns={"y": np.array([1.0])},
            )

    def test_missing_header_line_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ParseError) as err:
            ResultTable.from_csv(path)
        assert err.value.line == 1

    def test_row_width_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("_index,_status,y\n0,ok,1.0\n1,ok\n")
        with pytest.raises(ParseError) as err:
            ResultTable.from_csv(path)
        assert err.value.line == 3

    def test_duplicate_header_name_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("_index,_status,a,a\n0,ok,1,2\n")
        with pytest.raises(ParseError, match="duplicate column name 'a'") as err:
            ResultTable.from_csv(path)
        assert err.value.line == 1

    def test_first_bad_reserved_cell_in_row_order(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("_index,_status\n0,ok\n1,meh\nx,ok\ny,nah\n")
        with pytest.raises(ParseError, match="unknown status 'meh'") as err:
            ResultTable.from_csv(path)
        assert err.value.line == 3
        path.write_text("_index,_status\n0,ok\nx,meh\n")
        with pytest.raises(ParseError, match="unparsable _index cell 'x'") as err:
            ResultTable.from_csv(path)
        assert err.value.line == 3

    def test_unknown_status_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("_index,_status,y\n0,ok,1.0\n1,meh,2.0\n")
        with pytest.raises(ParseError, match="unknown status 'meh'") as err:
            ResultTable.from_csv(path)
        assert err.value.line == 3

    def test_unparsable_index_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("_index,_status,y\n0,ok,1.0\n1,ok,2.0\nx1,ok,3.0\n")
        with pytest.raises(ParseError, match="unparsable _index cell 'x1'") as err:
            ResultTable.from_csv(path)
        assert err.value.line == 4

    def test_non_utf8_bytes_name_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"_index,_status,y\n0,ok,1.0\n\xff\xfe,\x80\n")
        with pytest.raises(ParseError, match="not UTF-8 text: byte 0xff at offset 26") as err:
            ResultTable.from_csv(path)
        assert err.value.line == 3

    def test_multiline_cell_shifts_later_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('_index,_status,label\n0,ok,"two\nlines"\n1,bad,x\n')
        with pytest.raises(ParseError) as err:
            ResultTable.from_csv(path)
        assert err.value.line == 4

    def test_numeric_column_with_text_cell_is_object(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("_index,_status,v\n0,ok,1.5\n1,ok,\n2,ok,high\n")
        col = ResultTable.from_csv(path).column("v")
        assert col.dtype == object
        assert list(col) == ["1.5", None, "high"]

    def test_all_empty_column_is_float_nan(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("_index,_status,v\n0,ok,\n1,failed,\n")
        col = ResultTable.from_csv(path).column("v")
        assert col.dtype == np.float64
        assert np.isnan(col).all() and len(col) == 2

    def test_header_only_gives_zero_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("_index,_status,a,b\n")
        table = ResultTable.from_csv(path)
        assert table.n_rows == 0
        assert table.column_names == ["a", "b"]
        assert table.index.dtype == np.int64 and table.ok_mask().shape == (0,)

    def test_plain_csv_without_reserved_columns(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1,x\n2,y\n")
        table = ResultTable.from_csv(path)
        assert list(table.index) == [0, 1]
        assert table.status.dtype == bool and list(table.status) == [True, True]
        assert table.column("a").dtype.kind == "f"
        assert list(table.column("b")) == ["x", "y"]

    def test_concat_preserves_order(self):
        t = make_table()
        a, b = t.take([0, 1]), t.take([2, 3])
        joined = ResultTable.concat([a, b])
        assert np.array_equal(joined.index, t.index)
        assert np.array_equal(joined.column("y"), t.column("y"), equal_nan=True)

    def test_ok_mask(self):
        assert list(make_table().ok_mask()) == [True, True, False, True]


def reference_read_csv(fh) -> ResultTable:
    """The csv-module reader with per-cell parsing that the split reader replaced."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("missing header row", line=1) from None
    if not header or all(not h.strip() for h in header):
        raise ParseError("missing header row", line=1)
    dup = next((h for i, h in enumerate(header) if h in header[:i]), None)
    if dup is not None:
        raise ParseError(f"duplicate column name {dup!r}", line=1)
    rows, lines = [], []
    for row in reader:
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, found {len(row)}", line=reader.line_num
            )
        rows.append(row)
        lines.append(reader.line_num)
    n = len(rows)
    cells = dict(zip(header, zip(*rows) if rows else [()] * len(header)))
    problems = []
    index, status = np.arange(n, dtype=np.int64), np.ones(n, dtype=bool)
    if "_index" in cells:
        column = cells.pop("_index")
        try:
            index = np.array([int(c) for c in column], dtype=np.int64)
        except ValueError:
            for i, c in enumerate(column):
                try:
                    int(c)
                except ValueError:
                    problems.append((i, f"unparsable _index cell {c!r}"))
                    break
    if "_status" in cells:
        column = cells.pop("_status")
        spelled = np.array(column, dtype=object)
        status = spelled == "ok"
        known = status | (spelled == "failed")
        if not known.all():
            i = int(np.argmin(known))
            problems.append((i, f"unknown status {column[i]!r}"))
    if problems:
        i, message = min(problems, key=lambda p: p[0])
        raise ParseError(message, line=lines[i])

    def parse(column):
        try:
            return np.array([float(c) if c else math.nan for c in column], dtype=np.float64)
        except ValueError:
            return np.array([c if c else None for c in column], dtype=object)

    return ResultTable(
        index=index, status=status, columns={k: parse(v) for k, v in cells.items()}
    )


def read_outcome(reader, text: str):
    """A table, or the type, text and line of the error it raised."""
    try:
        return reader(io.StringIO(text, newline=""))
    except (ParseError, InvalidArgumentError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def assert_same_table(a: ResultTable, b: ResultTable) -> None:
    assert a.index.dtype == b.index.dtype and np.array_equal(a.index, b.index)
    assert a.status.dtype == b.status.dtype and np.array_equal(a.status, b.status)
    assert a.column_names == b.column_names
    for name in a.column_names:
        x, y = a.column(name), b.column(name)
        assert x.dtype == y.dtype, name
        if x.dtype == np.float64:
            assert np.array_equal(x.view(np.int64), y.view(np.int64)), name
        else:
            assert list(x) == list(y), name


def _rows(n: int, row) -> str:
    return "".join(row(i) for i in range(n))


N2 = CSV_BLOCK_ROWS + 10  # one full block and a short one
QUOTED = '"x"'
WIDE = ",".join(f"c{j}" for j in range(200)) + "\n" + ",".join(["7" * 1000] * 200) + "\n"

READ_CORPUS = {
    "plain floats": "_index,_status,a,b\n0,ok,1.5,2\n1,failed,-0.0,1e-320\n2,ok,inf,-1e308\n",
    "float spellings": "a\n 1.5 \n1_000\n-inf\nNaN\n1e400\n",
    "index spellings": "_index,a\n+3,1\n 4,2\n1_0,3\n",
    "nan cells": "_index,_status,a,b\n0,ok,,1\n1,ok,3,\n2,failed,,\n",
    "all empty": "_index,_status,v\n0,ok,\n1,failed,\n",
    "text columns": "a,b\n1,x\n2,y\n3,\n",
    "mixed column": "_index,_status,v\n0,ok,1.5\n1,ok,\n2,ok,high\n",
    "quoted cells": '_index,_status,label\n0,ok,"a,b"\n1,ok,"say ""hi"""\n2,ok,"two\nlines"\n',
    "quoted numbers": 'a,b\n"1.5",2\n"3",""\n',
    "quoted header": '"_index","x,y"\n0,1\n',
    "unterminated quote": 'a,b\n"x,1\n',
    "multiline then bad status": '_index,_status,label\n0,ok,"two\nlines"\n1,bad,x\n',
    "cr endings": "a,b\r1,2\r3,4\r",
    "crlf endings": "_index,_status,a\r\n0,ok,1\r\n1,failed,2\r\n",
    "crlf bad width": "a,b\r\n1,2\r\n3\r\n",
    "blank line": "a,b\n1,2\n\n3,4\n",
    "blank line one column": "a\n1\n\n2\n",
    "trailing blank one column": "a\n1\n\n",
    "blank header": "\na,b\n",
    "whitespace header": " , \n1,2\n",
    "no final newline": "_index,_status,a\n0,ok,1\n1,ok,2",
    "header only": "_index,_status,a,b\n",
    "header only no newline": "a,b",
    "empty": "",
    "duplicate header": "_index,_status,a,a\n0,ok,1,2\n",
    "bad status": "_index,_status,y\n0,ok,1.0\n1,meh,2.0\n",
    "bad index": "_index,_status,y\n0,ok,1.0\n1,ok,2.0\nx1,ok,3.0\n",
    "bad reserved row order": "_index,_status\n0,ok\n1,meh\nx,ok\ny,nah\n",
    "bad index and status same row": "_index,_status\n0,ok\nx,meh\n",
    "duplicate index": "_index,a\n0,1\n0,2\n",
    "too few cells": "_index,_status,y\n0,ok,1.0\n1,ok\n",
    "too many cells": "a,b\n1,2,3\n",
    "width error after bad status": "_index,_status,y\n0,meh,1\n1,ok\n",
    "over-limit line": WIDE,
    "non-ascii": "name,v,\u00e9\n\u00c5ngstr\u00f6m,1,\u65e5\u672c\nx\u2028y,2,\u00a0\n",
    "nul and control": "a,b\n\x00,1\n\x0b\x0c\x1c,2\n",
    "spaces": "a, b\n 1 , x \n",
    "block 2 text": "_index,_status,v\n"
    + _rows(N2, lambda i: f"{i},ok,{'high' if i == N2 - 3 else i / 7}\n"),
    "block 2 nan": "_index,_status,v\n"
    + _rows(N2, lambda i: f"{i},ok,{'' if i == N2 - 3 else i}\n"),
    "block 2 bad status": "_index,_status,v\n"
    + _rows(N2, lambda i: f"{i},{'meh' if i == N2 - 3 else 'ok'},1\n"),
    "block 1 bad status, block 2 bad width": "_index,_status,v\n"
    + _rows(N2, lambda i: f"{i},{'meh' if i == 3 else 'ok'}{'' if i == N2 - 2 else ',1'}\n"),
    "block 2 quoted": "_index,_status,v\n"
    + _rows(N2, lambda i: f"{i},ok,{QUOTED if i == N2 - 3 else i}\n"),
}


class TestReadCsvAgainstReference:
    @pytest.mark.parametrize("name", list(READ_CORPUS))
    def test_same_table_or_error(self, name):
        text = READ_CORPUS[name]
        got = read_outcome(ResultTable.read_csv, text)
        want = read_outcome(reference_read_csv, text)
        if isinstance(want, ResultTable):
            assert isinstance(got, ResultTable), got
            assert_same_table(got, want)
        else:
            assert got == want

    def test_over_limit_field_is_parse_error(self):
        text = "_index,_status,y\n0,ok,1\n1,ok," + "9" * 200_000 + "\n"
        with pytest.raises(csv.Error):
            reference_read_csv(io.StringIO(text, newline=""))
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            ResultTable.read_csv(io.StringIO(text, newline=""))
        assert err.value.line == 3

    def test_index_beyond_int64_is_parse_error(self):
        text = "_index,y\n0,1\n99999999999999999999,2\n"
        with pytest.raises(ParseError, match="unparsable _index cell") as err:
            ResultTable.read_csv(io.StringIO(text, newline=""))
        assert err.value.line == 3


_cells = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    index = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True))
    columns = {}
    for j in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            columns[f"f{j}"] = np.array(draw(st.lists(floats, min_size=n, max_size=n)))
        else:
            # A first cell that is no number keeps the column text when read back.
            cells = draw(st.lists(st.one_of(st.none(), _cells), min_size=n, max_size=n))
            columns[f"t,\"{j}\r\n"] = np.array(["x!", *cells[1:]][:n], dtype=object)
    return ResultTable(
        index=np.array(index, dtype=np.int64),
        status=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
        columns=columns,
    )


@settings(max_examples=200, deadline=None)
@given(tables())
def test_write_read_round_trip_is_bit_exact(table):
    fh = io.StringIO(newline="")
    table.write_csv(fh)
    back = ResultTable.read_csv(io.StringIO(fh.getvalue(), newline=""))
    assert np.array_equal(back.index, table.index)
    assert np.array_equal(back.status, table.status)
    assert back.column_names == table.column_names
    for name, arr in table.columns.items():
        got = back.column(name)
        if arr.dtype == np.float64:
            nan = np.isnan(arr)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.int64), arr[~nan].view(np.int64))
        elif len(arr):
            assert list(got) == [v if v else None for v in arr]


class TestDataColumn:
    def test_numeric_missing_mask(self):
        col = DataColumn.numeric("y", [1.0, np.nan, 2.0])
        assert list(col.missing_mask()) == [False, True, False]
        assert list(col.non_missing()) == [1.0, 2.0]

    def test_infinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DataColumn.numeric("y", [1.0, np.inf])

    def test_categorical_levels_in_order(self):
        col = DataColumn.categorical("c", ["b", None, "a", "b"])
        assert col.levels() == ["b", "a"]

    def test_columns_from_table_filters_failed(self):
        cols = columns_from_table(make_table())
        by_name = {c.name: c for c in cols}
        assert len(by_name["y"]) == 3  # failed row dropped
        assert by_name["label"].kind == "categorical"
