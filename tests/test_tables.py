import numpy as np
import pytest

from simfarm.errors import InvalidArgumentError, ParseError
from simfarm.tables import DataColumn, ResultTable, columns_from_table


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
