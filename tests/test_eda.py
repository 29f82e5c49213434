import json

import numpy as np
import pytest

from simfarm.analysis.eda import eda_summary, fd_bin_count
from simfarm.analysis.outliers import detect_outliers
from simfarm.cli import dispatch
from simfarm.errors import InvalidArgumentError
from simfarm.rng import substream
from simfarm.tables import DataColumn, ResultTable


def report_for(*columns):
    return eda_summary(list(columns))


class TestNumericSummaries:
    def test_five_number_summary(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        summary = report_for(DataColumn.numeric("x", x)).numeric[0]
        assert summary.count == 5
        assert summary.q1 == pytest.approx(2.0)
        assert summary.median == pytest.approx(3.0)
        assert summary.q3 == pytest.approx(4.0)
        assert summary.min == 1.0 and summary.max == 100.0

    def test_boxplot_outlier_count_matches_detector(self):
        x = substream(0, 0).standard_cauchy(500)
        summary = report_for(DataColumn.numeric("x", x)).numeric[0]
        assert summary.iqr_outlier_count == len(detect_outliers(x, "iqr", 1.5).flagged)

    def test_histogram_covers_all_points(self):
        x = substream(1, 0).normal(0, 1, 400)
        summary = report_for(DataColumn.numeric("x", x)).numeric[0]
        assert sum(summary.bin_counts) == 400
        assert len(summary.bin_edges) == len(summary.bin_counts) + 1

    def test_fd_rule_floors_at_one_bin(self):
        assert fd_bin_count(np.full(50, 2.0)) == 1
        assert fd_bin_count(np.array([1.0])) == 1

    def test_empty_column_summarized_with_count_zero(self):
        col = DataColumn.numeric("x", np.array([np.nan, np.nan]))
        summary = report_for(col).numeric[0]
        assert summary.count == 0
        assert summary.mean is None


class TestCategoricalSummaries:
    def test_class_balance(self):
        values = np.array(["A"] * 50 + ["B"] * 50, dtype=object)
        summary = report_for(DataColumn.categorical("c", values)).categorical[0]
        assert summary.balance == {"A": 0.5, "B": 0.5}

    def test_frequencies_sum_to_non_missing_count(self):
        values = np.array(["A", "B", None, "A", None, "C"], dtype=object)
        summary = report_for(DataColumn.categorical("c", values)).categorical[0]
        assert sum(summary.frequencies.values()) == summary.count == 4


class TestMatrices:
    def test_pearson_of_identical_columns(self):
        x = substream(2, 0).normal(0, 1, 100)
        report = report_for(DataColumn.numeric("x", x), DataColumn.numeric("y", x.copy()))
        m = np.asarray(report.pearson["matrix"])
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matrices_symmetric_unit_diagonal(self):
        g = substream(3, 0)
        report = report_for(
            DataColumn.numeric("a", g.normal(0, 1, 80)),
            DataColumn.numeric("b", g.normal(0, 1, 80)),
            DataColumn.numeric("c", g.exponential(1, 80)),
        )
        for doc in (report.pearson, report.spearman):
            m = np.asarray(doc["matrix"])
            assert np.allclose(m, m.T)
            assert np.allclose(np.diag(m), 1.0)
            assert np.all(np.abs(m) <= 1.0 + 1e-12)

    def test_spearman_exactly_one_under_monotone_transform(self):
        x = substream(4, 0).normal(0, 1, 150)
        report = report_for(
            DataColumn.numeric("x", x), DataColumn.numeric("y", np.exp(x))
        )
        assert np.asarray(report.spearman["matrix"])[0, 1] == pytest.approx(1.0, abs=0)

    def test_cramers_v_perfect_association(self):
        values = np.array(["a", "b"] * 40, dtype=object)
        mirrored = np.array(["x" if v == "a" else "y" for v in values], dtype=object)
        report = report_for(
            DataColumn.categorical("u", values), DataColumn.categorical("v", mirrored)
        )
        m = np.asarray(report.cramers_v["matrix"])
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_cramers_v_independent_levels_near_zero(self):
        g = substream(5, 0)
        a = np.array([("a", "b")[i] for i in g.integers(0, 2, 2000)], dtype=object)
        b = np.array([("x", "y")[i] for i in g.integers(0, 2, 2000)], dtype=object)
        report = report_for(
            DataColumn.categorical("u", a), DataColumn.categorical("v", b)
        )
        m = np.asarray(report.cramers_v["matrix"])
        assert 0.0 <= m[0, 1] < 0.1


class TestContracts:
    def test_empty_table_rejected(self):
        with pytest.raises(InvalidArgumentError):
            eda_summary([])

    def test_report_dict_shape(self):
        report = report_for(DataColumn.numeric("x", np.arange(10.0)))
        doc = report.to_dict()
        assert doc["schema_version"] == 1
        assert doc["numeric"][0]["histogram"]["counts"]


def test_range_that_overflows_is_a_domain_error_naming_the_column():
    from simfarm.errors import DomainError

    fine = DataColumn.numeric("fine", [0.0, 1.0, 2.0])
    for values in ([1.7e308, -1.7e308, 0.0], [1e308, -1e308, 0.5]):
        with pytest.raises(DomainError, match="numeric column 'wide'.*overflows"):
            eda_summary([fine, DataColumn.numeric("wide", values)])
    report = eda_summary([DataColumn.numeric("wide", [1e150, -1e150, 0.5])])
    assert report.numeric[0].min == -1e150 and sum(report.numeric[0].bin_counts) == 3


def test_bin_count_is_capped_at_one_bin_per_value(tmp_path):
    # a tiny IQR against a huge range asks Freedman-Diaconis for ~7.6e22 bins
    x = np.r_[substream(4, 0).normal(0, 1, 998) * 1e-12, -1e10, 1e10]
    assert fd_bin_count(x) == len(x)
    data = tmp_path / "wide.csv"
    ResultTable(index=np.arange(len(x)), status=np.ones(len(x), dtype=bool),
                columns={"v": x}).to_csv(data)
    out = tmp_path / "eda.json"
    assert dispatch(["analyze", "eda", "--data", str(data), "--out", str(out)]) == 0
    (summary,) = json.loads(out.read_text())["numeric"]
    assert 1 <= len(summary["histogram"]["counts"]) <= len(x)
    assert sum(summary["histogram"]["counts"]) == len(x)
