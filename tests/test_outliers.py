import numpy as np
import pytest

from simfarm.analysis.outliers import detect_outliers
from simfarm.errors import InvalidArgumentError
from simfarm.rng import substream
from simfarm.tables import DataColumn


class TestIqr:
    def test_fence_computation_from_quantile_rule(self):
        # type-7 quantiles on [1,2,3,4,100]: Q1 = 2, Q3 = 4 -> fences [-1, 7]
        report = detect_outliers(np.array([1.0, 2.0, 3.0, 4.0, 100.0]), method="iqr", k=1.5)
        assert report.thresholds["q1"] == pytest.approx(2.0)
        assert report.thresholds["q3"] == pytest.approx(4.0)
        assert report.thresholds["lower"] == pytest.approx(-1.0)
        assert report.thresholds["upper"] == pytest.approx(7.0)
        assert list(report.flagged) == [4]

    def test_all_equal_degenerate(self):
        report = detect_outliers(np.full(10, 5.0), method="iqr")
        assert len(report.flagged) == 0
        assert report.note is not None

    def test_thresholds_reproduce_flags(self):
        x = substream(0, 0).normal(0, 1, 300)
        report = detect_outliers(x, method="iqr", k=1.5)
        lo, hi = report.thresholds["lower"], report.thresholds["upper"]
        manual = np.nonzero((x < lo) | (x > hi))[0]
        assert np.array_equal(report.flagged, manual)


class TestZscore:
    def test_injected_extreme_point_flagged_exactly(self):
        x = substream(1, 0).normal(0, 1, 100)
        x = np.append(x, 10.0)  # ten-sigma point
        report = detect_outliers(x, method="zscore", k=3.0)
        assert list(report.flagged) == [100]

    def test_zero_sd_degenerate(self):
        report = detect_outliers(np.full(8, 1.0), method="zscore")
        assert len(report.flagged) == 0
        assert "zero" in report.note

    def test_sample_too_small_for_k_is_noted(self):
        # The largest z-score of n values is (n - 1) / sqrt(n): 2.85 for n = 10.
        report = detect_outliers(np.append(np.zeros(9), 1000.0), method="zscore", k=3.0)
        assert len(report.flagged) == 0
        assert "nothing can be flagged" in report.note and "2.846" in report.note
        # At n = 11 the bound is 3.02 > k: the lone extreme point is flagged.
        report = detect_outliers(np.append(np.zeros(10), 1000.0), method="zscore", k=3.0)
        assert list(report.flagged) == [10] and report.note is None

    def test_thresholds_reproduce_flags(self):
        x = substream(2, 0).standard_cauchy(500)
        report = detect_outliers(x, method="zscore", k=3.0)
        lo, hi = report.thresholds["lower"], report.thresholds["upper"]
        manual = np.nonzero((x < lo) | (x > hi))[0]
        assert np.array_equal(report.flagged, manual)


class TestContracts:
    def test_missing_values_keep_positions(self):
        x = np.array([1.0, np.nan, 2.0, 3.0, 4.0, 100.0])
        report = detect_outliers(DataColumn.numeric("x", x), method="iqr", k=1.5)
        assert list(report.flagged) == [5]

    def test_too_few_values(self):
        with pytest.raises(InvalidArgumentError):
            detect_outliers(np.array([1.0, 2.0, 3.0]))

    def test_unknown_method(self):
        with pytest.raises(InvalidArgumentError):
            detect_outliers(np.arange(10.0), method="mad")

    def test_default_ks(self):
        x = np.arange(10.0)
        assert detect_outliers(x, method="zscore").k == 3.0
        assert detect_outliers(x, method="iqr").k == 1.5
