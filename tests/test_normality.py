"""Normality pre-checks against scipy's reference implementations."""

import numpy as np
import pytest
from scipy import stats as st

from simfarm.analysis.normality import dagostino_k2, shapiro_wilk
from simfarm.errors import DegenerateSampleError, InvalidArgumentError


class TestShapiroWilk:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 11, 12, 25, 100, 500, 4999])
    def test_matches_scipy_on_normal_data(self, n):
        x = np.random.default_rng(n).normal(3.0, 2.0, n)
        w, p = shapiro_wilk(x)
        ref = st.shapiro(x)
        assert w == pytest.approx(ref.statistic, abs=5e-9)
        assert p == pytest.approx(ref.pvalue, abs=5e-6)

    def test_matches_scipy_on_skewed_data(self):
        x = np.random.default_rng(1).exponential(1.0, 200)
        w, p = shapiro_wilk(x)
        ref = st.shapiro(x)
        assert w == pytest.approx(ref.statistic, abs=1e-9)
        assert p == pytest.approx(ref.pvalue, rel=1e-3, abs=1e-12)

    def test_rejects_tiny_and_huge_samples(self):
        with pytest.raises(InvalidArgumentError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(InvalidArgumentError):
            shapiro_wilk(np.zeros(5001))

    def test_sample_varying_in_its_last_bits(self):
        # a @ x would lose every digit here; the W of a @ centered is finite and < 1
        x = np.array([2.0] * 30 + [2.0000000000000004])
        w, p = shapiro_wilk(x)
        ref = st.shapiro(x)  # float32 internally, so only roughly equal
        assert w == pytest.approx(ref.statistic, abs=0.01)
        assert 0.0 < p < 1e-10
        assert p == pytest.approx(ref.pvalue, rel=0.2)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 50, 500])
    def test_sample_shaped_like_the_weights_has_p_one(self, n):
        # W is 1 in exact arithmetic and rounds to 1 for most n; log1p(-1) must not be taken
        from simfarm.analysis.normality import _royston_weights

        w, p = shapiro_wilk(3.0 * _royston_weights(n) + 10.0)
        assert w == pytest.approx(1.0, abs=1e-14)
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_zero_range_is_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            shapiro_wilk([2.0, 2.0, 2.0, 2.0])


class TestDagostinoK2:
    @pytest.mark.parametrize("n", [30, 100, 1000, 6000])
    def test_matches_scipy(self, n):
        x = np.random.default_rng(n).normal(0.0, 1.0, n)
        k2, p = dagostino_k2(x)
        ref = st.normaltest(x)
        assert k2 == pytest.approx(ref.statistic, rel=1e-10)
        assert p == pytest.approx(ref.pvalue, rel=1e-8)

    def test_detects_heavy_tails(self):
        x = np.random.default_rng(7).standard_cauchy(500)
        _, p = dagostino_k2(x)
        assert p < 1e-6

    def test_bimodal_sample_matches_scipy(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(-3.0, 1.0, 3000), rng.normal(3.0, 1.0, 3000)])
        k2, _ = dagostino_k2(x)
        assert k2 == pytest.approx(st.normaltest(x).statistic, rel=1e-10)
        assert k2 == pytest.approx(29404.989, abs=1e-3)

    def test_three_level_column_has_a_real_kurtosis_z(self):
        # platykurtic enough that the cube root's argument is negative
        x = np.tile([0.0, 1.0, 2.0], 2000)
        k2, p = dagostino_k2(x)
        # the skewness is exactly 0 (scipy then uses y = 1), so K^2 = z2^2
        z2 = st.kurtosistest(x).statistic
        assert k2 == pytest.approx(z2 * z2, rel=1e-10)
        assert p == 0.0

    def test_small_sample_rejected(self):
        with pytest.raises(InvalidArgumentError):
            dagostino_k2(np.arange(10.0))
