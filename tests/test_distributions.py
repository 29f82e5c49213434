"""Sampling distributions cross-checked against scipy."""

import math

import numpy as np
import pytest
from scipy import stats as st

from simfarm.analysis.distributions import (
    chi2_cdf,
    chi2_sf,
    f_cdf,
    f_sf,
    kolmogorov_sf,
    studentized_range_cdf,
    studentized_range_sf,
    t_cdf,
    t_sf,
)


class TestStudentT:
    @pytest.mark.parametrize("df", [1, 2, 5, 12, 30, 120])
    @pytest.mark.parametrize("t", [-6.0, -1.3, 0.0, 0.5, 2.2, 9.0])
    def test_sf_matches_scipy(self, t, df):
        assert t_sf(t, df) == pytest.approx(st.t.sf(t, df), rel=1e-10, abs=1e-12)

    def test_cdf_complements(self):
        assert t_cdf(1.3, 7) == pytest.approx(1.0 - t_sf(1.3, 7), abs=1e-15)


class TestChi2:
    @pytest.mark.parametrize("df", [1, 2, 4, 10, 50])
    @pytest.mark.parametrize("x", [0.01, 0.5, 3.0, 12.0, 80.0])
    def test_matches_scipy(self, x, df):
        assert chi2_cdf(x, df) == pytest.approx(st.chi2.cdf(x, df), rel=1e-10, abs=1e-12)
        assert chi2_sf(x, df) == pytest.approx(st.chi2.sf(x, df), rel=1e-10, abs=1e-12)


class TestF:
    @pytest.mark.parametrize("dfs", [(1, 10), (2, 12), (5, 40), (10, 3)])
    @pytest.mark.parametrize("x", [0.1, 0.8, 2.0, 7.5])
    def test_matches_scipy(self, x, dfs):
        d1, d2 = dfs
        assert f_cdf(x, d1, d2) == pytest.approx(st.f.cdf(x, d1, d2), rel=1e-9, abs=1e-12)
        assert f_sf(x, d1, d2) == pytest.approx(st.f.sf(x, d1, d2), rel=1e-9, abs=1e-12)


def reference_kolmogorov_sf(lam: float, terms: int = 101) -> float:
    """The plain alternating series, which is right only where it converges."""
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, terms):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, total))


class TestKolmogorov:
    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0])
    def test_matches_scipy_kstwobign(self, lam):
        assert kolmogorov_sf(lam) == pytest.approx(st.kstwobign.sf(lam), abs=1e-12)

    @pytest.mark.parametrize("lam", [0.005, 0.01, 0.02, 0.03, 0.04])
    def test_small_lambda_matches_scipy(self, lam):
        assert kolmogorov_sf(lam) == pytest.approx(st.kstwobign.sf(lam), abs=1e-12)

    def test_converging_series_unchanged(self):
        for lam in np.concatenate([np.linspace(0.05, 0.2, 301), np.linspace(0.2, 8.0, 400)]):
            assert kolmogorov_sf(float(lam)) == reference_kolmogorov_sf(float(lam)), lam

    def test_tails(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(10.0) == pytest.approx(0.0, abs=1e-15)


class TestStudentizedRange:
    @pytest.mark.parametrize(
        "q,k,df",
        [
            (1.0, 3, 10),
            (2.0, 3, 10),
            (3.5, 3, 12),
            (4.2, 5, 40),
            (6.0, 3, 8),
            (3.0, 10, 100),
            (2.5, 4, 6),
        ],
    )
    def test_cdf_matches_scipy(self, q, k, df):
        assert studentized_range_cdf(q, k, df) == pytest.approx(
            st.studentized_range.cdf(q, k, df), abs=1e-8
        )

    def test_sf_complements(self):
        assert studentized_range_sf(3.0, 4, 20) == pytest.approx(
            1.0 - studentized_range_cdf(3.0, 4, 20), abs=1e-14
        )

    def test_zero_and_negative_q(self):
        assert studentized_range_cdf(0.0, 3, 10) == 0.0
        assert studentized_range_sf(-1.0, 3, 10) == 1.0
