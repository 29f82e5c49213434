"""CDFs and survival functions built on the in-house special-function kernel.

Covers the sampling distributions needed by the hypothesis-testing flow:
Student t, F, chi-squared, the asymptotic Kolmogorov distribution, and the
studentized range (by fixed-order Gauss-Legendre quadrature, used for Tukey
HSD p-values).
"""

from __future__ import annotations

import math

import numpy as np

from .special import betainc, gammainc_p, gammainc_q, norm_cdf, norm_ppf, norm_sf

__all__ = [
    "norm_cdf",
    "norm_sf",
    "norm_ppf",
    "t_cdf",
    "t_sf",
    "chi2_cdf",
    "chi2_sf",
    "f_cdf",
    "f_sf",
    "kolmogorov_sf",
    "studentized_range_cdf",
    "studentized_range_sf",
]


def t_sf(t: float, df: float) -> float:
    """P(T > t) for Student t with ``df`` degrees of freedom."""
    if df <= 0:
        return math.nan
    if t == 0.0:
        return 0.5
    p_tail = 0.5 * betainc(df / 2.0, 0.5, df / (df + t * t))
    return p_tail if t > 0 else 1.0 - p_tail


def t_cdf(t: float, df: float) -> float:
    return 1.0 - t_sf(t, df)


def chi2_cdf(x: float, df: float) -> float:
    if x <= 0:
        return 0.0
    return gammainc_p(df / 2.0, x / 2.0)


def chi2_sf(x: float, df: float) -> float:
    if x <= 0:
        return 1.0
    return gammainc_q(df / 2.0, x / 2.0)


def f_cdf(x: float, df1: float, df2: float) -> float:
    if x <= 0:
        return 0.0
    return betainc(df1 / 2.0, df2 / 2.0, df1 * x / (df1 * x + df2))


def f_sf(x: float, df1: float, df2: float) -> float:
    if x <= 0:
        return 1.0
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df1 * x + df2))


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def kolmogorov_sf(lam: float, terms: int = 101) -> float:
    """Asymptotic Kolmogorov survival Q(lam) = 2 sum (-1)^(j-1) exp(-2 j^2 lam^2).

    The alternating series needs about 4.3/lam terms to meet its stop test;
    where ``terms`` is too few (lam <= 0.04 by default), Q comes from Jacobi's
    transform of the same sum,
    1 - (sqrt(2 pi)/lam) sum exp(-(2k-1)^2 pi^2 / (8 lam^2)), which converges
    fast exactly there.
    """
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, terms):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-16:
            break
    else:
        cdf = 0.0
        for k in range(1, terms):
            term = math.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * lam * lam))
            cdf += term
            if term < 1e-16 * cdf or term == 0.0:
                break
        total = 1.0 - _SQRT_2PI / lam * cdf
    return min(1.0, max(0.0, total))


# -- studentized range --------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(80)


def _range_cdf_unit_scale(q: float, k: int) -> float:
    # P(range of k iid N(0,1) < q) = k * int phi(z) (Phi(z) - Phi(z-q))^(k-1) dz
    lo, hi = -8.0, 8.0
    z = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * _GL_WEIGHTS
    phi = np.exp(-0.5 * z * z) / _SQRT_2PI
    big = np.array([norm_cdf(v) for v in z])
    small = np.array([norm_cdf(v - q) for v in z])
    inner = np.maximum(big - small, 0.0) ** (k - 1)
    return float(k * np.sum(w * phi * inner))


def studentized_range_cdf(q: float, k: int, df: float) -> float:
    """P(Q <= q) for the studentized range of ``k`` means with ``df`` error dof."""
    if q <= 0:
        return 0.0
    if k < 2:
        raise ValueError("studentized range needs k >= 2")
    if df > 1e5:  # normal-scale limit
        return _range_cdf_unit_scale(q, k)
    # outer integral over s ~ sqrt(chi2_df / df)
    lo, hi = 0.0, 1.0 + 6.0 / math.sqrt(df)
    s = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * _GL_WEIGHTS
    log_norm = 0.5 * df * math.log(df) - math.lgamma(df / 2.0) - (df / 2.0 - 1.0) * math.log(2.0)
    with np.errstate(divide="ignore"):
        log_s = np.where(s > 0, np.log(s), -np.inf)
    dens = np.exp(log_norm + (df - 1.0) * log_s - df * s * s / 2.0)
    inner = np.array([_range_cdf_unit_scale(q * si, k) if si > 0 else 0.0 for si in s])
    return min(1.0, max(0.0, float(np.sum(w * dens * inner))))


def studentized_range_sf(q: float, k: int, df: float) -> float:
    return 1.0 - studentized_range_cdf(q, k, df)
