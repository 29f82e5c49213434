"""Normality pre-checks: Shapiro-Wilk (Royston 1995) and D'Agostino K^2.

Shapiro-Wilk follows Royston's AS R94 approximation and is valid for
3 <= n <= 5000; larger samples use the D'Agostino-Pearson K^2 omnibus test
(skewness per D'Agostino 1970, kurtosis per Anscombe & Glynn 1983).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateSampleError, InvalidArgumentError, NumericalError
from .distributions import chi2_sf
from .special import norm_cdf, norm_ppf_vec

__all__ = ["shapiro_wilk", "dagostino_k2", "SW_MAX_N"]

SW_MAX_N = 5000


def _polyval(coefs, x: float) -> float:
    # coefs in ascending order
    r = 0.0
    for c in reversed(coefs):
        r = r * x + c
    return r


def _royston_weights(n: int) -> np.ndarray:
    """Shapiro-Wilk weights: Blom scores with Royston's corrected tails."""
    m = norm_ppf_vec((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    ssm = float(m @ m)
    c = m / math.sqrt(ssm)
    u = 1.0 / math.sqrt(n)
    a = np.empty(n)
    if n == 3:
        a[0] = -math.sqrt(0.5)
        a[1] = 0.0
        a[2] = math.sqrt(0.5)
    else:
        an = _polyval([c[-1], 0.221157, -0.147981, -2.071190, 4.434685, -2.706056], u)
        if n > 5:
            an1 = _polyval([c[-2], 0.042981, -0.293762, -1.752461, 5.682633, -3.582633], u)
            phi = (ssm - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
                1.0 - 2.0 * an**2 - 2.0 * an1**2
            )
            a[2:-2] = m[2:-2] / math.sqrt(phi)
            a[-2] = an1
            a[1] = -an1
        else:
            phi = (ssm - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * an**2)
            a[1:-1] = m[1:-1] / math.sqrt(phi)
        a[-1] = an
        a[0] = -an
    return a


def shapiro_wilk(sample) -> tuple[float, float]:
    """Shapiro-Wilk W and p-value for 3 <= n <= 5000."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = len(x)
    if n < 3:
        raise InvalidArgumentError(f"Shapiro-Wilk needs n >= 3, got {n}")
    if n > SW_MAX_N:
        raise InvalidArgumentError(f"Shapiro-Wilk valid up to n = {SW_MAX_N}, got {n}")
    if x[-1] == x[0]:
        raise DegenerateSampleError("sample has zero range")

    a = _royston_weights(n)

    # The weights sum to 0, so a @ centered equals a @ x; it keeps the digits
    # that a @ x cancels away on a sample that varies only in its last bits.
    centered = x - x.mean()
    w = min(float((a @ centered) ** 2 / (centered @ centered)), 1.0)
    if w == 1.0:
        return w, 1.0

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return w, float(min(1.0, max(0.0, p)))
    if n <= 11:
        gamma = _polyval([-2.273, 0.459], n)
        stat = -math.log(gamma - math.log1p(-w))
        mu = _polyval([0.5440, -0.39978, 0.025054, -0.0006714], n)
        sigma = math.exp(_polyval([1.3822, -0.77857, 0.062767, -0.0020322], n))
    else:
        ln_n = math.log(n)
        stat = math.log1p(-w)
        mu = _polyval([-1.5861, -0.31082, -0.083751, 0.0038915], ln_n)
        sigma = math.exp(_polyval([-0.4803, -0.082676, 0.0030302], ln_n))
    z = (stat - mu) / sigma
    return w, float(norm_cdf(-z))


def dagostino_k2(sample) -> tuple[float, float]:
    """D'Agostino-Pearson K^2 omnibus normality test (n >= 20)."""
    x = np.asarray(sample, dtype=np.float64)
    n = len(x)
    if n < 20:
        raise InvalidArgumentError(f"K^2 test needs n >= 20, got {n}")
    d = x - x.mean()
    m2 = float(np.mean(d**2))
    if m2 == 0.0:
        raise DegenerateSampleError("sample has zero variance")
    g1 = float(np.mean(d**3)) / m2**1.5
    g2 = float(np.mean(d**4)) / m2**2

    # skewness z (D'Agostino 1970)
    y = g1 * math.sqrt((n + 1.0) * (n + 3.0) / (6.0 * (n - 2.0)))
    beta2 = (
        3.0 * (n**2 + 27.0 * n - 70.0) * (n + 1.0) * (n + 3.0)
        / ((n - 2.0) * (n + 5.0) * (n + 7.0) * (n + 9.0))
    )
    w2 = -1.0 + math.sqrt(2.0 * (beta2 - 1.0))
    delta = 1.0 / math.sqrt(0.5 * math.log(w2))
    alpha = math.sqrt(2.0 / (w2 - 1.0))
    if y == 0.0:
        z1 = 0.0
    else:
        z1 = delta * math.log(y / alpha + math.sqrt((y / alpha) ** 2 + 1.0))

    # kurtosis z (Anscombe & Glynn 1983)
    eb2 = 3.0 * (n - 1.0) / (n + 1.0)
    vb2 = 24.0 * n * (n - 2.0) * (n - 3.0) / ((n + 1.0) ** 2 * (n + 3.0) * (n + 5.0))
    xk = (g2 - eb2) / math.sqrt(vb2)
    sqrt_b1 = (
        6.0 * (n * n - 5.0 * n + 2.0) / ((n + 7.0) * (n + 9.0))
        * math.sqrt(6.0 * (n + 3.0) * (n + 5.0) / (n * (n - 2.0) * (n - 3.0)))
    )
    big_a = 6.0 + 8.0 / sqrt_b1 * (2.0 / sqrt_b1 + math.sqrt(1.0 + 4.0 / sqrt_b1**2))
    denom = 1.0 + xk * math.sqrt(2.0 / (big_a - 4.0))
    if denom == 0.0:
        raise NumericalError("K^2 kurtosis transform has a zero denominator")
    q = (1.0 - 2.0 / big_a) / denom
    # real cube root: q < 0 on a strongly platykurtic sample
    z2 = (
        (1.0 - 2.0 / (9.0 * big_a)) - math.copysign(abs(q) ** (1.0 / 3.0), q)
    ) / math.sqrt(2.0 / (9.0 * big_a))

    k2 = z1 * z1 + z2 * z2
    return float(k2), float(chi2_sf(k2, 2.0))
