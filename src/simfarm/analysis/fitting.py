"""Distribution fitting with Kolmogorov-Smirnov goodness ranking.

Candidate families: normal and exponential by closed-form MLE, uniform by
sample bounds, chi-squared and beta by method of moments.  Families are
ranked ascending by the K-S statistic D; the attached p-values use the
asymptotic Kolmogorov distribution and are indicative only, since parameters
are estimated from the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateSampleError, DomainError, InvalidArgumentError, NumericalError
from ..tables import DataColumn
from .distributions import kolmogorov_sf
from .special import betainc, gammainc_p, norm_cdf

__all__ = ["FAMILIES", "FamilyFit", "FitReport", "fit_distributions", "ks_statistic"]

FAMILIES = ("normal", "uniform", "exponential", "chi_squared", "beta")

MIN_FIT_N = 20


@dataclass
class FamilyFit:
    family: str
    params: dict[str, float]
    ks_d: float
    p_indicative: float

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "ks_d": self.ks_d,
            "p_indicative": self.p_indicative,
        }


@dataclass
class FitReport:
    fits: list[FamilyFit]
    ranking: list[str]
    skipped: list[tuple[str, str]] = field(default_factory=list)
    rescaled: bool = False

    def best(self) -> FamilyFit:
        by_name = {f.family: f for f in self.fits}
        return by_name[self.ranking[0]]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "fits": [f.to_dict() for f in self.fits],
            "ranking": self.ranking,
            "skipped": [list(s) for s in self.skipped],
            "rescaled": self.rescaled,
        }


def ks_statistic(sorted_sample: np.ndarray, cdf_values: np.ndarray) -> float:
    """D = max_i max(i/n - F(x_i), F(x_i) - (i-1)/n) over the sorted sample."""
    n = len(sorted_sample)
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(max(np.max(i / n - cdf_values), np.max(cdf_values - (i - 1) / n)))


def _cdf_normal(x: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    return np.array([norm_cdf((v - mu) / sigma) for v in x])


def _cdf_uniform(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.clip((x - lo) / (hi - lo), 0.0, 1.0)


def _cdf_exponential(x: np.ndarray, rate: float) -> np.ndarray:
    return np.where(x < 0, 0.0, 1.0 - np.exp(-rate * np.maximum(x, 0.0)))


def _cdf_chi2(x: np.ndarray, df: float) -> np.ndarray:
    return np.where(x > 0, gammainc_p(df / 2.0, x / 2.0), 0.0)


def _cdf_beta(x: np.ndarray, a: float, b: float) -> np.ndarray:
    return betainc(a, b, np.clip(x, 0.0, 1.0))


def fit_distributions(
    sample,
    candidates=None,
    rescale: bool = False,
) -> FitReport:
    """Fit candidate families to ``sample`` and rank them by K-S D.

    ``candidates=None`` fits every family applicable to the data; families
    explicitly requested but inapplicable raise a domain error (for beta:
    data must lie strictly inside (0, 1) unless ``rescale`` pads the sample
    range into the open unit interval first).  A family whose CDF kernel
    raises NumericalError is listed under ``skipped`` with the error text,
    or re-raised when it was requested explicitly.
    """
    if isinstance(sample, DataColumn):
        if sample.kind != "numeric":
            raise InvalidArgumentError(f"column {sample.name!r} is not numeric")
        x = sample.non_missing()
    else:
        x = np.asarray(sample, dtype=np.float64)
        x = x[~np.isnan(x)]
    n = len(x)
    if n < MIN_FIT_N:
        raise InvalidArgumentError(f"need at least {MIN_FIT_N} non-missing values, got {n}")
    if float(x.var(ddof=1)) == 0.0:
        raise DegenerateSampleError("sample variance is zero; nothing to fit")

    explicit = candidates is not None
    wanted = list(FAMILIES) if candidates is None else list(candidates)
    unknown = [f for f in wanted if f not in FAMILIES]
    if unknown:
        raise InvalidArgumentError(f"unknown families {unknown}; supported: {list(FAMILIES)}")

    xs = np.sort(x)
    mean = float(x.mean())
    var = float(x.var(ddof=1))

    in_unit = bool(xs[0] > 0.0 and xs[-1] < 1.0)
    rescaled = False
    xb = xs
    if "beta" in wanted and not in_unit:
        if rescale:
            span = xs[-1] - xs[0]
            pad = span / (2.0 * n)
            xb = (xs - (xs[0] - pad)) / (span + 2.0 * pad)
            rescaled = True
        elif explicit:
            raise DomainError(
                "beta requires values strictly inside (0, 1); pass rescale=True "
                "or drop the beta candidate"
            )

    fits: list[FamilyFit] = []
    skipped: list[tuple[str, str]] = []

    for family in wanted:
        if family == "normal":
            sigma = math.sqrt(float(x.var(ddof=0)))  # MLE scale
            points, cdf, args = xs, _cdf_normal, (mean, sigma)
            params = {"mu": mean, "sigma": sigma}
        elif family == "uniform":
            lo, hi = float(xs[0]), float(xs[-1])
            points, cdf, args = xs, _cdf_uniform, (lo, hi)
            params = {"lo": lo, "hi": hi}
        elif family == "exponential":
            if mean <= 0:
                msg = "exponential needs a positive sample mean"
                if explicit:
                    raise DomainError(msg)
                skipped.append((family, msg))
                continue
            rate = 1.0 / mean
            points, cdf, args = xs, _cdf_exponential, (rate,)
            params = {"rate": rate}
        elif family == "chi_squared":
            if mean <= 0:
                msg = "chi-squared needs a positive sample mean"
                if explicit:
                    raise DomainError(msg)
                skipped.append((family, msg))
                continue
            df = mean  # method of moments
            points, cdf, args = xs, _cdf_chi2, (df,)
            params = {"df": df}
        else:  # beta
            if not in_unit and not rescaled:
                skipped.append(("beta", "values not strictly inside (0, 1)"))
                continue
            mb = float(xb.mean())
            vb = float(xb.var(ddof=1))
            common = mb * (1.0 - mb) / vb - 1.0
            a, b = mb * common, (1.0 - mb) * common
            if a <= 0 or b <= 0:
                msg = "method-of-moments beta parameters are nonpositive"
                if explicit:
                    raise DomainError(msg)
                skipped.append((family, msg))
                continue
            points, cdf, args = xb, _cdf_beta, (a, b)
            params = {"alpha": a, "beta": b}
        try:
            d = ks_statistic(points, cdf(points, *args))
        except NumericalError as exc:
            if explicit:
                raise
            skipped.append((family, str(exc)))
            continue
        p = kolmogorov_sf(math.sqrt(n) * d)
        fits.append(FamilyFit(family=family, params=params, ks_d=d, p_indicative=p))

    if not fits:
        raise DomainError("no candidate family is applicable to this sample")
    order = sorted(range(len(fits)), key=lambda i: fits[i].ks_d)
    return FitReport(
        fits=fits,
        ranking=[fits[i].family for i in order],
        skipped=skipped,
        rescaled=rescaled,
    )
