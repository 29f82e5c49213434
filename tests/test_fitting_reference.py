"""fit_distributions against its earlier per-family branch implementation,
kept below verbatim as the reference.

Every case must give the same report, byte for byte once serialized, and
every failing input the same exception type and message.
"""

import json
import math

import numpy as np
import pytest

from simfarm.analysis import fitting
from simfarm.analysis.distributions import kolmogorov_sf
from simfarm.analysis.fitting import (
    FAMILIES,
    MIN_FIT_N,
    FamilyFit,
    FitReport,
    fit_distributions,
    ks_statistic,
)
from simfarm.errors import DegenerateSampleError, DomainError, InvalidArgumentError, NumericalError
from simfarm.rng import substream
from simfarm.tables import DataColumn


def ref_fit_distributions(
    sample,
    candidates=None,
    rescale: bool = False,
) -> FitReport:
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
    var = float(x.var(ddof=1))  # noqa: F841 (kept verbatim)

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
            points, cdf, args = xs, fitting._cdf_normal, (mean, sigma)
            params = {"mu": mean, "sigma": sigma}
        elif family == "uniform":
            lo, hi = float(xs[0]), float(xs[-1])
            points, cdf, args = xs, fitting._cdf_uniform, (lo, hi)
            params = {"lo": lo, "hi": hi}
        elif family == "exponential":
            if mean <= 0:
                msg = "exponential needs a positive sample mean"
                if explicit:
                    raise DomainError(msg)
                skipped.append((family, msg))
                continue
            rate = 1.0 / mean
            points, cdf, args = xs, fitting._cdf_exponential, (rate,)
            params = {"rate": rate}
        elif family == "chi_squared":
            if mean <= 0:
                msg = "chi-squared needs a positive sample mean"
                if explicit:
                    raise DomainError(msg)
                skipped.append((family, msg))
                continue
            df = mean  # method of moments
            points, cdf, args = xs, fitting._cdf_chi2, (df,)
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
            points, cdf, args = xb, fitting._cdf_beta, (a, b)
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


def _samples():
    g = substream(500, 0)
    two_point = np.r_[np.full(15, 1e-9), np.full(15, 1.0 - 1e-9)] + g.random(30) * 1e-12
    with_nan = g.gamma(2.0, 1.5, 300)
    with_nan[[3, 40, 41]] = np.nan
    return {
        "normal-negative-mean": g.normal(-4.0, 2.0, 400),
        "normal-positive-mean": g.normal(10.0, 2.0, 400),
        "exponential": g.exponential(0.5, 600),
        "chi-squared": g.chisquare(4.0, 500),
        "uniform-in-unit": g.uniform(0.05, 0.95, 300),
        "beta-in-unit": g.beta(2.0, 5.0, 400),
        "beta-two-point": two_point,
        "spans-zero": g.uniform(-0.5, 0.5, 200),
        "chi-squared-mean-1e8": g.normal(1e8, 1e4, 200),
        "with-nan": with_nan,
        "column": DataColumn.numeric("fuel", g.normal(3.0, 0.5, 120)),
        "small-n": g.normal(0.5, 0.1, MIN_FIT_N),
    }


SAMPLES = _samples()
CANDIDATES = [None, [], *([f] for f in FAMILIES), ["exponential", "beta"], ["beta", "normal", "chi_squared"]]


def _outcome(fn, sample, candidates, rescale):
    try:
        return "ok", json.dumps(fn(sample, candidates, rescale).to_dict(), sort_keys=True)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


@pytest.mark.parametrize("rescale", [False, True])
@pytest.mark.parametrize("candidates", CANDIDATES, ids=str)
@pytest.mark.parametrize("name", list(SAMPLES))
def test_fit_matches_reference(name, candidates, rescale):
    sample = SAMPLES[name]
    assert _outcome(fit_distributions, sample, candidates, rescale) == _outcome(
        ref_fit_distributions, sample, candidates, rescale
    )


def test_grid_reaches_every_outcome():
    skipped, errors = set(), set()
    for sample in SAMPLES.values():
        for candidates in CANDIDATES:
            for rescale in (False, True):
                kind, detail = _outcome(ref_fit_distributions, sample, candidates, rescale)
                if kind == "ok":
                    skipped.update(reason.split(":")[0] for _, reason in json.loads(detail)["skipped"])
                else:
                    errors.add((kind, detail.split(":")[0]))
    assert skipped == {
        "exponential needs a positive sample mean",
        "chi-squared needs a positive sample mean",
        "values not strictly inside (0, 1)",
        "method-of-moments beta parameters are nonpositive",
        "gammainc_p",
    }
    assert {kind for kind, _ in errors} == {DomainError, NumericalError}
    assert {detail for _, detail in errors} >= {
        "exponential needs a positive sample mean",
        "chi-squared needs a positive sample mean",
        "method-of-moments beta parameters are nonpositive",
        "gammainc_p",
        "no candidate family is applicable to this sample",
    }


INVALID = [
    ("too-small", np.arange(10.0), None),
    ("too-small-after-nan", np.r_[np.arange(19.0), np.nan], None),
    ("constant", np.full(50, 3.0), None),
    ("constant-and-unknown", np.full(50, 3.0), ["weibull"]),
    ("too-small-and-unknown", np.arange(10.0), ["weibull"]),
    ("unknown", np.arange(30.0), ["normal", "weibull", "gamma"]),
    ("categorical", DataColumn.categorical("label", ["a"] * 30), None),
    ("beta-outside-before-exponential", -np.arange(1.0, 31.0), ["exponential", "beta"]),
]


@pytest.mark.parametrize("case", INVALID, ids=[c[0] for c in INVALID])
def test_invalid_input_matches_reference(case):
    _, sample, candidates = case
    got = _outcome(fit_distributions, sample, candidates, False)
    assert got[0] != "ok"
    assert got == _outcome(ref_fit_distributions, sample, candidates, False)
