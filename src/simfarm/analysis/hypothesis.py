"""Automatic hypothesis-test selection with a full decision trace.

The flow: per-group normality (Shapiro-Wilk up to n = 5000, D'Agostino K^2
beyond) at the caller's alpha; all groups normal selects the parametric
branch, where Brown-Forsythe (median-centered Levene) picks between the
pooled- and separate-variance tests.  Two groups get Student/Welch t (or
paired t / Wilcoxon signed-rank when paired); three or more get one-way or
Welch ANOVA, or Kruskal-Wallis on the nonparametric branch.  When an omnibus
test over >= 3 groups rejects, Tukey HSD (parametric) or Dunn-Bonferroni
(nonparametric) pairwise comparisons are attached.  Every pre-check lands in
``decision_path``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateSampleError, InvalidArgumentError
from ..tables import DataColumn
from .distributions import (
    chi2_sf,
    f_sf,
    norm_sf,
    studentized_range_sf,
    t_sf,
)
from .normality import SW_MAX_N, dagostino_k2, shapiro_wilk
from .ranks import midranks, tie_term

__all__ = [
    "PathStep",
    "PostHocEntry",
    "TestReport",
    "run_hypothesis_test",
    "student_t_test",
    "welch_t_test",
    "paired_t_test",
    "mann_whitney_u",
    "wilcoxon_signed_rank",
    "anova_oneway",
    "welch_anova",
    "kruskal_wallis",
    "brown_forsythe",
    "tukey_hsd",
    "dunn_bonferroni",
]


@dataclass
class PathStep:
    check: str
    statistic: float | None
    p_value: float | None
    outcome: str

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "outcome": self.outcome,
        }


@dataclass
class PostHocEntry:
    pair: tuple[str, str]
    statistic: float
    p_adjusted: float
    reject: bool

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "statistic": self.statistic,
            "p_adjusted": self.p_adjusted,
            "reject": self.reject,
        }


@dataclass
class TestReport:
    test_name: str
    statistic: float
    p_value: float
    alpha: float
    decision: str
    decision_path: list[PathStep] = field(default_factory=list)
    post_hoc: list[PostHocEntry] | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "test_name": self.test_name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "decision": self.decision,
            "decision_path": [s.to_dict() for s in self.decision_path],
            "post_hoc": None if self.post_hoc is None else [e.to_dict() for e in self.post_hoc],
        }


# -- individual tests ----------------------------------------------------------


def student_t_test(a, b) -> tuple[float, float]:
    """Two-sample t with pooled variance; returns (t, two-sided p)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = len(a), len(b)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    df = na + nb - 2
    pooled = ((na - 1) * va + (nb - 1) * vb) / df
    se = math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    if se == 0.0:
        return 0.0, 1.0
    t = (a.mean() - b.mean()) / se
    return float(t), float(2.0 * t_sf(abs(t), df))


def welch_t_test(a, b) -> tuple[float, float, float]:
    """Welch's t; returns (t, two-sided p, Welch-Satterthwaite df)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = len(a), len(b)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / na + vb / nb
    if se2 == 0.0:
        return 0.0, 1.0, float(na + nb - 2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    return float(t), float(2.0 * t_sf(abs(t), df)), float(df)


def paired_t_test(a, b) -> tuple[float, float]:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise InvalidArgumentError("paired test requires equal lengths")
    d = a - b
    n = len(d)
    sd = d.std(ddof=1)
    if sd == 0.0:
        return 0.0, 1.0
    t = d.mean() / (sd / math.sqrt(n))
    return float(t), float(2.0 * t_sf(abs(t), n - 1))


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Mann-Whitney U (normal approximation, midranks, tie-corrected variance,
    continuity correction); returns (U of the first sample, two-sided p)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = len(a), len(b)
    pooled = np.concatenate([a, b])
    ranks = midranks(pooled)
    r1 = float(np.sum(ranks[:n1]))
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    ties = tie_term(pooled)
    var = n1 * n2 / 12.0 * ((n + 1.0) - ties / (n * (n - 1.0)))
    if var <= 0.0:
        return float(u1), 1.0
    z = (u1 - mu - math.copysign(0.5, u1 - mu)) / math.sqrt(var) if u1 != mu else 0.0
    return float(u1), float(min(1.0, 2.0 * norm_sf(abs(z))))


def wilcoxon_signed_rank(a, b) -> tuple[float, float, int]:
    """Wilcoxon signed-rank (zero differences dropped, normal approximation
    with tie-corrected variance); returns (W+, two-sided p, n used)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) != len(b):
        raise InvalidArgumentError("paired test requires equal lengths")
    d = a - b
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return 0.0, 1.0, 0
    ranks = midranks(np.abs(d))
    w_plus = float(np.sum(ranks[d > 0]))
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term(np.abs(d)) / 48.0
    if var <= 0.0:
        return w_plus, 1.0, n
    z = (w_plus - mu) / math.sqrt(var)
    return w_plus, float(min(1.0, 2.0 * norm_sf(abs(z)))), n


def anova_oneway(groups) -> tuple[float, float, float, float]:
    """One-way ANOVA; returns (F, p, df_between, df_within)."""
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    k = len(groups)
    ns = np.array([len(g) for g in groups], dtype=np.float64)
    n = float(ns.sum())
    grand = float(np.concatenate(groups).mean())
    ssb = float(sum(len(g) * (g.mean() - grand) ** 2 for g in groups))
    ssw = float(sum(((g - g.mean()) ** 2).sum() for g in groups))
    df1, df2 = k - 1.0, n - k
    if ssw == 0.0:
        return math.inf if ssb > 0 else 0.0, 0.0 if ssb > 0 else 1.0, df1, df2
    f = (ssb / df1) / (ssw / df2)
    return float(f), float(f_sf(f, df1, df2)), df1, df2


def welch_anova(groups) -> tuple[float, float, float, float]:
    """Welch's heteroscedastic one-way ANOVA; returns (F, p, df1, df2)."""
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    k = len(groups)
    ns = np.array([len(g) for g in groups], dtype=np.float64)
    means = np.array([g.mean() for g in groups])
    variances = np.array([g.var(ddof=1) for g in groups])
    if np.any(variances == 0.0):
        raise DegenerateSampleError("Welch ANOVA requires positive within-group variance")
    w = ns / variances
    w_sum = float(w.sum())
    mean_w = float((w * means).sum() / w_sum)
    a = float((w * (means - mean_w) ** 2).sum() / (k - 1))
    lam = float((((1.0 - w / w_sum) ** 2) / (ns - 1.0)).sum())
    b = 1.0 + 2.0 * (k - 2.0) / (k**2 - 1.0) * lam
    f = a / b
    df1 = k - 1.0
    df2 = (k**2 - 1.0) / (3.0 * lam)
    return float(f), float(f_sf(f, df1, df2)), df1, df2


def kruskal_wallis(groups) -> tuple[float, float]:
    """Kruskal-Wallis H with midranks and tie correction; returns (H, p)."""
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    k = len(groups)
    pooled = np.concatenate(groups)
    n = len(pooled)
    ranks = midranks(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r = ranks[offset : offset + len(g)]
        h += float(r.sum()) ** 2 / len(g)
        offset += len(g)
    h = 12.0 / (n * (n + 1.0)) * h - 3.0 * (n + 1.0)
    correction = 1.0 - tie_term(pooled) / (n**3 - n)
    if correction <= 0.0:
        return 0.0, 1.0  # every observation tied
    h /= correction
    return float(h), float(chi2_sf(h, k - 1.0))


def brown_forsythe(groups) -> tuple[float, float]:
    """Brown-Forsythe variance-homogeneity test (Levene with median centers)."""
    z = [np.abs(np.asarray(g, dtype=np.float64) - np.median(g)) for g in groups]
    f, p, _, _ = anova_oneway(z)
    return f, p


def _post_hoc(names, alpha: float, compare) -> list[PostHocEntry]:
    """One entry per pair ``i < j`` in order, from ``compare(i, j) -> (statistic, p)``."""
    out = []
    for i, j in itertools.combinations(range(len(names)), 2):
        stat, p = compare(i, j)
        out.append(PostHocEntry((names[i], names[j]), float(stat), float(p), p < alpha))
    return out


def tukey_hsd(groups, names, alpha: float) -> list[PostHocEntry]:
    """Tukey-Kramer pairwise comparisons against the studentized range."""
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    k = len(groups)
    dfw = sum(len(g) for g in groups) - k
    msw = sum(((g - g.mean()) ** 2).sum() for g in groups) / dfw

    def compare(i: int, j: int) -> tuple[float, float]:
        se = math.sqrt(msw / 2.0 * (1.0 / len(groups[i]) + 1.0 / len(groups[j])))
        if se > 0:
            q = abs(groups[i].mean() - groups[j].mean()) / se
            return q, studentized_range_sf(q, k, dfw)
        return 0.0, 1.0

    return _post_hoc(names, alpha, compare)


def dunn_bonferroni(groups, names, alpha: float) -> list[PostHocEntry]:
    """Dunn's rank-based pairwise z tests with Bonferroni adjustment."""
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    k = len(groups)
    pooled = np.concatenate(groups)
    n = len(pooled)
    ranks = midranks(pooled)
    bounds = np.cumsum([0] + [len(g) for g in groups])
    mean_ranks = [float(ranks[lo:hi].mean()) for lo, hi in zip(bounds, bounds[1:])]
    base_var = n * (n + 1.0) / 12.0 - tie_term(pooled) / (12.0 * (n - 1.0))
    m = k * (k - 1) // 2

    def compare(i: int, j: int) -> tuple[float, float]:
        se = math.sqrt(base_var * (1.0 / len(groups[i]) + 1.0 / len(groups[j])))
        z = (mean_ranks[i] - mean_ranks[j]) / se if se > 0 else 0.0
        return z, min(1.0, 2.0 * norm_sf(abs(z)) * m)

    return _post_hoc(names, alpha, compare)


# -- the selection flow ---------------------------------------------------------


def _coerce_groups(groups, paired: bool) -> tuple[list[np.ndarray], list[str]]:
    """Each group as a float array without missing values, and its name.

    Paired data drop a pair when either side is missing.  Input errors are
    reported in this order: a non-numeric group, fewer than 2 groups, paired
    data with other than 2 groups, paired groups of unequal length.
    """
    arrays: list[np.ndarray] = []
    names: list[str] = []
    for i, g in enumerate(groups):
        if isinstance(g, DataColumn):
            if g.kind != "numeric":
                raise InvalidArgumentError(f"group {g.name!r} is not numeric")
            arrays.append(g.values)
            names.append(g.name)
        else:
            arrays.append(np.asarray(g, dtype=np.float64))
            names.append(f"group{i + 1}")
    if len(arrays) < 2:
        raise InvalidArgumentError("need at least 2 groups")
    if not paired:
        return [a[~np.isnan(a)] for a in arrays], names
    if len(arrays) != 2:
        raise InvalidArgumentError("paired comparisons are supported for exactly 2 groups")
    if len(arrays[0]) != len(arrays[1]):
        raise InvalidArgumentError("paired groups must have equal lengths")
    keep = ~(np.isnan(arrays[0]) | np.isnan(arrays[1]))
    return [a[keep] for a in arrays], names


def _normality_step(x: np.ndarray, label: str, alpha: float, path: list[PathStep]) -> bool:
    if len(x) <= SW_MAX_N:
        check = f"shapiro_wilk[{label}]"
        stat, p = shapiro_wilk(x)
    else:
        check = f"dagostino_k2[{label}]"
        stat, p = dagostino_k2(x)
    ok = p >= alpha
    path.append(PathStep(check, stat, p, "pass" if ok else "fail"))
    return ok


def run_hypothesis_test(groups, paired: bool = False, alpha: float = 0.05) -> TestReport:
    """Select and run an appropriate location test over ``groups``.

    ``groups`` is a list of numeric DataColumns or arrays (missing values are
    dropped; for paired data, pairs with a missing side are dropped).
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidArgumentError(f"alpha must be in (0, 1), got {alpha}")
    arrays, names = _coerce_groups(groups, paired)
    for name, arr in zip(names, arrays):
        if len(arr) < 3:
            raise InvalidArgumentError(f"group {name!r} has fewer than 3 observations")

    path: list[PathStep] = []
    two = len(arrays) == 2
    # paired data are screened and tested for normality through their differences
    samples = [arrays[0] - arrays[1]] if paired else arrays
    labels = ["differences"] if paired else names

    # degenerate-scale screen: zero-variance samples sink the parametric branch
    constant = [label for label, x in zip(labels, samples) if np.all(x == x[0])]
    if constant:
        stat = 0.0 if paired else float(len(constant))
        what = "constant paired differences" if paired else f"zero-variance group(s) {constant}"
        path.append(PathStep("variance_degeneracy", stat, None, f"{what} -> nonparametric branch"))
        parametric = False
    else:
        # every sample is tested, so every step lands in the trace
        parametric = all([_normality_step(x, label, alpha, path) for x, label in zip(samples, labels)])

    if parametric and not paired:
        bf_stat, bf_p = brown_forsythe(arrays)
        homogeneous = bf_p >= alpha
        path.append(PathStep("brown_forsythe", bf_stat, bf_p,
                             "homogeneous" if homogeneous else "heterogeneous"))

    if paired and parametric:
        test_name, (stat, p) = "paired_t", paired_t_test(*arrays)
    elif paired:
        test_name, (stat, p, n_used) = "wilcoxon_signed_rank", wilcoxon_signed_rank(*arrays)
        if n_used == 0:
            path.append(PathStep("wilcoxon_zero_differences", 0.0, None,
                                 "all paired differences are zero"))
    elif two and not parametric:
        test_name, (stat, p) = "mann_whitney_u", mann_whitney_u(*arrays)
    elif two and homogeneous:
        test_name, (stat, p) = "student_t", student_t_test(*arrays)
    elif two:
        test_name, (stat, p, _) = "welch_t", welch_t_test(*arrays)
    elif not parametric:
        test_name, (stat, p) = "kruskal_wallis", kruskal_wallis(arrays)
    elif homogeneous:
        test_name, (stat, p, _, _) = "anova_oneway", anova_oneway(arrays)
    else:
        test_name, (stat, p, _, _) = "welch_anova", welch_anova(arrays)

    post_hoc = None
    if not two and p < alpha:
        post_hoc = (tukey_hsd if parametric else dunn_bonferroni)(arrays, names, alpha)
    decision = "reject" if p < alpha else "fail_to_reject"
    path.append(PathStep(test_name, stat, p, decision))
    return TestReport(
        test_name=test_name,
        statistic=float(stat),
        p_value=float(p),
        alpha=alpha,
        decision=decision,
        decision_path=path,
        post_hoc=post_hoc,
    )
