"""run_hypothesis_test, tukey_hsd and dunn_bonferroni against their earlier
nested-branch implementations, kept below verbatim as references.

Every case of the grid must give the same report, byte for byte once
serialized, and every invalid input the same exception type and message.
"""

import json
import math

import numpy as np
import pytest

from simfarm.analysis import hypothesis as hyp
from simfarm.analysis.distributions import norm_sf, studentized_range_sf
from simfarm.analysis.hypothesis import (
    PathStep,
    PostHocEntry,
    anova_oneway,
    brown_forsythe,
    kruskal_wallis,
    mann_whitney_u,
    paired_t_test,
    run_hypothesis_test,
    student_t_test,
    welch_anova,
    welch_t_test,
    wilcoxon_signed_rank,
)
from simfarm.analysis.normality import SW_MAX_N, dagostino_k2, shapiro_wilk
from simfarm.analysis.ranks import midranks, tie_term
from simfarm.errors import InvalidArgumentError
from simfarm.rng import substream
from simfarm.tables import DataColumn

# -- the reference implementations ----------------------------------------------


def ref_tukey_hsd(groups, names, alpha: float) -> list[PostHocEntry]:
    """Tukey-Kramer pairwise comparisons against the studentized range."""
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    k = len(groups)
    n = sum(len(g) for g in groups)
    dfw = n - k
    msw = sum(((g - g.mean()) ** 2).sum() for g in groups) / dfw
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            se = math.sqrt(msw / 2.0 * (1.0 / len(groups[i]) + 1.0 / len(groups[j])))
            q = abs(groups[i].mean() - groups[j].mean()) / se if se > 0 else 0.0
            p = studentized_range_sf(q, k, dfw) if se > 0 else 1.0
            out.append(
                PostHocEntry(
                    pair=(names[i], names[j]),
                    statistic=float(q),
                    p_adjusted=float(p),
                    reject=p < alpha,
                )
            )
    return out


def ref_dunn_bonferroni(groups, names, alpha: float) -> list[PostHocEntry]:
    """Dunn's rank-based pairwise z tests with Bonferroni adjustment."""
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    k = len(groups)
    pooled = np.concatenate(groups)
    n = len(pooled)
    ranks = midranks(pooled)
    mean_ranks = []
    offset = 0
    for g in groups:
        mean_ranks.append(float(ranks[offset : offset + len(g)].mean()))
        offset += len(g)
    tie_adj = tie_term(pooled) / (12.0 * (n - 1.0))
    base_var = n * (n + 1.0) / 12.0 - tie_adj
    m = k * (k - 1) // 2
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            se = math.sqrt(base_var * (1.0 / len(groups[i]) + 1.0 / len(groups[j])))
            z = (mean_ranks[i] - mean_ranks[j]) / se if se > 0 else 0.0
            p = min(1.0, 2.0 * norm_sf(abs(z)) * m)
            out.append(
                PostHocEntry(
                    pair=(names[i], names[j]),
                    statistic=float(z),
                    p_adjusted=float(p),
                    reject=p < alpha,
                )
            )
    return out


def _ref_coerce_groups(groups) -> tuple[list[np.ndarray], list[str]]:
    arrays: list[np.ndarray] = []
    names: list[str] = []
    for i, g in enumerate(groups):
        if isinstance(g, DataColumn):
            if g.kind != "numeric":
                raise InvalidArgumentError(f"group {g.name!r} is not numeric")
            arrays.append(g.non_missing())
            names.append(g.name)
        else:
            arr = np.asarray(g, dtype=np.float64)
            arrays.append(arr[~np.isnan(arr)])
            names.append(f"group{i + 1}")
    return arrays, names


def _ref_normality_step(x: np.ndarray, label: str, alpha: float, path: list[PathStep]) -> bool:
    if len(x) <= SW_MAX_N:
        check = f"shapiro_wilk[{label}]"
        stat, p = shapiro_wilk(x)
    else:
        check = f"dagostino_k2[{label}]"
        stat, p = dagostino_k2(x)
    ok = p >= alpha
    path.append(PathStep(check, stat, p, "pass" if ok else "fail"))
    return ok


def ref_run_hypothesis_test(groups, paired: bool = False, alpha: float = 0.05) -> hyp.TestReport:
    if not (0.0 < alpha < 1.0):
        raise InvalidArgumentError(f"alpha must be in (0, 1), got {alpha}")
    arrays, names = _ref_coerce_groups(groups)
    if len(arrays) < 2:
        raise InvalidArgumentError("need at least 2 groups")
    if paired and len(arrays) != 2:
        raise InvalidArgumentError(
            "paired comparisons are supported for exactly 2 groups"
        )
    if paired:
        a_raw = np.asarray(groups[0].values if isinstance(groups[0], DataColumn) else groups[0], dtype=np.float64)
        b_raw = np.asarray(groups[1].values if isinstance(groups[1], DataColumn) else groups[1], dtype=np.float64)
        if len(a_raw) != len(b_raw):
            raise InvalidArgumentError("paired groups must have equal lengths")
        keep = ~(np.isnan(a_raw) | np.isnan(b_raw))
        arrays = [a_raw[keep], b_raw[keep]]
    for name, arr in zip(names, arrays):
        if len(arr) < 3:
            raise InvalidArgumentError(f"group {name!r} has fewer than 3 observations")

    path: list[PathStep] = []
    k = len(arrays)

    # degenerate-scale screen: zero-variance groups sink the parametric branch
    degenerate = [name for name, a in zip(names, arrays) if np.all(a == a[0])]
    if degenerate and not paired:
        path.append(
            PathStep(
                "variance_degeneracy",
                float(len(degenerate)),
                None,
                f"zero-variance group(s) {degenerate} -> nonparametric branch",
            )
        )
        parametric = False
    elif paired:
        d = arrays[0] - arrays[1]
        if np.all(d == d[0]):
            path.append(
                PathStep(
                    "variance_degeneracy",
                    0.0,
                    None,
                    "constant paired differences -> nonparametric branch",
                )
            )
            parametric = False
        else:
            parametric = _ref_normality_step(d, "differences", alpha, path)
    else:
        parametric = True
        for name, arr in zip(names, arrays):
            if not _ref_normality_step(arr, name, alpha, path):
                parametric = False

    post_hoc: list[PostHocEntry] | None = None

    if k == 2:
        if paired:
            if parametric:
                stat, p = paired_t_test(arrays[0], arrays[1])
                test_name = "paired_t"
            else:
                stat, p, n_used = wilcoxon_signed_rank(arrays[0], arrays[1])
                test_name = "wilcoxon_signed_rank"
                if n_used == 0:
                    path.append(
                        PathStep("wilcoxon_zero_differences", 0.0, None,
                                 "all paired differences are zero")
                    )
        elif parametric:
            bf_stat, bf_p = brown_forsythe(arrays)
            homogeneous = bf_p >= alpha
            path.append(
                PathStep("brown_forsythe", bf_stat, bf_p,
                         "homogeneous" if homogeneous else "heterogeneous")
            )
            if homogeneous:
                stat, p = student_t_test(arrays[0], arrays[1])
                test_name = "student_t"
            else:
                stat, p, _ = welch_t_test(arrays[0], arrays[1])
                test_name = "welch_t"
        else:
            stat, p = mann_whitney_u(arrays[0], arrays[1])
            test_name = "mann_whitney_u"
    else:
        if parametric:
            bf_stat, bf_p = brown_forsythe(arrays)
            homogeneous = bf_p >= alpha
            path.append(
                PathStep("brown_forsythe", bf_stat, bf_p,
                         "homogeneous" if homogeneous else "heterogeneous")
            )
            if homogeneous:
                stat, p, _, _ = anova_oneway(arrays)
                test_name = "anova_oneway"
            else:
                stat, p, _, _ = welch_anova(arrays)
                test_name = "welch_anova"
            if p < alpha:
                post_hoc = ref_tukey_hsd(arrays, names, alpha)
        else:
            stat, p = kruskal_wallis(arrays)
            test_name = "kruskal_wallis"
            if p < alpha:
                post_hoc = ref_dunn_bonferroni(arrays, names, alpha)

    decision = "reject" if p < alpha else "fail_to_reject"
    path.append(PathStep(test_name, stat, p, decision))
    return hyp.TestReport(
        test_name=test_name,
        statistic=float(stat),
        p_value=float(p),
        alpha=alpha,
        decision=decision,
        decision_path=path,
        post_hoc=post_hoc,
    )


# -- the grid ---------------------------------------------------------------------


def _draw(kind: str, g, n: int, loc: float, scale: float) -> np.ndarray:
    if kind == "normal":
        return g.normal(loc, scale, n)
    if kind == "heavy":
        return loc + scale * g.standard_cauchy(n)
    return g.uniform(loc - scale, loc + scale, n)


def _unpaired_cases():
    for kind in ("normal", "heavy", "uniform"):
        for k in (2, 3, 4):
            for spread in ("equal", "unequal"):
                for shift in (0.0, 0.6):
                    g = substream(100 + k, ("normal", "heavy", "uniform").index(kind))
                    scales = [1.0 + (3.0 * i if spread == "unequal" else 0.0) for i in range(k)]
                    groups = [_draw(kind, g, 40 + 7 * i, shift * i, s) for i, s in enumerate(scales)]
                    yield f"{kind}-k{k}-{spread}-shift{shift}", groups, False


def _paired_cases():
    for kind in ("normal", "heavy", "uniform"):
        for shift in (0.0, 0.4):
            g = substream(200, ("normal", "heavy", "uniform").index(kind))
            a = g.normal(0.0, 1.0, 50)
            yield f"paired-{kind}-shift{shift}", [a, a + _draw(kind, g, 50, shift, 0.5)], True
    a = substream(201, 0).integers(-50, 50, 30).astype(float)
    yield "paired-constant-differences", [a, a - 2.0], True
    yield "paired-all-zero-differences", [a, a.copy()], True
    b = a + substream(201, 1).normal(0.3, 1.0, 30)
    a_nan, b_nan = a.copy(), b.copy()
    a_nan[[1, 5]] = np.nan
    b_nan[[5, 9, 11]] = np.nan
    yield "paired-nan-pairwise", [a_nan, b_nan], True
    yield "paired-nan-columns", [DataColumn.numeric("before", a_nan), DataColumn.numeric("after", b_nan)], True


def _special_cases():
    g = substream(300, 0)
    yield "zero-variance-k2", [np.full(12, 3.0), g.normal(0, 1, 12)], False
    yield "zero-variance-k3", [g.normal(0, 1, 20), np.full(20, 5.0), g.normal(1, 1, 20)], False
    yield "zero-variance-all", [np.full(8, 1.0), np.full(8, 2.0), np.full(8, 1.0)], False
    yield "large-k2-normal", [g.normal(0, 1, 6000), g.normal(0.05, 1, 5200)], False
    yield "large-k3-heavy", [g.standard_cauchy(5001), g.standard_cauchy(5100), 1 + g.standard_cauchy(6000)], False
    yield "large-paired", [a := g.normal(0, 1, 5500), a + g.normal(0.01, 0.2, 5500)], True
    x, y, z = g.normal(0, 1, 30), g.normal(0.8, 1, 35), g.normal(1.6, 1, 40)
    x[[0, 7]] = np.nan
    z[3] = np.nan
    yield "nan-arrays-k3", [x, y, z], False
    yield "nan-columns-k3", [DataColumn.numeric(n, v) for n, v in zip("xyz", (x, y, z))], False
    yield "columns-mixed-with-arrays", [DataColumn.numeric("left", y), z], False
    yield "ties-k3", [g.integers(0, 4, 30).astype(float) + i for i in range(3)], False
    yield "lists", [list(g.normal(0, 1, 15)), list(g.normal(3, 1, 15))], False


CASES = [*_unpaired_cases(), *_paired_cases(), *_special_cases()]
ALPHAS = (0.01, 0.05, 0.2)


def _dump(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_report_matches_reference(case, alpha):
    _, groups, paired = case
    assert _dump(run_hypothesis_test(groups, paired=paired, alpha=alpha)) == _dump(
        ref_run_hypothesis_test(groups, paired=paired, alpha=alpha)
    )


def test_grid_reaches_every_branch():
    tests, post_hoc, steps = set(), set(), set()
    for _, groups, paired in CASES:
        for alpha in ALPHAS:
            report = ref_run_hypothesis_test(groups, paired=paired, alpha=alpha)
            tests.add(report.test_name)
            steps.update(s.check.split("[")[0] for s in report.decision_path)
            if report.post_hoc is not None:
                post_hoc.add(report.test_name)
    assert tests == {
        "paired_t", "wilcoxon_signed_rank", "mann_whitney_u", "student_t",
        "welch_t", "kruskal_wallis", "anova_oneway", "welch_anova",
    }
    assert post_hoc == {"kruskal_wallis", "anova_oneway", "welch_anova"}
    assert {"variance_degeneracy", "wilcoxon_zero_differences", "brown_forsythe",
            "shapiro_wilk", "dagostino_k2"} <= steps


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_post_hoc_helpers_match_reference(seed, alpha):
    g = substream(400 + seed, 0)
    k = 2 + seed % 4
    groups = [g.normal(0.3 * i, 1.0 + i % 2, 20 + 3 * i) for i in range(k)]
    if seed == 5:
        groups = [np.full(10, 1.0)] * k  # se == 0 for every pair
    names = [f"g{i}" for i in range(k)]
    for fn, ref in ((hyp.tukey_hsd, ref_tukey_hsd), (hyp.dunn_bonferroni, ref_dunn_bonferroni)):
        got, want = fn(groups, names, alpha), ref(groups, names, alpha)
        assert [e.to_dict() for e in got] == [e.to_dict() for e in want]
        assert [type(e.reject) for e in got] == [type(e.reject) for e in want]


def _invalid_inputs():
    ok = np.arange(10.0)
    cat = DataColumn.categorical("label", ["a", "b", "c"])
    tiny = np.array([1.0, 2.0])
    yield "alpha-zero", [ok, ok], False, 0.0
    yield "alpha-one", [ok, ok], False, 1.0
    yield "alpha-nan", [ok, ok], False, math.nan
    yield "alpha-and-one-group", [ok], False, 1.5
    yield "non-numeric", [ok, cat], False, 0.05
    yield "non-numeric-and-one-group", [cat], False, 0.05
    yield "non-numeric-after-tiny", [tiny, cat], False, 0.05
    yield "strings", [ok, ["a", "b", "c"]], False, 0.05
    yield "no-groups", [], False, 0.05
    yield "one-group", [ok], False, 0.05
    yield "one-group-paired", [ok], True, 0.05
    yield "paired-three-groups", [ok, ok, ok], True, 0.05
    yield "paired-three-groups-unequal", [ok, ok[:5], ok[:4]], True, 0.05
    yield "paired-three-groups-non-numeric", [ok, ok, cat], True, 0.05
    yield "paired-unequal", [ok, ok[:6]], True, 0.05
    yield "paired-unequal-tiny", [tiny, ok], True, 0.05
    yield "tiny", [ok, tiny], False, 0.05
    yield "tiny-first-of-two", [tiny, tiny], False, 0.05
    yield "tiny-after-nan", [ok, np.array([1.0, np.nan, 2.0, np.nan])], False, 0.05
    yield "tiny-after-pairwise-nan", [np.array([1.0, np.nan, 2.0, 3.0]), np.array([4.0, 5.0, np.nan, 6.0])], True, 0.05
    yield "tiny-column", [DataColumn.numeric("short", [1.0, 2.0]), ok], False, 0.05


INVALID = list(_invalid_inputs())


@pytest.mark.parametrize("case", INVALID, ids=[c[0] for c in INVALID])
def test_invalid_input_matches_reference(case):
    _, groups, paired, alpha = case
    with pytest.raises(Exception) as want:
        ref_run_hypothesis_test(groups, paired=paired, alpha=alpha)
    with pytest.raises(Exception) as got:
        run_hypothesis_test(groups, paired=paired, alpha=alpha)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

