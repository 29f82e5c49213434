"""The array kernels of ``analysis.special`` and ``analysis.ranks`` against
one-value references.

The ``ref_*`` functions below are the scalar implementations that the array
kernels replaced, kept verbatim (iteration cap 500 included).  Each element
of an array result must carry the same bits as the reference on the same
arguments, so the tests compare ``.view(np.int64)`` (a NaN matches any NaN).
The only intended difference is documented in
``test_gamma_infinite_shape_is_nan``.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simfarm import simkit
from simfarm.analysis import eda, fitting, hypothesis
from simfarm.analysis.fitting import fit_distributions
from simfarm.analysis.ranks import midranks, tie_term
from simfarm.analysis.special import betainc, gammainc_p, gammainc_q, norm_ppf, norm_ppf_vec
from simfarm.doe import lhs_design
from simfarm.errors import NumericalError
from simfarm.execution import DesignChunk
from simfarm.tables import DataColumn, columns_from_table

# -- scalar references ---------------------------------------------------------

REF_MAX_ITER = 500
REF_EPS = 1e-16
REF_TINY = 1e-300


def ref_gamma_series(a, x):
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(REF_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * REF_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def ref_gamma_contfrac(a, x):
    b = x + 1.0 - a
    c = 1.0 / REF_TINY
    d = 1.0 / b
    h = d
    for i in range(1, REF_MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < REF_TINY:
            d = REF_TINY
        c = b + an / c
        if abs(c) < REF_TINY:
            c = REF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < REF_EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def ref_gammainc_p(a, x):
    if a <= 0.0 or x < 0.0:
        return math.nan
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return ref_gamma_series(a, x)
    return 1.0 - ref_gamma_contfrac(a, x)


def ref_gammainc_q(a, x):
    if a <= 0.0 or x < 0.0:
        return math.nan
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - ref_gamma_series(a, x)
    return ref_gamma_contfrac(a, x)


def ref_beta_contfrac(a, b, x):
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < REF_TINY:
        d = REF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, REF_MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < REF_TINY:
            d = REF_TINY
        c = 1.0 + aa / c
        if abs(c) < REF_TINY:
            c = REF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < REF_TINY:
            d = REF_TINY
        c = 1.0 + aa / c
        if abs(c) < REF_TINY:
            c = REF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < REF_EPS:
            break
    return h


def ref_betainc(a, b, x):
    if a <= 0.0 or b <= 0.0 or x < 0.0 or x > 1.0:
        return math.nan
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * ref_beta_contfrac(a, b, x) / a
    return 1.0 - front * ref_beta_contfrac(b, a, 1.0 - x) / b


def ref_norm_ppf(p):
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r
                    + 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r
                  + 1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r
                + 1.3314166789178437745e2) * r + 3.3871328727963666080e0)
        den = (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r
                    + 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r
                  + 5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r
                + 4.2313330701600911252e1) * r + 1.0)
        return q * num / den
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                    + 2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r
                  + 3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r
                + 4.63033784615654529590e0) * r + 1.42343711074968357734e0)
        den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                    + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                  + 6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r
                + 2.05319162663775882187e0) * r + 1.0)
    else:
        r -= 5.0
        num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                    + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                  + 2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r
                + 5.46378491116411436990e0) * r + 6.65790464350110377720e0)
        den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                    + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                  + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                + 5.99832206555887937690e-1) * r + 1.0)
    val = num / den
    return -val if q < 0.0 else val


def ref_midranks(x):
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def ref_tie_term(x):
    x = np.sort(np.asarray(x, dtype=np.float64))
    total = 0.0
    i = 0
    n = len(x)
    while i < n:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        t = j - i + 1
        if t > 1:
            total += t**3 - t
        i = j + 1
    return total


# -- helpers -------------------------------------------------------------------


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_bit_equal(got, want):
    """Same bits everywhere, except that any NaN matches any NaN: the sign and
    payload of a NaN depend on which operation produced it."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    same = (bits(got) == bits(want)) | (np.isnan(got) & np.isnan(want))
    bad = np.flatnonzero(~same.ravel())
    assert bad.size == 0, [(int(k), got.flat[k], want.flat[k]) for k in bad[:5]]


def check_gamma(a, x):
    a, x = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(x, dtype=np.float64))
    want_p = [ref_gammainc_p(av, xv) for av, xv in zip(a.ravel().tolist(), x.ravel().tolist())]
    want_q = [ref_gammainc_q(av, xv) for av, xv in zip(a.ravel().tolist(), x.ravel().tolist())]
    assert_bit_equal(gammainc_p(a, x), np.reshape(want_p, a.shape))
    assert_bit_equal(gammainc_q(a, x), np.reshape(want_q, a.shape))


def check_beta(a, b, x):
    a, b, x = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (a, b, x)))
    flat = zip(a.ravel().tolist(), b.ravel().tolist(), x.ravel().tolist())
    want = [ref_betainc(av, bv, xv) for av, bv, xv in flat]
    assert_bit_equal(betainc(a, b, x), np.reshape(want, a.shape))


GAMMA_A = [0.1, 0.5, 1.0, 2.5, 7.0, 20.0, 55.5, 120.0, 350.0, 1000.0]
GAMMA_X = [1e-6, 0.01, 0.3, 1.0, 3.0, 9.0, 30.0, 120.0, 800.0, 2000.0]
BETA_AB = [0.5, 1.0, 2.0, 5.0, 17.5, 50.0, 200.0]
BETA_X = [1e-5, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99999]
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, math.nan, math.inf, -math.inf]


# -- incomplete gamma ----------------------------------------------------------


class TestGammaKernel:
    def test_mpmath_grid(self):
        a, x = np.meshgrid(GAMMA_A, GAMMA_X, indexing="ij")
        check_gamma(a, x)

    def test_both_sides_of_series_switch(self):
        # x < a + 1 takes the series, the rest the continued fraction
        for a in (0.7, 10.0, 333.3):
            edge = a + 1.0
            x = np.concatenate([
                np.linspace(0.01, 3.0 * a + 5.0, 301),
                [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)],
            ])
            assert (x < edge).any() and (x >= edge).any()
            check_gamma(a, x)

    def test_broadcast_arguments(self):
        a = np.array([[0.5], [4.0], [90.0]])
        x = np.array([[0.2, 3.0, 60.0, 300.0]])
        assert gammainc_p(a, x).shape == (3, 4)
        check_gamma(a, x)

    def test_edge_values(self):
        a, x = np.meshgrid(EDGES, EDGES, indexing="ij")
        keep = ~((a == math.inf) & (x > 0.0) & (x < 1.0))
        got_p, got_q = gammainc_p(a, x), gammainc_q(a, x)
        pairs = list(zip(a[keep].tolist(), x[keep].tolist()))
        want_p = [ref_gammainc_p(av, xv) for av, xv in pairs]
        want_q = [ref_gammainc_q(av, xv) for av, xv in pairs]
        assert_bit_equal(got_p[keep], want_p)
        assert_bit_equal(got_q[keep], want_q)

    def test_gamma_infinite_shape_is_nan(self):
        # The one intended change: a = +inf with 0 < x < 1 used to return the
        # empty sum's 0 (1 for Q) after running into the iteration cap.
        assert ref_gammainc_p(math.inf, 0.5) == 0.0
        assert math.isnan(gammainc_p(math.inf, 0.5))
        assert math.isnan(gammainc_q(math.inf, 1e-300))

    def test_scalar_arguments_give_float(self):
        assert type(gammainc_p(2.0, 3.0)) is float
        assert type(gammainc_q(np.float64(2.0), 3)) is float
        assert gammainc_p(2.0, 3.0) == ref_gammainc_p(2.0, 3.0)

    def test_empty_input(self):
        assert gammainc_p(2.0, np.array([])).shape == (0,)

    @given(
        st.lists(
            st.tuples(st.floats(0.01, 500.0), st.floats(0.0, 1500.0)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_lanes(self, pairs):
        a, x = np.array(pairs).T
        check_gamma(a, x)

    @pytest.mark.parametrize("a", [5e3, 1e4, 1e5])
    def test_large_shape_against_oracle(self, a):
        mp.mp.dps = 50
        xs = [a, a - 3.0 * math.sqrt(a), a + 3.0 * math.sqrt(a)]
        got = gammainc_p(a, np.array(xs))
        for x, g in zip(xs, got):
            assert abs(g - float(mp.gammainc(a, 0, x, regularized=True))) < 1e-9

    def test_iteration_cap_raises(self):
        message = r"gammainc_p: .* = \(100000000\.0, 100000000\.0\)"
        with pytest.raises(NumericalError, match=message):
            gammainc_p(1e8, 1e8)
        with pytest.raises(NumericalError, match="gammainc_q"):
            gammainc_q(np.array([2.0, 1e8]), np.array([1.0, 1e8]))

    def test_cap_names_first_stuck_element_across_blocks(self):
        a = np.full(9000, 3.0)
        a[5000], a[8000] = 1e8, 2e8
        with pytest.raises(NumericalError, match=r"= \(100000000\.0, 100000000\.0\)"):
            gammainc_p(a, a.copy())

    def test_nonfinite_lanes_are_nan_without_raising(self):
        got = gammainc_p(np.array([math.nan, 2.0, 3.0, math.inf]),
                         np.array([1.0, math.inf, math.nan, 5.0]))
        assert np.isnan(got).all()


# -- incomplete beta -----------------------------------------------------------


class TestBetaKernel:
    def test_mpmath_grid(self):
        a, b, x = np.meshgrid(BETA_AB, BETA_AB, BETA_X, indexing="ij")
        check_beta(a, b, x)

    def test_both_sides_of_swap_point(self):
        # x < (a + 1) / (a + b + 2) evaluates the fraction directly, the rest
        # through I_x(a, b) = 1 - I_{1-x}(b, a)
        for a, b in ((2.0, 5.0), (0.6, 0.9), (40.0, 3.5)):
            edge = (a + 1.0) / (a + b + 2.0)
            x = np.concatenate([
                np.linspace(0.0, 1.0, 257),
                [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)],
            ])
            check_beta(a, b, x)

    def test_broadcast_arguments(self):
        a = np.array([0.5, 3.0]).reshape(2, 1, 1)
        b = np.array([1.0, 7.0, 120.0]).reshape(1, 3, 1)
        x = np.array([0.01, 0.3, 0.6, 0.97]).reshape(1, 1, 4)
        assert betainc(a, b, x).shape == (2, 3, 4)
        check_beta(a, b, x)

    def test_edge_values(self):
        a, b, x = np.meshgrid(EDGES, EDGES, EDGES + [0.3], indexing="ij")
        check_beta(a, b, x)

    def test_scalar_arguments_give_float(self):
        assert type(betainc(2.0, 3.0, 0.4)) is float

    @given(
        st.lists(
            st.tuples(st.floats(0.05, 300.0), st.floats(0.05, 300.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_lanes(self, triples):
        a, b, x = np.array(triples).T
        check_beta(a, b, x)

    def test_iteration_cap_raises(self):
        with pytest.raises(NumericalError, match="betainc"):
            betainc(np.array([2.0, 1e12]), 1e12, 0.5)

    def test_nonfinite_lanes_are_nan_without_raising(self):
        got = betainc(np.array([math.nan, 2.0, math.inf]), np.array([2.0, math.inf, 1.0]), 0.5)
        assert np.isnan(got).all()


# -- normal quantile -----------------------------------------------------------


class TestNormPpf:
    def test_region_boundaries(self):
        central = []
        for p in (0.075, 0.925):  # |p - 0.5| = 0.425
            central += [np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)]
        tail_switch = []  # r = sqrt(-log p) = 5
        for k in range(-30, 31):
            p = math.exp(-25.0) * (1.0 + k * 2e-15)
            tail_switch += [p, 1.0 - p]
        ps = np.array(
            [0.0, -0.0, 1.0, math.nan, -0.5, 1.5, math.inf, -math.inf, 0.5, 5e-324]
            + central + tail_switch
        )
        assert_bit_equal(norm_ppf_vec(ps), [ref_norm_ppf(p) for p in ps.tolist()])
        r = np.sqrt(-np.log(ps[-122::2]))
        assert (r <= 5.0).any() and (r > 5.0).any()

    def test_scalar_delegates(self):
        for p in (0.0, 1e-300, 0.3, 0.5, 0.9999, 1.0):
            assert bits(norm_ppf(p)) == bits(ref_norm_ppf(p))
            assert type(norm_ppf(p)) is float
        assert math.isnan(norm_ppf(math.nan))

    def test_keeps_shape(self):
        assert norm_ppf_vec(np.full((2, 3), 0.2)).shape == (2, 3)

    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-30)), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_random_grid(self, ps):
        ps = np.array(ps, dtype=np.float64)
        assert_bit_equal(norm_ppf_vec(ps), [ref_norm_ppf(p) for p in ps.tolist()])


# -- midranks and tie term -----------------------------------------------------

TIE_SAMPLES = [
    [],
    [4.0],
    [2.0, 2.0, 2.0],
    [3.0, 1.0, 3.0, math.nan, -0.0, 0.0, math.nan, 1.0, 1.0, math.inf, math.inf, -math.inf],
    [0.0, -0.0, 0.0, -0.0],
    [math.nan, math.nan],
    list(np.random.default_rng(3).integers(0, 40, 2000).astype(float)),
]


@pytest.mark.parametrize("sample", TIE_SAMPLES, ids=range(len(TIE_SAMPLES)))
def test_ranks_match_reference(sample):
    assert_bit_equal(midranks(sample), ref_midranks(sample))
    assert bits(tie_term(sample)) == bits(ref_tie_term(sample))
    assert type(tie_term(sample)) is float


@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 1.5, -2.0, 7.0, math.nan, math.inf, -math.inf])
        | st.floats(-5.0, 5.0),
        max_size=80,
    )
)
@settings(max_examples=200, deadline=None)
def test_ranks_random_ties(sample):
    assert_bit_equal(midranks(sample), ref_midranks(sample))
    assert bits(tie_term(sample)) == bits(ref_tie_term(sample))


# -- end to end on a 16k navsim table ------------------------------------------


@pytest.fixture(scope="module")
def navsim_columns():
    n, seed = 16_000, 7
    design = lhs_design(simkit.navigation_factors(), n, seed)
    chunk = DesignChunk(design=design, indices=np.arange(n, dtype=np.int64))
    params = simkit.calibrate(noise_sigma=0.05)
    table = simkit.simulate_navigation(chunk, params, seed=seed)
    factors = [DataColumn.numeric(f.name, design.column(f.name)) for f in design.factors]
    return columns_from_table(table) + factors


def _ref_cdf_chi2(x, df):
    return np.array([ref_gammainc_p(df / 2.0, v / 2.0) if v > 0 else 0.0 for v in x])


def _ref_cdf_beta(x, a, b):
    return np.array([ref_betainc(a, b, min(1.0, max(0.0, v))) for v in x])


def test_fit_report_identical_to_scalar_references(navsim_columns, monkeypatch):
    fuel = next(c for c in navsim_columns if c.name == "fuel_consumed")
    got = fit_distributions(fuel, rescale=True).to_dict()
    monkeypatch.setattr(fitting, "_cdf_chi2", _ref_cdf_chi2)
    monkeypatch.setattr(fitting, "_cdf_beta", _ref_cdf_beta)
    want = fit_distributions(fuel, rescale=True).to_dict()
    assert {f["family"] for f in got["fits"]} >= {"chi_squared", "beta"}
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_rank_reports_identical_to_scalar_references(navsim_columns, monkeypatch):
    groups = [c for c in navsim_columns if c.name in ("speed", "time_of_flight", "fuel_consumed")]
    got_test = hypothesis.mann_whitney_u(groups[0].values, groups[1].values)
    got_kw = hypothesis.kruskal_wallis([g.values for g in groups])
    got_eda = eda.eda_summary(navsim_columns).to_dict()
    monkeypatch.setattr(hypothesis, "midranks", ref_midranks)
    monkeypatch.setattr(hypothesis, "tie_term", ref_tie_term)
    monkeypatch.setattr(eda, "midranks", ref_midranks)
    want_test = hypothesis.mann_whitney_u(groups[0].values, groups[1].values)
    want_kw = hypothesis.kruskal_wallis([g.values for g in groups])
    want_eda = eda.eda_summary(navsim_columns).to_dict()
    assert bits(got_test).tolist() == bits(want_test).tolist()
    assert bits(got_kw).tolist() == bits(want_kw).tolist()
    assert json.dumps(got_eda, sort_keys=True) == json.dumps(want_eda, sort_keys=True)


# -- fitting with a kernel at its cap ------------------------------------------


def test_fit_skips_family_whose_cdf_hits_the_cap():
    sample = np.random.default_rng(5).normal(1e8, 1e4, 400)
    report = fit_distributions(sample)
    skipped = dict(report.skipped)
    assert "no convergence" in skipped["chi_squared"]
    assert "gammainc_p" in skipped["chi_squared"]
    assert "normal" in report.ranking and "chi_squared" not in report.ranking
    with pytest.raises(NumericalError):
        fit_distributions(sample, candidates=["normal", "chi_squared"])
