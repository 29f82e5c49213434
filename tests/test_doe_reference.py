"""lhs_design and validate_design against their earlier four-branch
implementations, kept below verbatim as references.

The one stratum draw must give every column bit for bit and with the same
dtype, and validate_design must report the same violations, message for
message, as the per-cell loops it replaced.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from simfarm.doe import (
    Boolean,
    Categorical,
    Continuous,
    FactorSpec,
    Integer,
    lhs_design,
    validate_design,
)
from simfarm.rng import substream
from simfarm.tables import CSV_BLOCK_ROWS

# -- the reference implementations ----------------------------------------------


def ref_lhs_columns(factors, n: int, seed: int) -> dict[str, np.ndarray]:
    """The columns the four-branch lhs_design drew, before Design cast them."""
    columns: dict[str, np.ndarray] = {}
    for j, f in enumerate(factors):
        g = substream(seed, j)
        k = f.kind
        if isinstance(k, Continuous):
            strata = g.permutation(n)
            offsets = g.random(n)
            columns[f.name] = k.lo + (strata + offsets) * (k.hi - k.lo) / n
        elif isinstance(k, Integer):
            strata = g.permutation(n)
            offsets = g.random(n)
            vals = np.floor(k.lo + (strata + offsets) * (k.hi + 1 - k.lo) / n)
            columns[f.name] = np.clip(vals, k.lo, k.hi).astype(np.int64)
        elif isinstance(k, Categorical):
            reps = math.ceil(n / len(k.levels))
            tiled = np.array(list(k.levels) * reps, dtype=object)[:n]
            columns[f.name] = tiled[g.permutation(n)]
        else:  # Boolean
            reps = math.ceil(n / 2)
            tiled = np.array([False, True] * reps, dtype=np.bool_)[:n]
            columns[f.name] = tiled[g.permutation(n)]
    return columns


def ref_violations(design) -> list[tuple[int, str, str]]:
    """validate_design as per-cell loops over the integer, categorical and boolean columns."""
    violations: list[tuple[int, str, str]] = []
    for f in design.factors:
        col = design.columns[f.name]
        k = f.kind
        if isinstance(k, Continuous):
            bad = np.nonzero(~((col >= k.lo) & (col <= k.hi)))[0]
            for i in bad:
                violations.append((int(i), f.name, f"value {col[i]!r} outside [{k.lo}, {k.hi}]"))
        elif isinstance(k, Integer):
            for i, v in enumerate(col):
                if float(v) != int(v) or not (k.lo <= int(v) <= k.hi):
                    violations.append((i, f.name, f"value {v!r} outside integer [{k.lo}, {k.hi}]"))
        elif isinstance(k, Categorical):
            for i, v in enumerate(col):
                if v not in k.levels:
                    violations.append((i, f.name, f"unknown level {v!r}"))
        else:
            for i, v in enumerate(col):
                if not isinstance(v, (bool, np.bool_)):
                    violations.append((i, f.name, f"value {v!r} is not boolean"))
    violations.sort()
    return violations


# -- drawn factor sets ----------------------------------------------------------

finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False)


@st.composite
def continuous(draw):
    lo, hi = sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
    return Continuous(lo, hi)


@st.composite
def integer(draw):
    limit = 2**53
    lo = draw(st.one_of(st.integers(-10, 10), st.integers(-limit, limit - 1)))
    span = draw(st.one_of(st.integers(1, 12), st.integers(1, 2 * limit)))
    return Integer(lo, min(lo + span, limit))


levels = st.lists(st.text(max_size=3), min_size=1, max_size=5, unique=True)
kinds = st.one_of(
    continuous(),
    integer(),
    levels.map(lambda lv: Categorical(tuple(lv))),
    st.just(Boolean()),
)
sizes = st.one_of(
    st.just(1), st.integers(1, 40), st.integers(CSV_BLOCK_ROWS + 1, CSV_BLOCK_ROWS + 40)
)


@given(
    st.lists(kinds, min_size=1, max_size=6),
    sizes,
    st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=120, deadline=None)
def test_one_stratum_draw_matches_four_branches(kind_list, n, seed):
    factors = [FactorSpec(f"f{j}", k) for j, k in enumerate(kind_list)]
    design = lhs_design(factors, n, seed)
    want = ref_lhs_columns(factors, n, seed)
    for f in factors:
        got, ref = design.column(f.name), want[f.name]
        assert got.dtype == ref.dtype, f
        if ref.dtype == object:
            assert got.tolist() == ref.tolist(), f
        else:
            assert got.tobytes() == ref.tobytes(), f


def test_edges_of_the_integer_range_match_four_branches():
    factors = [
        FactorSpec("wide", Integer(-(2**53), 2**53)),
        FactorSpec("top", Integer(2**53 - 3, 2**53)),
        FactorSpec("bottom", Integer(-(2**53), -(2**53) + 1)),
        FactorSpec("one", Categorical(("only",))),
    ]
    for n in (1, 2, CSV_BLOCK_ROWS + 1):
        design = lhs_design(factors, n, seed=2**63 + 9)
        want = ref_lhs_columns(factors, n, seed=2**63 + 9)
        for f in factors:
            assert design.column(f.name).tolist() == want[f.name].tolist()
        assert validate_design(design).ok


def test_many_violations_across_all_four_kinds_match_per_cell_loops():
    factors = [
        FactorSpec("x", Continuous(-1.0, 2.5)),
        FactorSpec("count", Integer(-3, 40)),
        FactorSpec("mode", Categorical(("A", "b,c", ""))),
        FactorSpec("flag", Boolean()),
    ]
    design = lhs_design(factors, 300, seed=4)
    g = np.random.default_rng(5)
    x, count, mode = (design.column(name) for name in ("x", "count", "mode"))
    x[g.choice(300, 40, replace=False)] = [np.nan, np.inf, -np.inf, 2.5000001, -1.5] * 8
    count[g.choice(300, 40, replace=False)] = [-4, 41, 2**62, -(2**63), 10**6] * 8
    mode[g.choice(300, 40, replace=False)] = ["a", "D", " ", None, 7, "b", "c", "A "] * 5
    x[17] = count[17] = 99
    mode[17] = "Z"  # one row bad in three columns: the sort runs over the factor names
    report = validate_design(design)
    want = ref_violations(design)
    assert len(want) > 100 and {name for _, name, _ in want} == {"x", "count", "mode"}
    assert report.violations == want
    assert not report.ok
