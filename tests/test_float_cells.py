"""The vectorised %.Ng kernel against ``"%.{P}g" % x``, cell by cell.

``format_g_cells`` spells fixed-notation normal doubles itself and hands every
other value to ``%``; these tests aim at both sides of that split: the whole
double range, the exact ties of round-half-even, and the values next to each
boundary of the fixed-notation range.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simfarm.tables import format_g_cells, join_cell_rows

PRECISIONS = (17, 6)
DBL_MAX = np.finfo(np.float64).max


def cells(x, precision: int) -> list[str]:
    """The kernel's cells, each row read on its own with its fill deleted."""
    rows = format_g_cells(np.asarray(x, dtype=np.float64), precision)
    return [row.tobytes().replace(b"\xff", b"").decode("ascii") for row in rows]


def joined(x, precision: int) -> list[str]:
    """The kernel's cells for many values, through the row joiner."""
    x = np.asarray(x, dtype=np.float64)
    text = join_cell_rows([format_g_cells(x, precision), b"\n"], len(x))
    return text.split("\n")[:-1]


def percent(x, precision: int) -> list[str]:
    fmt = "%%.%dg" % precision
    return [fmt % v for v in np.asarray(x, dtype=np.float64).tolist()]


def consecutive(center: float, count: int) -> np.ndarray:
    """``2 * count`` consecutive doubles around ``center``, both signs."""
    bits = np.float64(center).view(np.int64) + np.arange(-count, count)
    x = bits.view(np.float64)
    return np.concatenate([x, -x])


def exact_ties(precision: int, n_per_exponent: int, seed: int) -> np.ndarray:
    """Doubles v with ``|v| * 10**k`` exactly half-way between two integers.

    With E in the fixed-notation range and k = precision - 1 - E, an odd
    multiple of 2**-(k+1) times 10**k is an odd multiple of 1/2, a tie that
    round-half-even must break to the even neighbour.
    """
    g = np.random.default_rng(seed)
    out = []
    for e in range(-4, precision):
        k = precision - 1 - e
        unit = 2.0 ** -(k + 1)
        lo, hi = int(10.0**e / unit) + 1, int(10.0 ** (e + 1) / unit)
        hi = min(hi, 2**53)  # odd multiples stay exact below 2**53 units
        if hi - lo < 4:
            continue
        odd = g.integers(lo // 2, (hi - 1) // 2, n_per_exponent) * 2 + 1
        out.append(odd.astype(np.float64) * unit)
    x = np.concatenate(out)
    return np.concatenate([x, -x])


@pytest.mark.parametrize("precision", PRECISIONS)
@given(st.lists(st.floats(), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_any_doubles_match_percent(precision, values):
    assert cells(values, precision) == percent(values, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
@given(st.lists(st.floats(min_value=1e-5, max_value=1e18), min_size=1, max_size=64),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_doubles_of_the_fixed_notation_range_match_percent(precision, values, negate):
    x = np.array(values) * (-1.0 if negate else 1.0)
    assert cells(x, precision) == percent(x, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_a_million_random_bit_patterns_match_percent(precision):
    g = np.random.default_rng(precision)
    x = g.integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False).view(np.float64)
    assert joined(x, precision) == percent(x, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_random_mantissas_in_the_fixed_notation_range_match_percent(precision):
    # Raw bit patterns put few values in [1e-5, 1e17]: draw the binary exponent there.
    g = np.random.default_rng(100 + precision)
    mantissa = g.integers(0, 2**52, 1_000_000, dtype=np.uint64)
    exponent = g.integers(1023 - 18, 1023 + 58, 1_000_000).astype(np.uint64)
    sign = g.integers(0, 2, 1_000_000).astype(np.uint64)
    x = ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)
    assert joined(x, precision) == percent(x, precision)


@pytest.mark.parametrize("j", range(12, 17))
def test_consecutive_doubles_around_powers_of_ten(j):
    x = consecutive(10.0**j, 5000)
    assert joined(x, 17) == percent(x, 17)
    # the runs below 10**16 hold exact ties of the 17th digit
    e = np.floor(np.log10(np.abs(x))).astype(int)
    ties = sum((Fraction(v) * 10 ** (16 - int(ei))).denominator == 2 for v, ei in zip(x.tolist(), e))
    assert ties > 0 or j == 16


@pytest.mark.parametrize("precision", PRECISIONS)
def test_exact_ties_round_half_to_even(precision):
    x = exact_ties(precision, 2000, seed=precision)
    k = precision - 1 - np.floor(np.log10(np.abs(x))).astype(int)
    assert all((Fraction(v) * 10 ** int(kk)).denominator == 2 for v, kk in zip(x[:50].tolist(), k))
    assert joined(x, precision) == percent(x, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_special_values_and_fallback_boundaries(precision):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, DBL_MAX, -DBL_MAX,
               2.2250738585072014e-308, 2.225073858507201e-308]
    # E = -5/-4 and E = P-1/P: the doubles next to each decade, and next to the
    # points where rounding to P digits carries into the next decade
    edges = []
    for j in (-5, -4, precision - 1, precision):
        edges += [10.0**j, 10.0**j * (1 - 0.5 * 10.0**-precision)]
    x = np.concatenate([special, *(consecutive(c, 300) for c in edges)])
    assert cells(x, precision) == percent(x, precision)


def test_empty_input():
    assert format_g_cells(np.empty(0), 17).shape[0] == 0
    assert joined(np.empty(0), 6) == []
