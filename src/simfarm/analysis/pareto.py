"""Pareto-front extraction.

A point is on the front iff no other point is at least as good in every
objective and strictly better in one (after normalizing maximize objectives
by negation).  Duplicate copies of a front point all stay on the front.  Two
and three objectives use Kung, Luccio & Preparata's (1975) sort-and-sweep:
O(n log n) for two, and for three a sweep over the distinct rows in
lexicographic order that keeps the (f2, f3) staircase of the front so far.
Four or more compare every pair, a bounded block of rows at a time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError

__all__ = ["ParetoResult", "pareto_front"]

_DIRECTION_ALIASES = {
    "min": "minimize",
    "minimize": "minimize",
    "max": "maximize",
    "maximize": "maximize",
}


@dataclass
class ParetoResult:
    front: np.ndarray  # sorted row indices on the front
    directions: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "front": [int(i) for i in self.front],
            "directions": list(self.directions),
        }


_BLOCK_CELLS = 1 << 21  # comparisons held at once by the pairwise scan


def _front_mask_2d(pts: np.ndarray) -> np.ndarray:
    # sort by (f1, f2): a point survives iff its f2 is the least in its f1
    # group and strictly below every f2 seen at a strictly smaller f1
    f1, f2 = pts[:, 0], pts[:, 1]
    order = np.lexsort((f2, f1))
    a, b = f1[order], f2[order]
    starts = np.r_[True, a[1:] != a[:-1]]
    group = np.cumsum(starts) - 1
    group_min = b[starts]
    before = np.r_[np.inf, np.minimum.accumulate(group_min)[:-1]]
    mask = np.empty(len(pts), dtype=bool)
    mask[order] = (b == group_min[group]) & (b < before[group])
    return mask


def _front_mask_3d(pts: np.ndarray) -> np.ndarray:
    # Distinct rows in lexicographic order: every row that dominates a row comes
    # before it, so a row is on the front iff no earlier front row has f2 and f3
    # both no greater.  The staircase holds those rows' (f2, f3) with f2
    # increasing and f3 decreasing; its last point with f2 <= a row's f2 has
    # the least f3 of all of them.
    rows, inverse = np.unique(pts, axis=0, return_inverse=True)
    keep = np.zeros(len(rows), dtype=bool)
    f2s: list[float] = []
    f3s: list[float] = []
    for i, (_, f2, f3) in enumerate(rows.tolist()):
        at = bisect_right(f2s, f2)
        if at and f3s[at - 1] <= f3:
            continue
        keep[i] = True
        start, end = bisect_left(f2s, f2), at  # rows this one dominates on (f2, f3)
        while end < len(f2s) and f3s[end] >= f3:
            end += 1
        f2s[start:end] = [f2]
        f3s[start:end] = [f3]
    return keep[inverse.ravel()]


def _front_mask_pairwise(pts: np.ndarray) -> np.ndarray:
    n, m = pts.shape
    step = max(1, _BLOCK_CELLS // (n * m))
    mask = np.empty(n, dtype=bool)
    for lo in range(0, n, step):
        block = pts[lo:lo + step, None, :]
        # dominated[i, j]: row j is no worse than block row i everywhere and better somewhere
        dominated = (pts <= block).all(axis=2) & (pts < block).any(axis=2)
        mask[lo:lo + step] = ~dominated.any(axis=1)
    return mask


def pareto_front(points, directions) -> ParetoResult:
    """Indices of the non-dominated rows of ``points`` (n x m, m >= 2)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidArgumentError("points must be a 2-D matrix")
    n, m = pts.shape
    if n < 1 or m < 2:
        raise InvalidArgumentError(f"need n >= 1 rows and m >= 2 objectives, got {n}x{m}")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("points must be finite")
    dirs = tuple(directions)
    if len(dirs) != m:
        raise InvalidArgumentError(f"expected {m} directions, got {len(dirs)}")
    normalized = []
    for d in dirs:
        if d not in _DIRECTION_ALIASES:
            raise InvalidArgumentError(f"unknown direction {d!r}; use minimize/maximize")
        normalized.append(_DIRECTION_ALIASES[d])
    signs = np.array([1.0 if d == "minimize" else -1.0 for d in normalized])
    pts = pts * signs  # every objective minimized
    mask = {2: _front_mask_2d, 3: _front_mask_3d}.get(m, _front_mask_pairwise)(pts)
    return ParetoResult(front=np.nonzero(mask)[0], directions=tuple(normalized))
