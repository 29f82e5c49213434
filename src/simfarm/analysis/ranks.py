"""Midrank utilities shared by the rank-based tests and Spearman correlation.

Both work on the tie runs of one sorted copy of the data: neighbours tie when
``==`` holds, so each NaN stays on its own and ``-0.0`` ties with ``0.0``.
Values outside tie runs need no run bookkeeping, which keeps the working
memory near that of the sort for continuous data.
"""

from __future__ import annotations

import numpy as np

__all__ = ["midranks", "tie_term"]


def _tie_runs(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last position of each run of two or more equal values in sorted ``xs``."""
    # tied[k] is xs[k] == xs[k - 1]; the false ends make each run open with a
    # rising edge and close with a falling one
    tied = np.zeros(len(xs) + 1, dtype=bool)
    np.equal(xs[1:], xs[:-1], out=tied[1:-1])
    edges = np.flatnonzero(tied[1:] != tied[:-1])
    return edges[0::2], edges[1::2]


def midranks(x) -> np.ndarray:
    """Ranks 1..n with ties replaced by their average rank."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    first, last = _tie_runs(x[order])
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.arange(1.0, len(x) + 1.0)
    # sorted positions first..last of a tie run all get (first + last) / 2 + 1
    t = last - first + 1
    pos = np.arange(t.sum()) + np.repeat(first - (np.cumsum(t) - t), t)
    ranks[order[pos]] = np.repeat(0.5 * (first + last) + 1.0, t)
    return ranks


def tie_term(x) -> float:
    """Sum of t^3 - t over tie groups of ``x`` (0 when all values distinct).

    The sum is exact in int64 for samples of fewer than 2**21 values.
    """
    first, last = _tie_runs(np.sort(np.asarray(x, dtype=np.float64)))
    t = last - first + 1
    return float(np.sum(t**3 - t))
