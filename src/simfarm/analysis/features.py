"""Feature relevance scores against a numeric target.

Numeric features score |Pearson r|; categorical features score the
correlation ratio eta (square root of the between-group share of variance).
Both lie in [0, 1]; constant features score 0.  Rows with a missing feature
or target value are dropped pairwise.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvalidArgumentError
from ..tables import DataColumn

__all__ = ["feature_scores", "pearson_r", "correlation_ratio"]


def pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xd = x - x.mean()
    yd = y - y.mean()
    denom = math.sqrt(float(xd @ xd) * float(yd @ yd))
    if denom == 0.0:
        return 0.0
    return float(xd @ yd / denom)


def correlation_ratio(levels: np.ndarray, y: np.ndarray) -> float:
    """eta = sqrt(SS_between / SS_total) of ``y`` grouped by ``levels``.

    The between-group terms are summed in sorted level order, so the result
    does not depend on the process's string hashing.
    """
    y = np.asarray(y, dtype=np.float64)
    grand = y.mean()
    sst = float(((y - grand) ** 2).sum())
    if sst == 0.0:
        return 0.0
    _, codes = np.unique(np.asarray(levels), return_inverse=True)
    counts = np.bincount(codes)
    means = np.bincount(codes, weights=y) / counts
    ssb = float(np.sum(counts * (means - grand) ** 2))
    return math.sqrt(max(0.0, min(1.0, ssb / sst)))


def feature_scores(features: list[DataColumn], target: DataColumn) -> list[tuple[str, float]]:
    """Rank features by relevance to ``target``; ties keep column order."""
    if not features:
        raise InvalidArgumentError("need at least one feature")
    if target.kind != "numeric":
        raise InvalidArgumentError("target must be numeric")
    n = len(target)
    for f in features:
        if len(f) != n:
            raise InvalidArgumentError(
                f"feature {f.name!r} has length {len(f)}, target has {n}"
            )
    scored: list[tuple[int, str, float]] = []
    t_missing = target.missing_mask()
    for pos, f in enumerate(features):
        keep = ~(f.missing_mask() | t_missing)
        y = target.values[keep]
        if keep.sum() < 2:
            score = 0.0
        elif f.kind == "numeric":
            score = abs(pearson_r(f.values[keep], y))
        else:
            score = correlation_ratio(f.values[keep], y)
        scored.append((pos, f.name, float(score)))
    scored.sort(key=lambda item: (-item[2], item[0]))
    return [(name, score) for _, name, score in scored]
