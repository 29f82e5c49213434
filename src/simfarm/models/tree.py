"""CART-style binary decision trees (greedy, depth/leaf-size stopped).

Regression splits minimize summed squared error, classification splits
minimize weighted Gini impurity; thresholds sit midway between consecutive
distinct feature values, both children must hold ``min_leaf`` rows, and ties
break toward the lower feature index and threshold.  The per-feature split
scans are the hot loops and are numba-compiled.
"""

from __future__ import annotations

import math

import numpy as np

from .._accel import maybe_njit
from ..errors import TrainingError

__all__ = ["CartTree"]

_NO_SPLIT = -1.0


@maybe_njit(cache=True)
def _scan_splits_sse(xs: np.ndarray, ys: np.ndarray, min_leaf: int):
    """Best threshold for sorted feature values xs (ys aligned).

    Returns (score, threshold, found) with score = SSE_left + SSE_right.
    """
    n = xs.shape[0]
    total = 0.0
    total_sq = 0.0
    for i in range(n):
        total += ys[i]
        total_sq += ys[i] * ys[i]
    best_score = math.inf
    best_thr = 0.0
    found = False
    left = 0.0
    left_sq = 0.0
    for i in range(n - 1):
        left += ys[i]
        left_sq += ys[i] * ys[i]
        if xs[i + 1] == xs[i]:
            continue
        nl = i + 1
        nr = n - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        right = total - left
        right_sq = total_sq - left_sq
        sse = (left_sq - left * left / nl) + (right_sq - right * right / nr)
        if sse < 0.0:
            sse = 0.0
        if sse < best_score:
            best_score = sse
            best_thr = 0.5 * (xs[i] + xs[i + 1])
            found = True
    return best_score, best_thr, found


@maybe_njit(cache=True)
def _scan_splits_gini(xs: np.ndarray, codes: np.ndarray, n_classes: int, min_leaf: int):
    """Best threshold minimizing n_l*gini_l + n_r*gini_r over sorted xs."""
    n = xs.shape[0]
    total_counts = np.zeros(n_classes, dtype=np.int64)
    for i in range(n):
        total_counts[codes[i]] += 1
    left_counts = np.zeros(n_classes, dtype=np.int64)
    best_score = math.inf
    best_thr = 0.0
    found = False
    for i in range(n - 1):
        left_counts[codes[i]] += 1
        if xs[i + 1] == xs[i]:
            continue
        nl = i + 1
        nr = n - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        sl = 0.0
        sr = 0.0
        for c in range(n_classes):
            lc = left_counts[c]
            rc = total_counts[c] - lc
            sl += lc * lc
            sr += rc * rc
        score = nl * (1.0 - sl / (nl * nl)) + nr * (1.0 - sr / (nr * nr))
        if score < best_score:
            best_score = score
            best_thr = 0.5 * (xs[i] + xs[i + 1])
            found = True
    return best_score, best_thr, found


class CartTree:
    family = "cart_tree"

    def __init__(self, max_depth: int = 8, min_leaf: int = 1, task: str = "regression"):
        if max_depth < 1:
            raise TrainingError(f"max_depth must be >= 1, got {max_depth}")
        if min_leaf < 1:
            raise TrainingError(f"min_leaf must be >= 1, got {min_leaf}")
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.task = task
        # parallel node arrays; children are node ids, -1 marks a leaf
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.classes_: np.ndarray | None = None

    # -- construction ----------------------------------------------------

    def _leaf_value(self, y: np.ndarray) -> float:
        if self.task == "regression":
            return float(y.mean())
        counts = np.bincount(y, minlength=len(self.classes_))
        return float(np.argmax(counts))  # ties to the smallest class code

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool(np.all(y == y[0]))

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _best_split(self, X: np.ndarray, y: np.ndarray, feature_ids) -> tuple[int, float] | None:
        best = None
        for f in feature_ids:
            order = np.argsort(X[:, f], kind="stable")
            xs = np.ascontiguousarray(X[order, f])
            if self.task == "regression":
                ys = np.ascontiguousarray(y[order].astype(np.float64))
                score, thr, found = _scan_splits_sse(xs, ys, self.min_leaf)
            else:
                codes = np.ascontiguousarray(y[order].astype(np.int64))
                score, thr, found = _scan_splits_gini(
                    xs, codes, len(self.classes_), self.min_leaf
                )
            if found and (best is None or score < best[0]):
                best = (score, int(f), float(thr))
        if best is None:
            return None
        return best[1], best[2]

    def _build(self, X, y, depth: int, rng, feature_fraction: float) -> int:
        node = self._new_node()
        self.value[node] = self._leaf_value(y)
        if depth >= self.max_depth or len(y) < 2 * self.min_leaf or self._is_pure(y):
            return node
        p = X.shape[1]
        if feature_fraction < 1.0:
            m = max(1, int(round(feature_fraction * p)))
            feature_ids = np.sort(rng.choice(p, size=m, replace=False))
        else:
            feature_ids = np.arange(p)
        split = self._best_split(X, y, feature_ids)
        if split is None:
            return node
        f, thr = split
        mask = X[:, f] <= thr
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self._build(X[mask], y[mask], depth + 1, rng, feature_fraction)
        self.right[node] = self._build(X[~mask], y[~mask], depth + 1, rng, feature_fraction)
        return node

    def fit(self, X: np.ndarray, y: np.ndarray, rng=None, feature_fraction: float = 1.0) -> "CartTree":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise TrainingError("X must be 2-D and aligned with y")
        if len(X) < 2:
            raise TrainingError("need at least 2 training rows")
        if self.task == "classification":
            y = np.asarray(y)
            self.classes_ = np.unique(y)
            if len(self.classes_) < 2:
                raise TrainingError("classification needs at least 2 classes")
            codes = np.searchsorted(self.classes_, y)
            self._build(X, codes.astype(np.int64), 0, rng, feature_fraction)
        else:
            y = np.asarray(y, dtype=np.float64)
            self._build(X, y, 0, rng, feature_fraction)
        return self

    # -- prediction --------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.feature:
            raise TrainingError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.float64)
        for i, row in enumerate(X):
            node = 0
            while self.feature[node] >= 0:
                node = self.left[node] if row[self.feature[node]] <= self.threshold[node] else self.right[node]
            out[i] = self.value[node]
        if self.task == "classification":
            return self.classes_[out.astype(np.int64)]
        return out

    def to_state(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "task": self.task,
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "value": self.value,
            "classes": None if self.classes_ is None else self.classes_.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CartTree":
        tree = cls(max_depth=state["max_depth"], min_leaf=state["min_leaf"], task=state["task"])
        tree.feature = [int(v) for v in state["feature"]]
        tree.threshold = [float(v) for v in state["threshold"]]
        tree.left = [int(v) for v in state["left"]]
        tree.right = [int(v) for v in state["right"]]
        tree.value = [float(v) for v in state["value"]]
        if state["classes"] is not None:
            tree.classes_ = np.asarray(state["classes"], dtype=np.int64)
        return tree
