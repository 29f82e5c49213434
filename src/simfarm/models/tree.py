"""CART-style binary decision trees (greedy, depth/leaf-size stopped).

Regression splits minimize summed squared error, classification splits
minimize weighted Gini impurity; thresholds sit midway between consecutive
distinct feature values, both children must hold ``min_leaf`` rows, and ties
break toward the lower feature index and threshold.

Each feature is sorted once per tree.  A node holds its rows in every
feature's sorted order, and a child keeps its parent's order, which is the
stable sort of the child's own rows.  The split search scores every cut of
a block of candidate features at once from prefix sums (``cumsum`` adds in
row order, so the scores are those of a sequential scan), and prediction
walks all rows down the tree one level at a time.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError

__all__ = ["CartTree"]

_SPLIT_BLOCK = 1 << 16


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
        return bool((y == y[0]).all())

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _best_split(self, X, y, sorted_rows, feature_ids) -> tuple[int, float] | None:
        """Best ``(feature, threshold)`` over ``feature_ids``, or None if no cut is legal.

        The features are scored in blocks of about ``_SPLIT_BLOCK`` cells, so
        the transient arrays stay bounded; a later block wins only with a
        strictly lower score, which keeps the lower feature on a tie.
        """
        n = sorted_rows.shape[1]
        cells = n * (len(self.classes_) if self.task == "classification" else 1)
        step = max(1, _SPLIT_BLOCK // cells)
        best = None
        for start in range(0, len(feature_ids), step):
            found = self._best_split_block(X, y, sorted_rows, feature_ids[start : start + step])
            if found is not None and (best is None or found[0] < best[0]):
                best = found
        return None if best is None else best[1:]

    def _best_split_block(self, X, y, sorted_rows, feature_ids):
        """``(score, feature, threshold)`` of the best legal cut in ``feature_ids``, or None.

        Cut ``i`` puts the first ``i + 1`` rows of a feature's sorted order on
        the left; only cuts leaving ``min_leaf`` rows on each side and falling
        between distinct values are scored.
        """
        rows = sorted_rows[feature_ids]  # (m, n) row ids in each feature's order
        xs = X[rows, feature_ids[:, None]]
        n = rows.shape[1]
        lo, hi = self.min_leaf - 1, n - self.min_leaf  # legal cuts are lo .. hi - 1
        nl = np.arange(lo + 1, hi + 1, dtype=np.float64)
        nr = n - nl
        if self.task == "regression":
            ys = y[rows]
            left = ys.cumsum(axis=1)
            left_sq = (ys * ys).cumsum(axis=1)
            right = left[:, -1:] - left[:, lo:hi]
            right_sq = left_sq[:, -1:] - left_sq[:, lo:hi]
            left, left_sq = left[:, lo:hi], left_sq[:, lo:hi]
            score = (left_sq - left * left / nl) + (right_sq - right * right / nr)
            np.maximum(score, 0.0, out=score)  # rounding can leave an SSE just below 0
        else:
            counts = (y[rows][:, :, None] == np.arange(len(self.classes_))).cumsum(axis=1)
            left = counts[:, lo:hi]
            right = counts[:, -1:] - left
            # sums of squared counts are exact integers, so their order is free
            sl = (left * left).sum(axis=2)
            sr = (right * right).sum(axis=2)
            score = nl * (1.0 - sl / (nl * nl)) + nr * (1.0 - sr / (nr * nr))
        legal = xs[:, lo + 1:hi + 1] != xs[:, lo:hi]
        score = np.where(legal & (score < np.inf), score, np.inf)
        # row-major argmin: lowest feature first, then lowest threshold
        r, j = divmod(int(score.argmin()), score.shape[1])
        if not score[r, j] < np.inf:
            return None
        i = lo + j
        return score[r, j], int(feature_ids[r]), float(0.5 * (xs[r, i] + xs[r, i + 1]))

    def _build(self, X, y, idx, sorted_rows, depth: int, rng, feature_fraction: float) -> int:
        """Grow the subtree on rows ``idx`` (ascending); ``sorted_rows`` is (p, len(idx))."""
        node = self._new_node()
        y_node = y[idx]
        self.value[node] = self._leaf_value(y_node)
        if depth >= self.max_depth or len(idx) < 2 * self.min_leaf or self._is_pure(y_node):
            return node
        p = X.shape[1]
        if feature_fraction < 1.0:
            m = max(1, int(round(feature_fraction * p)))
            feature_ids = np.sort(rng.choice(p, size=m, replace=False))
        else:
            feature_ids = np.arange(p)
        split = self._best_split(X, y, sorted_rows, feature_ids)
        if split is None:
            return node
        f, thr = split
        goes_left = np.zeros(len(X), dtype=bool)
        goes_left[idx] = X[idx, f] <= thr
        on_left = goes_left[idx]
        sorted_left = goes_left[sorted_rows]
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = self._build(
            X, y, idx[on_left], sorted_rows[sorted_left].reshape(p, -1),
            depth + 1, rng, feature_fraction,
        )
        self.right[node] = self._build(
            X, y, idx[~on_left], sorted_rows[~sorted_left].reshape(p, -1),
            depth + 1, rng, feature_fraction,
        )
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
            y = np.searchsorted(self.classes_, y).astype(np.int64)
        else:
            y = np.asarray(y, dtype=np.float64)
        sorted_rows = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        self._build(X, y, np.arange(len(X)), sorted_rows, 0, rng, feature_fraction)
        return self

    # -- prediction --------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.feature:
            raise TrainingError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        leaf = np.asarray(self.feature) < 0
        own = np.arange(len(leaf))
        # a leaf tests feature 0 and leads back to itself, so finished rows stay put
        feature = np.where(leaf, 0, self.feature)
        threshold = np.asarray(self.threshold, dtype=np.float64)
        left = np.where(leaf, own, self.left)
        right = np.where(leaf, own, self.right)
        rows = np.arange(len(X))
        node = np.zeros(len(X), dtype=np.int64)
        while not leaf[node].all():  # one tree level per pass
            node = np.where(X[rows, feature[node]] <= threshold[node], left[node], right[node])
        out = np.asarray(self.value, dtype=np.float64)[node]
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
