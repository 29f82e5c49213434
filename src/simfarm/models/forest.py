"""Bagged random forests over :class:`~simfarm.models.tree.CartTree`.

Tree ``t`` draws its bootstrap sample and per-split feature subsets from the
stream ``(seed, t)``, so forests are reproducible and independent of build
order; :func:`~simfarm.models.tree.grow_trees` grows all the trees together.
With ``n_trees=1``, ``feature_fraction=1`` and bootstrap disabled the forest
is exactly a single CART tree.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from ..rng import substream
from .tree import CartTree, grow_trees

__all__ = ["RandomForest"]


class RandomForest:
    def __init__(
        self,
        n_trees: int = 30,
        max_depth: int = 8,
        min_leaf: int = 1,
        feature_fraction: float = 1.0,
        bootstrap: bool = True,
        task: str = "regression",
    ):
        if n_trees < 1:
            raise TrainingError(f"n_trees must be >= 1, got {n_trees}")
        if not (0.0 < feature_fraction <= 1.0):
            raise TrainingError(f"feature_fraction must be in (0, 1], got {feature_fraction}")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.feature_fraction = float(feature_fraction)
        self.bootstrap = bool(bootstrap)
        self.task = task
        self.trees: list[CartTree] = []
        self.classes_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if len(X) < 2:
            raise TrainingError("need at least 2 training rows")
        n_classes = 0
        if self.task == "classification":
            self.classes_ = np.unique(y)
            if len(self.classes_) < 2:
                raise TrainingError("classification needs at least 2 classes")
            y = np.searchsorted(self.classes_, y)
            n_classes = len(self.classes_)
        streams = [substream(seed, t) for t in range(self.n_trees)]
        samples = np.empty((self.n_trees, len(X)), dtype=np.int64)
        for rng, sample in zip(streams, samples):
            sample[:] = rng.integers(0, len(X), size=len(X)) if self.bootstrap else np.arange(len(X))
            # a degenerate classification draw falls back to the full sample
            if n_classes and len(np.unique(y[sample])) < 2:
                sample[:] = np.arange(len(X))
        m = max(1, int(round(self.feature_fraction * X.shape[1])))
        grown = grow_trees(X, y, samples, streams, m, self.max_depth, self.min_leaf, n_classes)
        self.trees = []
        for sample, nodes in zip(samples, grown):
            tree = CartTree(max_depth=self.max_depth, min_leaf=self.min_leaf, task=self.task)
            tree.set_nodes(nodes)
            if n_classes:
                # a tree knows only the classes of its own sample, as if fit on it alone
                present = np.unique(y[sample])
                tree.classes_ = self.classes_[present]
                tree.value = np.searchsorted(present, tree.value).astype(np.float64).tolist()
            self.trees.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            raise TrainingError("model is not fitted")
        votes = np.stack([tree.predict(X) for tree in self.trees])
        if self.task == "regression":
            return votes.mean(axis=0)
        k = len(self.classes_)
        n = votes.shape[1]
        cells = np.arange(n) * k + np.searchsorted(self.classes_, votes)
        counts = np.bincount(cells.ravel(), minlength=n * k).reshape(n, k)
        return self.classes_[np.argmax(counts, axis=1)]  # ties to the smallest label

    def to_state(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "feature_fraction": self.feature_fraction,
            "bootstrap": self.bootstrap,
            "task": self.task,
            "trees": [t.to_state() for t in self.trees],
            "classes": None if self.classes_ is None else self.classes_.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RandomForest":
        forest = cls(
            n_trees=state["n_trees"],
            max_depth=state["max_depth"],
            min_leaf=state["min_leaf"],
            feature_fraction=state["feature_fraction"],
            bootstrap=state["bootstrap"],
            task=state["task"],
        )
        forest.trees = [CartTree.from_state(t) for t in state["trees"]]
        if state["classes"] is not None:
            forest.classes_ = np.asarray(state["classes"], dtype=np.int64)
        return forest
