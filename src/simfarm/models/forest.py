"""Bagged random forests over :class:`~simfarm.models.tree.CartTree`.

Tree ``t`` draws its bootstrap sample and per-split feature subsets from the
stream ``(seed, t)``, so forests are reproducible and independent of build
order; :func:`~simfarm.models.tree.grow_trees` grows all the trees together.
With ``n_trees=1``, ``feature_fraction=1`` and bootstrap disabled the forest
is exactly a single CART tree.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelFormatError, TrainingError
from ..rng import substream
from ..schema import BOOL, fail, integer, list_of, obj, real, reporting, where
from .preprocess import fit_data, majority
from .state import STATE_CLASSES, STATE_TASK, hyperparameters, state_classes
from .tree import STATE as TREE_STATE
from .tree import CartTree, grow_trees

__all__ = ["RandomForest"]


class RandomForest:
    HYPERPARAMETERS = {"n_trees": integer(ge=1), **CartTree.HYPERPARAMETERS,
                       "feature_fraction": real(gt=0, le=1), "bootstrap": BOOL}

    def __init__(
        self,
        n_trees: int = 30,
        max_depth: int = 8,
        min_leaf: int = 1,
        feature_fraction: float = 1.0,
        bootstrap: bool = True,
        task: str = "regression",
    ):
        (self.n_trees, self.max_depth, self.min_leaf, self.feature_fraction,
         self.bootstrap) = hyperparameters(
            self, "random_forest", n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf,
            feature_fraction=feature_fraction, bootstrap=bootstrap)
        self.task = task
        self.trees: list[CartTree] = []
        self.classes_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "RandomForest":
        X, y, self.classes_ = fit_data(self.task, X, y)
        n_classes = 0 if self.classes_ is None else len(self.classes_)
        y = np.searchsorted(self.classes_, y) if n_classes else y
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
        return majority(self.classes_, votes.T)

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
    def from_state(cls, state: dict, n_features: int | None = None) -> "RandomForest":
        """Rebuild from :meth:`to_state`; ``n_features`` is the row width to expect, if known.

        ``n_trees`` trees, each as sound as a saved :class:`CartTree` of the
        forest's task, and a classifier's trees know only the forest's classes.
        """
        path = ("state",)
        with reporting(ModelFormatError, "model file"):
            s = STATE(state, path)
            classes = state_classes(s, path)
            if len(s["trees"]) != s["n_trees"]:
                fail((*path, "trees"), f"a list of {s['n_trees']} trees, its 'n_trees'",
                     state["trees"], typed=True)
            trees = []
            for t, tree_state in enumerate(s["trees"]):
                at = (*path, "trees", t)
                if tree_state["task"] != s["task"]:
                    fail((*at, "task"), repr(s["task"]), tree_state["task"])
                tree = CartTree.from_checked(tree_state, at, n_features)
                if classes is not None and not np.isin(tree.classes_, classes).all():
                    fail((*at, "classes"), f"labels of {where((*path, 'classes'))}", tree.classes_)
                trees.append(tree)
        forest = cls(**{key: s[key] for key in cls.HYPERPARAMETERS}, task=s["task"])
        forest.trees, forest.classes_ = trees, classes
        return forest


STATE = obj({**RandomForest.HYPERPARAMETERS, "task": STATE_TASK,
             "trees": list_of(TREE_STATE, min_len=1), "classes": STATE_CLASSES})
