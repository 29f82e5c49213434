"""k-nearest-neighbor regression and classification.

Distances are Euclidean over the (already preprocessed) feature matrix;
neighbor ties break by training-row order, class-vote ties by the smallest
class label.  Test rows go in blocks of about ``_BLOCK`` difference elements,
and each block picks its k nearest by partial selection (``_k_smallest``), not
by sorting whole rows: the same neighbors in the same order as a stable
``argsort``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelFormatError, TrainingError
from ..schema import fail, integer, obj, reporting, where
from .preprocess import fit_data, majority
from .state import STATE_CLASSES, STATE_TASK, array, hyperparameters, state_classes
from .state import state_lengths

__all__ = ["KnnModel"]

_BLOCK = 1 << 20


class KnnModel:
    HYPERPARAMETERS = {"k": integer(ge=1)}

    def __init__(self, k: int = 5, task: str = "regression"):
        (self.k,) = hyperparameters(self, "knn", k=k)
        self.task = task
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self.classes_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "KnnModel":
        """Store the training rows; the fit is deterministic, so ``seed`` is ignored."""
        X, y, self.classes_ = fit_data(self.task, X, y)
        if self.k > len(X):
            raise TrainingError(f"k = {self.k} exceeds training size {len(X)}")
        self._X, self._y = X, y
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._X is None:
            raise TrainingError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        # test rows go in blocks so the (rows, n_train, p) difference stays near _BLOCK elements
        step = max(1, _BLOCK // max(1, self._X.size))
        nearest = np.empty((len(X), self.k), dtype=np.intp)
        for start in range(0, len(X), step):
            block = X[start : start + step]
            d2 = ((block[:, None, :] - self._X[None, :, :]) ** 2).sum(axis=2)
            nearest[start : start + step] = _k_smallest(d2, self.k)
        if self.task == "regression":
            return self._y[nearest].mean(axis=1)
        return majority(self.classes_, self._y[nearest])

    def to_state(self) -> dict:
        return {
            "k": self.k,
            "task": self.task,
            "X": self._X.tolist(),
            "y": self._y.tolist(),
            "classes": None if self.classes_ is None else self.classes_.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict, n_features: int | None = None) -> "KnnModel":
        """Rebuild from :meth:`to_state`; ``n_features`` is the row width to expect, if known."""
        path = ("state",)
        with reporting(ModelFormatError, "model file"):
            s = STATE(state, path)
            classes = state_classes(s, path)
            X, y = s["X"], s["y"]
            state_lengths(s, path, "X", ("y",))
            if s["k"] > len(X):
                fail((*path, "k"), f"<= {len(X)}, the stored row count", s["k"], typed=True)
            if n_features is not None and X.shape[1] != n_features:
                fail((*path, "X"), f"rows of {n_features} features", X, typed=True)
            if classes is not None:
                bad = ~np.isin(y, classes)
                if bad.any():
                    i = int(np.argmax(bad))
                    fail((*path, "y", i), f"one of {where((*path, 'classes'))}", y[i], typed=True)
        model = cls(k=s["k"], task=s["task"])
        model._X, model.classes_ = X, classes
        model._y = y if classes is None else y.astype(np.int64)
        return model


def _k_smallest(d2: np.ndarray, k: int) -> np.ndarray:
    """Columns of the ``k`` smallest entries of each row of ``d2``, nearest first.

    The same columns, in the same order, as ``np.argsort(d2, kind="stable")[:, :k]``,
    NaN last, without sorting whole rows: every entry not above the row's k-th
    smallest value is a candidate, and one stable sort of the candidates by
    (row, distance) keeps tied distances in column order.  ``~(d2 > kth)``
    rather than ``d2 <= kth`` keeps NaN entries as candidates, so a row whose
    k-th value is NaN still has k of them.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(~(d2 > kth))
    order = np.lexsort((d2[rows, cols], rows))
    # rows is sorted, so row r's candidates start at first[r] before and after ``order``
    first = np.searchsorted(rows, np.arange(len(d2)))
    return cols[order][first[:, None] + np.arange(k)]


STATE = obj({**KnnModel.HYPERPARAMETERS, "task": STATE_TASK, "X": array(np.float64, 2),
             "y": array(np.float64), "classes": STATE_CLASSES})
