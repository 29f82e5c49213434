"""k-nearest-neighbor regression and classification.

Distances are Euclidean over the (already preprocessed) feature matrix;
neighbor ties break by training-row order, class-vote ties by the smallest
class label.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError

__all__ = ["KnnModel"]

_BLOCK = 1 << 20


class KnnModel:
    def __init__(self, k: int = 5, task: str = "regression"):
        if k < 1:
            raise TrainingError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.task = task
        self._X: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self.classes_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "KnnModel":
        """Store the training rows; the fit is deterministic, so ``seed`` is ignored."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if len(X) < 2:
            raise TrainingError("need at least 2 training rows")
        if self.k > len(X):
            raise TrainingError(f"k = {self.k} exceeds training size {len(X)}")
        if self.task == "classification":
            self.classes_ = np.unique(y)
            if len(self.classes_) < 2:
                raise TrainingError("classification needs at least 2 classes")
        self._X = X
        self._y = y
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
            nearest[start : start + step] = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        if self.task == "regression":
            return self._y[nearest].astype(np.float64).mean(axis=1)
        c = len(self.classes_)
        cells = np.arange(len(X))[:, None] * c + np.searchsorted(self.classes_, self._y[nearest])
        counts = np.bincount(cells.ravel(), minlength=len(X) * c).reshape(-1, c)
        return self.classes_[np.argmax(counts, axis=1)]  # ties to the smallest label

    def to_state(self) -> dict:
        return {
            "k": self.k,
            "task": self.task,
            "X": self._X.tolist(),
            "y": self._y.tolist(),
            "classes": None if self.classes_ is None else self.classes_.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "KnnModel":
        model = cls(k=state["k"], task=state["task"])
        model._X = np.asarray(state["X"], dtype=np.float64)
        y = np.asarray(state["y"])
        if state["task"] == "classification":
            y = y.astype(np.int64)
            model.classes_ = np.asarray(state["classes"], dtype=np.int64)
        else:
            y = y.astype(np.float64)
        model._y = y
        return model
