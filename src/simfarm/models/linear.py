"""Ridge regression via the regularized normal equations.

Solves (X'X + lam*P) beta = X'y by Cholesky, where P penalizes every
coefficient except the intercept; a singular system (e.g. lam = 0 on
collinear data) falls back to the pseudo-inverse.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError

__all__ = ["RidgeRegressor"]


class RidgeRegressor:
    def __init__(self, lam: float = 0.0, task: str = "regression"):
        if task != "regression":
            raise TrainingError("linear_ridge supports regression only")
        if lam < 0:
            raise TrainingError(f"ridge penalty must be >= 0, got {lam}")
        self.lam = float(lam)
        self.coef_: np.ndarray | None = None
        self.intercept_: float | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "RidgeRegressor":
        """Solve for the coefficients; the fit is deterministic, so ``seed`` is ignored."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or len(X) != len(y):
            raise TrainingError("X must be 2-D and aligned with y")
        if len(X) < 2:
            raise TrainingError("need at least 2 training rows")
        n, p = X.shape
        xb = np.hstack([X, np.ones((n, 1))])
        gram = xb.T @ xb
        penalty = np.eye(p + 1) * self.lam
        penalty[p, p] = 0.0  # intercept unpenalized
        rhs = xb.T @ y
        try:
            chol = np.linalg.cholesky(gram + penalty)
            beta = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        except np.linalg.LinAlgError:
            beta = np.linalg.pinv(gram + penalty) @ rhs
        self.coef_ = beta[:p]
        self.intercept_ = float(beta[p])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise TrainingError("model is not fitted")
        return np.asarray(X, dtype=np.float64) @ self.coef_ + self.intercept_

    def to_state(self) -> dict:
        return {
            "lam": self.lam,
            "coef": [float(c) for c in self.coef_],
            "intercept": self.intercept_,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RidgeRegressor":
        model = cls(lam=state["lam"])
        model.coef_ = np.asarray(state["coef"], dtype=np.float64)
        model.intercept_ = float(state["intercept"])
        return model
