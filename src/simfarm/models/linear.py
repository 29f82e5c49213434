"""Ridge regression via the regularized normal equations.

Solves (X'X + lam*P) beta = X'y by Cholesky, where P penalizes every
coefficient except the intercept; a singular system (e.g. lam = 0 on
collinear data) falls back to the pseudo-inverse.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelFormatError, TrainingError
from ..schema import fail, obj, real, reporting
from .preprocess import fit_data
from .state import array, hyperparameters

__all__ = ["RidgeRegressor"]


class RidgeRegressor:
    HYPERPARAMETERS = {"lam": real(ge=0)}

    def __init__(self, lam: float = 0.0, task: str = "regression"):
        if task != "regression":
            raise TrainingError("linear_ridge supports regression only")
        (self.lam,) = hyperparameters(self, "linear_ridge", lam=lam)
        self.coef_: np.ndarray | None = None
        self.intercept_: float | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "RidgeRegressor":
        """Solve for the coefficients; the fit is deterministic, so ``seed`` is ignored."""
        X, y, _ = fit_data("regression", X, y)
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
    def from_state(cls, state: dict, n_features: int | None = None) -> "RidgeRegressor":
        """Rebuild from :meth:`to_state`; ``n_features`` is the row width to expect, if known."""
        with reporting(ModelFormatError, "model file"):
            s = STATE(state, ("state",))
            if n_features is not None and len(s["coef"]) != n_features:
                fail(("state", "coef"), f"a list of {n_features} items, one per feature", s["coef"],
                     typed=True)
        model = cls(lam=s["lam"])
        model.coef_, model.intercept_ = s["coef"], s["intercept"]
        return model


STATE = obj({**RidgeRegressor.HYPERPARAMETERS, "coef": array(np.float64),
             "intercept": real(finite=False)})
