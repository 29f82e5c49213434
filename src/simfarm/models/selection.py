"""k-fold splitting and random-search hyperparameter tuning.

Configuration ``i`` samples its hyperparameters from one shared stream and
trains with a seed derived from ``(seed, i)``, so a parallel search would
produce the identical CvReport as the sequential one.  Folds are shared
across all configurations.  CV scores are MSE (regression, lower is better)
or accuracy (classification, higher is better).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidArgumentError
from ..rng import stream_index, substream
from ..tables import DataColumn
from .metrics import evaluate_metrics
from .preprocess import fit_preprocessor
from .spec import ModelSpec, sample_params
from .train import TrainedModel, train, train_folds

__all__ = ["kfold_split", "CvReport", "random_search_cv", "random_search_cv_table"]

# substream tags within the search seed
_STREAM_SAMPLER = 1
_STREAM_CONFIG = 2


def kfold_split(n: int, k: int, seed: int = 0) -> list[np.ndarray]:
    """Partition {0..n-1} into k shuffled folds with sizes differing by <= 1."""
    if k < 2:
        raise InvalidArgumentError(f"k must be >= 2, got {k}")
    if k > n:
        raise InvalidArgumentError(f"k = {k} exceeds n = {n}")
    perm = substream(seed, 0).permutation(n)
    base = n // k
    extra = n % k
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(np.sort(perm[start : start + size]))
        start += size
    return folds


@dataclass
class EvaluatedConfig:
    params: dict
    fold_scores: list[float]
    mean_score: float
    sd_score: float

    def to_dict(self) -> dict:
        return {
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "fold_scores": self.fold_scores,
            "mean_score": self.mean_score,
            "sd_score": self.sd_score,
        }


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, tuple):
        return list(v)
    return v


@dataclass
class CvReport:
    k: int
    score_name: str
    higher_is_better: bool
    evaluated: list[EvaluatedConfig] = field(default_factory=list)
    best_index: int = 0

    @property
    def best(self) -> EvaluatedConfig:
        return self.evaluated[self.best_index]

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "k": self.k,
            "score_name": self.score_name,
            "higher_is_better": self.higher_is_better,
            "evaluated": [e.to_dict() for e in self.evaluated],
            "best_index": self.best_index,
            "best_params": self.best.to_dict()["params"],
        }


def _score(task: str, pred: np.ndarray, truth: np.ndarray) -> float:
    m = evaluate_metrics(pred, truth, task)
    return m["accuracy"] if task == "classification" else m["mse"]


def _search(
    spec: ModelSpec,
    n: int,
    y: np.ndarray,
    build: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    k: int,
    budget: int,
    seed: int,
) -> CvReport:
    """Sample ``budget`` configurations and k-fold score each.

    ``build(train_idx, val_idx)`` gives a fold's training and validation
    matrices; they do not depend on the configuration, so each fold's are
    built once.  All folds of one configuration train in one ``train_folds`` call.
    """
    spec.validate()
    if budget < 1:
        raise InvalidArgumentError(f"budget must be >= 1, got {budget}")
    y = np.asarray(y)
    folds = kfold_split(n, k, seed)
    train_idx = [np.setdiff1d(np.arange(n), fold, assume_unique=True) for fold in folds]
    sampler = substream(seed, _STREAM_SAMPLER)
    higher = spec.task == "classification"
    report = CvReport(
        k=k, score_name="accuracy" if higher else "mse", higher_is_better=higher
    )
    matrices = [build(tr, fold) for tr, fold in zip(train_idx, folds)]
    for i in range(budget):
        params = sample_params(spec, sampler)
        config_seed = stream_index(seed, _STREAM_CONFIG, i)
        fitted = iter(train_folds(
            spec.with_params(**params), [m[0] for m in matrices], [y[tr] for tr in train_idx],
            seed=config_seed,
        ))
        # no name holds a fold's model, so it is freed before the next fold trains
        fold_scores = [
            _score(spec.task, next(fitted).predict(x_val), y[fold])
            for (_, x_val), fold in zip(matrices, folds)
        ]
        mean = float(np.mean(fold_scores))
        sd = float(np.std(fold_scores, ddof=1)) if len(fold_scores) > 1 else 0.0
        report.evaluated.append(
            EvaluatedConfig(params=params, fold_scores=[float(s) for s in fold_scores],
                            mean_score=mean, sd_score=sd)
        )
        current_best = report.evaluated[report.best_index].mean_score
        if (higher and mean > current_best) or (not higher and mean < current_best):
            report.best_index = i
    return report


def random_search_cv(
    spec: ModelSpec,
    X: np.ndarray,
    y: np.ndarray,
    k: int = 5,
    budget: int = 20,
    seed: int = 0,
) -> tuple[TrainedModel, CvReport]:
    """Sample ``budget`` configurations, k-fold score each, refit the best."""
    X = np.asarray(X, dtype=np.float64)
    if len(X) == 0:
        raise InvalidArgumentError("data must be non-empty")
    report = _search(spec, len(X), y, lambda tr, val: (X[tr], X[val]), k, budget, seed)
    best_seed = stream_index(seed, _STREAM_CONFIG, report.best_index)
    best_model = train(spec.with_params(**report.best.params), X, y, seed=best_seed)
    return best_model, report


def random_search_cv_table(
    spec: ModelSpec,
    features: list[DataColumn],
    y: np.ndarray,
    k: int = 5,
    budget: int = 20,
    seed: int = 0,
    class_labels: list[str] | None = None,
) -> tuple[TrainedModel, CvReport]:
    """Search over raw columns, fitting the preprocessor per training fold.

    The final model's preprocessor is refit on the full table, and per-fold
    statistics never see the held-out rows (no leakage).
    """

    def subset(idx: np.ndarray) -> list[DataColumn]:
        return [DataColumn(c.name, c.kind, c.values[idx]) for c in features]

    def build(train_idx: np.ndarray, val_idx: np.ndarray):
        train_cols = subset(train_idx)
        fp = fit_preprocessor(train_cols)
        return fp.transform(train_cols).matrix, fp.transform(subset(val_idx)).matrix

    n = len(features[0]) if features else 0
    report = _search(spec, n, y, build, k, budget, seed)
    fp = fit_preprocessor(features)
    x_all = fp.transform(features).matrix
    best_seed = stream_index(seed, _STREAM_CONFIG, report.best_index)
    best_model = train(
        spec.with_params(**report.best.params), x_all, y, seed=best_seed,
        preprocessor=fp, class_labels=class_labels,
    )
    return best_model, report
