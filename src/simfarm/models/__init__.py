"""Surrogate modeling: preprocessing, a small from-scratch model family,
cross-validation, random-search tuning, SMOTE resampling, and metrics.

Preprocessing follows one rule per column kind: numeric columns are
mean-imputed and z-scored, categorical columns are mode-imputed (ties go to
the level seen first) and one-hot encoded in first-appearance order."""

from .forest import RandomForest
from .linear import RidgeRegressor
from .metrics import evaluate_metrics
from .mlp import MlpModel
from .neighbors import KnnModel
from .preprocess import FittedPreprocessor, fit_preprocessor
from .selection import CvReport, kfold_split, random_search_cv, random_search_cv_table
from .serialize import load_model, save_model
from .smote import SmoteResult, smote
from .spec import Choice, FloatRange, IntRange, ModelSpec, default_spec
from .train import TrainedModel, train
from .tree import CartTree

__all__ = [
    "RandomForest",
    "RidgeRegressor",
    "evaluate_metrics",
    "MlpModel",
    "KnnModel",
    "FittedPreprocessor",
    "fit_preprocessor",
    "CvReport",
    "kfold_split",
    "random_search_cv",
    "random_search_cv_table",
    "load_model",
    "save_model",
    "SmoteResult",
    "smote",
    "Choice",
    "FloatRange",
    "IntRange",
    "ModelSpec",
    "default_spec",
    "TrainedModel",
    "train",
    "CartTree",
]
