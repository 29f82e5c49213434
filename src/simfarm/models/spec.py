"""Model specifications: families, tasks, and hyperparameter ranges.

A :class:`ModelSpec` fixes a family and task and maps hyperparameter names to
either concrete values or sampling ranges (:class:`FloatRange`,
:class:`IntRange`, :class:`Choice`).  ``random_search_cv`` samples ranges
uniformly (log-uniformly when flagged); ``train`` requires every
hyperparameter to be fixed.  ``_TABLE`` holds each family's model class,
default search space (its keys are the allowed hyperparameters), tasks and
the hyperparameters that a search caps at the training rows; a fixed value
must have the type that the model class's ``HYPERPARAMETERS`` rule takes,
and the model's constructor checks its range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ModelSpecError
from ..schema import Invalid
from .forest import RandomForest
from .linear import RidgeRegressor
from .mlp import MlpModel
from .neighbors import KnnModel
from .state import TASKS
from .tree import CartTree

__all__ = [
    "FAMILIES",
    "MODEL_CLASSES",
    "TASKS",
    "FloatRange",
    "IntRange",
    "Choice",
    "ModelSpec",
    "default_spec",
    "sample_params",
]

@dataclass(frozen=True)
class FloatRange:
    lo: float
    hi: float
    log: bool = False

    def validate(self, name: str) -> None:
        if not (self.lo < self.hi):
            raise ModelSpecError(f"{name}: empty range [{self.lo}, {self.hi}]")
        if self.log and self.lo <= 0:
            raise ModelSpecError(f"{name}: log range requires positive bounds")

    def sample(self, rng: np.random.Generator) -> float:
        if self.log:
            return float(math.exp(rng.uniform(math.log(self.lo), math.log(self.hi))))
        return float(rng.uniform(self.lo, self.hi))


@dataclass(frozen=True)
class IntRange:
    lo: int
    hi: int  # inclusive
    log: bool = False

    def validate(self, name: str) -> None:
        if not (self.lo <= self.hi):
            raise ModelSpecError(f"{name}: empty range [{self.lo}, {self.hi}]")
        if self.log and self.lo < 1:
            raise ModelSpecError(f"{name}: log range requires lo >= 1")

    def sample(self, rng: np.random.Generator) -> int:
        if self.log:
            v = math.exp(rng.uniform(math.log(self.lo), math.log(self.hi + 1)))
            return int(min(self.hi, max(self.lo, math.floor(v))))
        return int(rng.integers(self.lo, self.hi + 1))


@dataclass(frozen=True)
class Choice:
    options: tuple

    def validate(self, name: str) -> None:
        if not self.options:
            raise ModelSpecError(f"{name}: empty choice list")

    def sample(self, rng: np.random.Generator):
        return self.options[int(rng.integers(0, len(self.options)))]


@dataclass(frozen=True)
class _Family:
    model: type
    space: dict  # the default search space; its keys are the allowed hyperparameters
    tasks: tuple = TASKS
    row_counts: tuple = ()  # hyperparameters that may not exceed the training rows


_TABLE = {
    "linear_ridge": _Family(RidgeRegressor, {"lam": FloatRange(1e-6, 1e2, log=True)},
                            tasks=("regression",)),
    "knn": _Family(KnnModel, {"k": IntRange(1, 25)}, row_counts=("k",)),
    "cart_tree": _Family(CartTree, {"max_depth": IntRange(2, 12), "min_leaf": IntRange(1, 10)}),
    "random_forest": _Family(RandomForest, {
        "n_trees": IntRange(10, 60),
        "max_depth": IntRange(2, 12),
        "min_leaf": IntRange(1, 10),
        "feature_fraction": FloatRange(0.3, 1.0),
        "bootstrap": True,
    }),
    "mlp": _Family(MlpModel, {
        "hidden": Choice(((8,), (16,), (32,), (16, 16), (32, 16))),
        "learning_rate": FloatRange(1e-3, 1e-1, log=True),
        "epochs": IntRange(50, 300),
        "batch_size": Choice((16, 32, 64)),
    }),
}
FAMILIES = tuple(_TABLE)
MODEL_CLASSES = {name: family.model for name, family in _TABLE.items()}


@dataclass
class ModelSpec:
    family: str
    task: str
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ModelSpecError(f"unknown family {self.family!r}; known: {list(FAMILIES)}")
        if self.task not in TASKS:
            raise ModelSpecError(f"unknown task {self.task!r}; known: {list(TASKS)}")
        family = _TABLE[self.family]
        if self.task not in family.tasks:
            raise ModelSpecError(f"{self.family} supports {' and '.join(family.tasks)} only")
        for name, value in self.params.items():
            if name not in family.space:
                raise ModelSpecError(
                    f"{self.family} has no hyperparameter {name!r}; allowed: {sorted(family.space)}"
                )
            if isinstance(value, (FloatRange, IntRange, Choice)):
                value.validate(name)
                continue
            try:
                family.model.HYPERPARAMETERS[name](value, (name,))
            except Invalid as bad:
                # a value of the right type but out of range is the constructor's TrainingError
                if not bad.typed:
                    raise ModelSpecError(f"{self.family} hyperparameter {bad.text}") from None

    def is_fixed(self) -> bool:
        return not any(
            isinstance(v, (FloatRange, IntRange, Choice)) for v in self.params.values()
        )

    def with_params(self, **fixed) -> "ModelSpec":
        return replace(self, params={**self.params, **fixed})

    def fixed_params(self) -> dict:
        if not self.is_fixed():
            raise ModelSpecError("spec still contains unsampled hyperparameter ranges")
        return dict(self.params)


def default_spec(family: str, task: str) -> ModelSpec:
    """A sensible random-search space for each family."""
    spec = ModelSpec(family, task, dict(_TABLE[family].space) if family in _TABLE else {})
    spec.validate()
    return spec


def sample_params(spec: ModelSpec, rng: np.random.Generator, rows: int | None = None) -> dict:
    """Draw one concrete configuration from the spec's ranges.

    With ``rows``, the size of the smallest training set the configuration
    will fit, a sampled hyperparameter that counts training rows (kNN's
    ``k``) is capped at it; the draws are unchanged, so the other
    hyperparameters are too.  A fixed value is kept as given.
    """
    capped = () if rows is None else _TABLE[spec.family].row_counts
    out = {}
    for name in sorted(spec.params):
        value = spec.params[name]
        if isinstance(value, (FloatRange, IntRange, Choice)):
            out[name] = value.sample(rng)
            if name in capped:
                out[name] = min(out[name], rows)
        else:
            out[name] = value
    return out
