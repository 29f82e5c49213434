"""Column preprocessing with strictly fit-time statistics.

One rule per column kind.  A numeric column is mean-imputed and z-scored.  A
categorical column is mode-imputed (ties go to the level seen first) and
one-hot encoded, one feature per level in first-appearance order; it must be
encoded to enter the numeric feature matrix.  The statistics are learned from
the fit table and frozen into the :class:`FittedPreprocessor`; applying it to
new data can never change how earlier data transforms (no leakage).  Unseen
levels map to an all-zero block and are flagged in the transform metadata.

Every model family's ``fit`` starts with :func:`fit_data`, the one check of
its training data; :func:`majority` is the class vote of kNN and forests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateSampleError, InvalidArgumentError, ModelFormatError, TrainingError
from ..schema import ANY, NULL, TEXT, check, fail, list_of, obj, one_of, real, reporting, tagged
from ..tables import DataColumn

__all__ = ["TransformResult", "FittedPreprocessor", "fit_preprocessor", "fit_data", "class_codes",
           "regression_targets", "majority"]

# Each kind's rule as a saved model spells it.
_RULES = {
    "numeric": {"scaling": "zscore", "encoding": "none", "imputation": "mean"},
    "categorical": {"scaling": "none", "encoding": "onehot", "imputation": "mode"},
}
# A saved column: its kind's rule, and the statistics it learned.
_COLUMN = tagged("kind", {
    kind: obj({"kind": TEXT, **{key: one_of(v) for key, v in _RULES[kind].items()}, **stats,
               "min": NULL, "max": NULL})
    for kind, stats in (
        ("numeric", {"impute_value": real(), "mean": real(), "sd": real(gt=0),
                     "levels": one_of([])}),
        ("categorical", {"impute_value": TEXT, "mean": NULL, "sd": NULL,
                         "levels": list_of(TEXT, min_len=1)}),
    )
})
_PREPROCESSOR = obj({"order": list_of(TEXT), "columns": obj(rest=ANY)})


@dataclass
class TransformResult:
    matrix: np.ndarray
    feature_names: list[str]
    unseen: list[tuple[int, str, str]] = field(default_factory=list)


@dataclass
class _ColumnStats:
    kind: str
    impute_value: float | str
    mean: float | None = None
    sd: float | None = None
    levels: list[str] = field(default_factory=list)


class FittedPreprocessor:
    """Frozen per-column statistics; ``transform`` only reads them."""

    def __init__(self, order: list[str], stats: dict[str, _ColumnStats]):
        self._order = order
        self._stats = stats

    @property
    def feature_names(self) -> list[str]:
        names = []
        for name in self._order:
            st = self._stats[name]
            if st.kind == "numeric":
                names.append(name)
            else:
                names.extend(f"{name}={level}" for level in st.levels)
        return names

    def transform(self, table: list[DataColumn]) -> TransformResult:
        by_name = {c.name: c for c in table}
        missing = [n for n in self._order if n not in by_name]
        if missing:
            raise InvalidArgumentError(f"table lacks fitted columns {missing}")
        n = len(table[0]) if table else 0
        blocks: list[np.ndarray] = []
        unseen: list[tuple[int, str, str]] = []
        for name in self._order:
            st = self._stats[name]
            col = by_name[name]
            if col.kind != st.kind:
                raise InvalidArgumentError(f"column {name!r} changed kind since fit")
            values = np.where(col.missing_mask(), st.impute_value, col.values)
            if st.kind == "numeric":
                blocks.append(((values - st.mean) / st.sd).reshape(-1, 1))
                continue
            distinct, inverse = np.unique(values, return_inverse=True)
            level_pos = {lv: i for i, lv in enumerate(st.levels)}
            pos = np.array([level_pos.get(v, -1) for v in distinct], dtype=np.int64)[inverse]
            block = np.zeros((n, len(st.levels)))
            seen = np.flatnonzero(pos >= 0)
            block[seen, pos[seen]] = 1.0
            blocks.append(block)
            unseen.extend((int(row), name, values[row]) for row in np.flatnonzero(pos < 0))
        matrix = np.hstack(blocks) if blocks else np.empty((n, 0))
        return TransformResult(matrix=matrix, feature_names=self.feature_names, unseen=unseen)

    def to_dict(self) -> dict:
        out = {"order": self._order, "columns": {}}
        for name, st in self._stats.items():
            out["columns"][name] = {
                "kind": st.kind,
                **_RULES[st.kind],
                "impute_value": st.impute_value,
                "mean": st.mean,
                "sd": st.sd,
                "min": None,
                "max": None,
                "levels": st.levels,
            }
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "FittedPreprocessor":
        """Rebuild from :meth:`to_dict`.  ``order`` names each column once, and each
        column follows its kind's rule with a finite mean and a finite sd > 0."""
        with reporting(ModelFormatError, "preprocessor"):
            doc = _PREPROCESSOR(doc, ())
            order, columns = doc["order"], doc["columns"]
            if len(set(order)) != len(order):
                fail(("order",), "a list of distinct column names", order, typed=True)
            obj(dict.fromkeys(order, ANY))(columns, ("columns",))
        stats = {}
        for name in order:
            context = f"preprocessor column {name!r}:"
            entry = check(columns[name], _COLUMN, ModelFormatError, context)
            stats[name] = _ColumnStats(kind=entry["kind"], impute_value=entry["impute_value"],
                                       mean=entry["mean"], sd=entry["sd"], levels=entry["levels"])
        return cls(order=order, stats=stats)


def fit_preprocessor(table: list[DataColumn]) -> FittedPreprocessor:
    """Learn each column's statistics from ``table`` under its kind's rule."""
    by_name = {c.name: c for c in table}
    stats: dict[str, _ColumnStats] = {}
    for name, col in by_name.items():
        present = col.non_missing()
        if present.size == 0:
            raise InvalidArgumentError(f"column {name!r} is entirely missing")
        if col.kind == "numeric":
            mean = float(present.mean())
            sd = float(present.std(ddof=0))
            if sd == 0.0:
                raise DegenerateSampleError(
                    f"column {name!r}: zscore scaling needs nonzero standard deviation"
                )
            stats[name] = _ColumnStats(kind="numeric", impute_value=mean, mean=mean, sd=sd)
        else:
            levels = col.levels()
            distinct, counts = np.unique(present, return_counts=True)
            count_of = dict(zip(distinct.tolist(), counts.tolist()))
            # max keeps the first of tied levels, so the level seen first wins
            mode = max(levels, key=count_of.__getitem__)
            stats[name] = _ColumnStats(kind="categorical", impute_value=mode, levels=levels)
    return FittedPreprocessor(order=list(by_name), stats=stats)


def class_codes(values: np.ndarray, name: str) -> np.ndarray:
    """Numeric class labels as int64; each must be a finite whole number.

    Raises ``InvalidArgumentError`` naming ``name`` for a dtype that is not
    numeric (text, object) and at the first bad row, where a plain cast would
    truncate 1.6 to 1 and turn NaN into a garbage class.
    """
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return values.astype(np.int64)
    if values.dtype.kind != "f":
        raise InvalidArgumentError(
            f"classification target {name!r} must be numeric, not dtype {values.dtype}"
        )
    bad = ~(np.isfinite(values) & (np.trunc(values) == values) & (np.abs(values) < 2.0**63))
    if bad.any():
        row = int(np.argmax(bad))
        raise InvalidArgumentError(
            f"classification target {name!r} must hold whole-number class labels; "
            f"row {row} holds {float(values[row])!r}"
        )
    return values.astype(np.int64)


def regression_targets(values: np.ndarray, name: str) -> np.ndarray:
    """Regression targets as float64; each must be finite.

    Raises ``InvalidArgumentError`` naming ``name`` and the first bad row,
    where a missing value would train every fold on NaN and save a NaN model.
    """
    y = np.asarray(values).astype(np.float64)
    bad = ~np.isfinite(y)
    if bad.any():
        row = int(np.argmax(bad))
        raise InvalidArgumentError(
            f"regression target {name!r} must hold finite numbers; row {row} holds {float(y[row])!r}"
        )
    return y


def fit_data(task: str, X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(X, y, classes)`` as every model family's ``fit`` takes them.

    ``X`` becomes a float64 matrix of at least 2 rows aligned with the 1-D
    ``y``.  A regression ``y`` goes through :func:`regression_targets` and
    ``classes`` is None; a classification ``y`` goes through
    :func:`class_codes` and ``classes`` is its sorted int64 labels, at least 2.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise TrainingError("X must be a 2-D matrix aligned with y")
    if len(X) < 2:
        raise TrainingError("need at least 2 training rows")
    if task != "classification":
        return X, regression_targets(y, "y"), None
    y = class_codes(y, "y")
    classes = np.unique(y)
    if len(classes) < 2:
        raise TrainingError("classification needs at least 2 classes in y")
    return X, y, classes


def majority(classes: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The most common label of each row of ``labels`` (n, votes); ties go to the smallest.

    Every label must be one of the sorted ``classes``.
    """
    n, c = len(labels), len(classes)
    cells = np.arange(n)[:, None] * c + np.searchsorted(classes, labels)
    counts = np.bincount(cells.ravel(), minlength=n * c).reshape(n, c)
    return classes[np.argmax(counts, axis=1)]
