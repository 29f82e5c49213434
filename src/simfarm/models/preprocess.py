"""Column preprocessing with strictly fit-time statistics.

One rule per column kind.  A numeric column is mean-imputed and z-scored.  A
categorical column is mode-imputed (ties go to the level seen first) and
one-hot encoded, one feature per level in first-appearance order; it must be
encoded to enter the numeric feature matrix.  The statistics are learned from
the fit table and frozen into the :class:`FittedPreprocessor`; applying it to
new data can never change how earlier data transforms (no leakage).  Unseen
levels map to an all-zero block and are flagged in the transform metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateSampleError, InvalidArgumentError, ModelFormatError
from ..tables import DataColumn

__all__ = ["TransformResult", "FittedPreprocessor", "fit_preprocessor"]

# Each kind's rule as a saved model spells it.
_RULES = {
    "numeric": {"scaling": "zscore", "encoding": "none", "imputation": "mean"},
    "categorical": {"scaling": "none", "encoding": "onehot", "imputation": "mode"},
}


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
        stats = {}
        for name, entry in doc["columns"].items():
            kind = entry.get("kind")
            rule = _RULES.get(kind)
            if rule is None or any(entry.get(key) != value for key, value in rule.items()):
                raise ModelFormatError(
                    f"preprocessor column {name!r} does not follow the rule for {kind!r} columns"
                )
            stats[name] = _ColumnStats(
                kind=kind,
                impute_value=entry["impute_value"],
                mean=entry["mean"],
                sd=entry["sd"],
                levels=list(entry["levels"]),
            )
        return cls(order=list(doc["order"]), stats=stats)


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
