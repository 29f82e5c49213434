"""Exploratory summaries: five-number stats, histograms, class balance,
correlation and association matrices.

Histogram bin counts follow the Freedman-Diaconis rule floored at one bin;
boxplot-style outlier counts use the same iqr(1.5) fences as
:func:`simfarm.analysis.outliers.detect_outliers`.  Pairwise statistics drop
rows where either column is missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError, InvalidArgumentError
from ..tables import DataColumn
from .features import pearson_r
from .outliers import detect_outliers
from .ranks import midranks

__all__ = ["NumericSummary", "CategoricalSummary", "EdaReport", "eda_summary", "fd_bin_count"]


def fd_bin_count(x: np.ndarray) -> int:
    """Freedman-Diaconis bin count, floored at 1."""
    n = len(x)
    if n < 2:
        return 1
    iqr = float(np.quantile(x, 0.75) - np.quantile(x, 0.25))
    span = float(x.max() - x.min())
    if iqr == 0.0 or span == 0.0:
        return 1
    width = 2.0 * iqr * n ** (-1.0 / 3.0)
    return max(1, math.ceil(span / width))


@dataclass
class NumericSummary:
    name: str
    count: int
    mean: float | None = None
    sd: float | None = None
    min: float | None = None
    q1: float | None = None
    median: float | None = None
    q3: float | None = None
    max: float | None = None
    iqr_outlier_count: int = 0
    bin_edges: list[float] = field(default_factory=list)
    bin_counts: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "count": self.count, "mean": self.mean, "sd": self.sd,
            "min": self.min, "q1": self.q1, "median": self.median, "q3": self.q3,
            "max": self.max, "iqr_outlier_count": self.iqr_outlier_count,
            "histogram": {"bin_edges": self.bin_edges, "counts": self.bin_counts},
        }


@dataclass
class CategoricalSummary:
    name: str
    count: int
    frequencies: dict[str, int] = field(default_factory=dict)
    balance: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "count": self.count,
            "frequencies": self.frequencies, "balance": self.balance,
        }


@dataclass
class EdaReport:
    numeric: list[NumericSummary]
    categorical: list[CategoricalSummary]
    pearson: dict
    spearman: dict
    cramers_v: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "numeric": [s.to_dict() for s in self.numeric],
            "categorical": [s.to_dict() for s in self.categorical],
            "pearson": self.pearson,
            "spearman": self.spearman,
            "cramers_v": self.cramers_v,
        }


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    return pearson_r(midranks(x), midranks(y))


def _cramers_v(a: np.ndarray, b: np.ndarray) -> float:
    levels_a = sorted({v for v in a})
    levels_b = sorted({v for v in b})
    r, c = len(levels_a), len(levels_b)
    if r < 2 or c < 2:
        return 0.0
    table = np.zeros((r, c))
    pos_a = {v: i for i, v in enumerate(levels_a)}
    pos_b = {v: i for i, v in enumerate(levels_b)}
    for va, vb in zip(a, b):
        table[pos_a[va], pos_b[vb]] += 1.0
    n = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = np.where(expected > 0, (table - expected) ** 2 / expected, 0.0)
    chi2 = float(contrib.sum())
    v2 = chi2 / (n * (min(r, c) - 1))
    return math.sqrt(max(0.0, min(1.0, v2)))


def _pair_matrix(cols: list[DataColumn], stat) -> dict:
    names = [c.name for c in cols]
    size = len(cols)
    matrix = np.ones((size, size))
    for i in range(size):
        for j in range(i + 1, size):
            keep = ~(cols[i].missing_mask() | cols[j].missing_mask())
            if keep.sum() < 2:
                value = 0.0
            else:
                value = stat(cols[i].values[keep], cols[j].values[keep])
            matrix[i, j] = matrix[j, i] = value
    return {"names": names, "matrix": [[float(v) for v in row] for row in matrix]}


def eda_summary(table: list[DataColumn]) -> EdaReport:
    """Summarize every column and compute pairwise association matrices."""
    if not table:
        raise InvalidArgumentError("table must contain at least one column")
    numeric_cols = [c for c in table if c.kind == "numeric"]
    cat_cols = [c for c in table if c.kind == "categorical"]

    numeric = []
    for col in numeric_cols:
        x = col.non_missing()
        n = len(x)
        if n == 0:
            numeric.append(NumericSummary(name=col.name, count=0))
            continue
        lo, hi = float(x.min()), float(x.max())
        if not math.isfinite(hi - lo):
            raise DomainError(
                f"numeric column {col.name!r}: its range {lo!r} to {hi!r} overflows a "
                "double, so it cannot be binned; rescale the column"
            )
        bins = fd_bin_count(x)
        counts, edges = np.histogram(x, bins=bins)
        outliers = 0
        if n >= 4:
            outliers = len(detect_outliers(col, method="iqr", k=1.5).flagged)
        numeric.append(
            NumericSummary(
                name=col.name,
                count=n,
                mean=float(x.mean()),
                sd=float(x.std(ddof=1)) if n > 1 else 0.0,
                min=float(x.min()),
                q1=float(np.quantile(x, 0.25)),
                median=float(np.quantile(x, 0.5)),
                q3=float(np.quantile(x, 0.75)),
                max=float(x.max()),
                iqr_outlier_count=outliers,
                bin_edges=[float(e) for e in edges],
                bin_counts=[int(c) for c in counts],
            )
        )

    categorical = []
    for col in cat_cols:
        values = [v for v in col.values if v is not None]
        n = len(values)
        freqs: dict[str, int] = {}
        for v in values:
            freqs[v] = freqs.get(v, 0) + 1
        balance = {k: v / n for k, v in freqs.items()} if n else {}
        categorical.append(
            CategoricalSummary(name=col.name, count=n, frequencies=freqs, balance=balance)
        )

    pearson = _pair_matrix(numeric_cols, pearson_r) if numeric_cols else {"names": [], "matrix": []}
    spearman = _pair_matrix(numeric_cols, _spearman) if numeric_cols else {"names": [], "matrix": []}
    cramers = _pair_matrix(cat_cols, _cramers_v) if cat_cols else {"names": [], "matrix": []}

    return EdaReport(
        numeric=numeric,
        categorical=categorical,
        pearson=pearson,
        spearman=spearman,
        cramers_v=cramers,
    )
