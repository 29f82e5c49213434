"""Outlier detection by z-score or interquartile-range fences.

Quantiles use linear interpolation between order statistics (the "type 7"
convention, numpy's default).  Degenerate scale (zero standard deviation or
zero IQR) flags nothing and is noted in the report.  So is a z-score test
of ``n`` values with ``(n - 1) / sqrt(n) <= k``: no value of a sample can lie
further than ``(n - 1) / sqrt(n)`` sample standard deviations from its mean
(Shiffler 1988), so such a test can flag nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError
from ..tables import DataColumn

__all__ = ["OutlierReport", "detect_outliers"]


@dataclass
class OutlierReport:
    method: str
    k: float
    flagged: np.ndarray  # positions within the column (missing rows keep their position)
    thresholds: dict[str, float]
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "method": self.method,
            "k": self.k,
            "flagged": [int(i) for i in self.flagged],
            "thresholds": self.thresholds,
            "note": self.note,
        }


def detect_outliers(sample, method: str = "iqr", k: float | None = None) -> OutlierReport:
    """Flag outliers in a numeric sample; defaults: zscore(k=3), iqr(k=1.5)."""
    if isinstance(sample, DataColumn):
        if sample.kind != "numeric":
            raise InvalidArgumentError(f"column {sample.name!r} is not numeric")
        values = sample.values
    else:
        values = np.asarray(sample, dtype=np.float64)
    present = ~np.isnan(values)
    x = values[present]
    positions = np.nonzero(present)[0]
    if len(x) < 4:
        raise InvalidArgumentError(f"need at least 4 non-missing values, got {len(x)}")

    note = None
    if method == "zscore":
        k = 3.0 if k is None else float(k)
        mean = float(x.mean())
        sd = float(x.std(ddof=1))
        thresholds = {"mean": mean, "sd": sd, "lower": mean - k * sd, "upper": mean + k * sd}
        if sd == 0.0:
            return OutlierReport(
                method, k, np.empty(0, dtype=np.int64), thresholds,
                note="degenerate scale: standard deviation is zero",
            )
        mask = np.abs(x - mean) > k * sd
        max_z = (len(x) - 1) / np.sqrt(len(x))
        if max_z <= k:
            note = (
                f"no z-score of {len(x)} values can exceed (n - 1) / sqrt(n) = "
                f"{max_z:.4g} <= k, so nothing can be flagged"
            )
    elif method == "iqr":
        k = 1.5 if k is None else float(k)
        q1 = float(np.quantile(x, 0.25))
        q3 = float(np.quantile(x, 0.75))
        iqr = q3 - q1
        lower, upper = q1 - k * iqr, q3 + k * iqr
        thresholds = {"q1": q1, "q3": q3, "iqr": iqr, "lower": lower, "upper": upper}
        if iqr == 0.0:
            return OutlierReport(
                method, k, np.empty(0, dtype=np.int64), thresholds,
                note="degenerate scale: IQR is zero",
            )
        mask = (x < lower) | (x > upper)
    else:
        raise InvalidArgumentError(f"unknown method {method!r}; use 'zscore' or 'iqr'")

    return OutlierReport(method, k, positions[mask], thresholds, note)
