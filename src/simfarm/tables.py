"""Row-aligned result tables and typed analysis columns.

A :class:`ResultTable` is the universal carrier of simulation output: named
columns plus the reserved ``_index`` (design-row index) and ``_status``
(``ok``/``failed``) columns.  CSV serialization uses UTF-8, RFC-4180 quoting,
``\n`` line endings, a dot decimal separator, and ``.17g`` float formatting so
write-then-read round-trips values bit-exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidArgumentError, ParseError

__all__ = [
    "STATUS_OK",
    "STATUS_FAILED",
    "ResultTable",
    "DataColumn",
    "columns_from_table",
    "format_float",
    "format_floats",
    "CSV_BLOCK_ROWS",
]

STATUS_OK = "ok"
STATUS_FAILED = "failed"
RESERVED_INDEX = "_index"
RESERVED_STATUS = "_status"
# CSV writers format this many rows column-wise at a time: whole-column string
# lists would cost tens of MiB at campaign sizes, per-cell calls cost time.
CSV_BLOCK_ROWS = 4096


def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits (lossless round-trip)."""
    if math.isnan(x):
        return ""
    return format(float(x), ".17g")


def format_floats(values: np.ndarray) -> list[str]:
    """:func:`format_float` over a float array, one cell string per value."""
    floats = np.asarray(values, dtype=np.float64).tolist()
    return ["" if x != x else format(x, ".17g") for x in floats]


def _as_column_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind in "fiub":
        return arr.astype(np.float64)
    return np.asarray(values, dtype=object)


@dataclass
class ResultTable:
    """Named columns aligned to design-row indices with per-row status."""

    index: np.ndarray
    status: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.index = np.asarray(self.index, dtype=np.int64)
        self.status = np.asarray(self.status, dtype=object)
        n = len(self.index)
        if len(self.status) != n:
            raise InvalidArgumentError("status length does not match index length")
        if len(np.unique(self.index)) != n:
            raise InvalidArgumentError("index values must be unique")
        bad = [s for s in self.status if s not in (STATUS_OK, STATUS_FAILED)]
        if bad:
            raise InvalidArgumentError(f"unknown status value {bad[0]!r}")
        cleaned = {}
        for name, values in self.columns.items():
            if name in (RESERVED_INDEX, RESERVED_STATUS):
                raise InvalidArgumentError(f"column name {name!r} is reserved")
            arr = _as_column_array(values)
            if len(arr) != n:
                raise InvalidArgumentError(f"column {name!r} has length {len(arr)}, expected {n}")
            cleaned[name] = arr
        self.columns = cleaned

    @property
    def n_rows(self) -> int:
        return len(self.index)

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column named {name!r}")
        return self.columns[name]

    def ok_mask(self) -> np.ndarray:
        return np.array([s == STATUS_OK for s in self.status], dtype=bool)

    def take(self, positions) -> "ResultTable":
        positions = np.asarray(positions, dtype=np.int64)
        return ResultTable(
            index=self.index[positions],
            status=self.status[positions],
            columns={k: v[positions] for k, v in self.columns.items()},
        )

    @classmethod
    def empty(cls, column_names: Sequence[str] = ()) -> "ResultTable":
        return cls(
            index=np.empty(0, dtype=np.int64),
            status=np.empty(0, dtype=object),
            columns={name: np.empty(0, dtype=np.float64) for name in column_names},
        )

    @classmethod
    def concat(cls, tables: Iterable["ResultTable"]) -> "ResultTable":
        tables = [t for t in tables if t is not None]
        if not tables:
            return cls.empty()
        names = tables[0].column_names
        for t in tables[1:]:
            if t.column_names != names:
                raise InvalidArgumentError("cannot concatenate tables with different columns")
        return cls(
            index=np.concatenate([t.index for t in tables]),
            status=np.concatenate([t.status for t in tables]),
            columns={
                name: np.concatenate([t.columns[name] for t in tables]) for name in names
            },
        )

    # -- CSV ---------------------------------------------------------------

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([RESERVED_INDEX, RESERVED_STATUS, *self.columns])
        for lo in range(0, self.n_rows, CSV_BLOCK_ROWS):
            block = slice(lo, lo + CSV_BLOCK_ROWS)
            cols = [self.index[block].tolist(), self.status[block].tolist()]
            for arr in self.columns.values():
                if arr.dtype.kind == "f":
                    cols.append(format_floats(arr[block]))
                else:
                    cols.append(["" if v is None else str(v) for v in arr[block]])
            writer.writerows(zip(*cols))

    @classmethod
    def from_csv(cls, path) -> "ResultTable":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return cls.read_csv(fh)

    @classmethod
    def read_csv(cls, fh) -> "ResultTable":
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("missing header row", line=1) from None
        if not header or all(not h.strip() for h in header):
            raise ParseError("missing header row", line=1)
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} columns, found {len(row)}", line=reader.line_num
                )
            rows.append((reader.line_num, row))
        has_index = RESERVED_INDEX in header
        has_status = RESERVED_STATUS in header
        idx_pos = header.index(RESERVED_INDEX) if has_index else None
        st_pos = header.index(RESERVED_STATUS) if has_status else None
        data_names = [h for h in header if h not in (RESERVED_INDEX, RESERVED_STATUS)]
        data_pos = [header.index(h) for h in data_names]

        n = len(rows)
        index = np.arange(n, dtype=np.int64)
        status = np.array([STATUS_OK] * n, dtype=object)
        raw = {name: [None] * n for name in data_names}
        for i, (line, row) in enumerate(rows):
            if has_index:
                try:
                    index[i] = int(row[idx_pos])
                except ValueError:
                    raise ParseError(f"unparsable {RESERVED_INDEX} cell {row[idx_pos]!r}", line=line) from None
            if has_status:
                s = row[st_pos]
                if s not in (STATUS_OK, STATUS_FAILED):
                    raise ParseError(f"unknown status {s!r}", line=line)
                status[i] = s
            for name, pos in zip(data_names, data_pos):
                raw[name][i] = row[pos]

        columns: dict[str, np.ndarray] = {}
        for name in data_names:
            cells = raw[name]
            numeric = np.empty(n, dtype=np.float64)
            is_numeric = True
            for i, cell in enumerate(cells):
                if cell == "":
                    numeric[i] = np.nan
                    continue
                try:
                    numeric[i] = float(cell)
                except ValueError:
                    is_numeric = False
                    break
            if is_numeric:
                columns[name] = numeric
            else:
                columns[name] = np.array(
                    [None if c == "" else c for c in cells], dtype=object
                )
        return cls(index=index, status=status, columns=columns)


@dataclass
class DataColumn:
    """A single analysis column: numeric (NaN = missing) or categorical (None = missing)."""

    name: str
    kind: str  # "numeric" | "categorical"
    values: np.ndarray

    def __post_init__(self):
        if self.kind == "numeric":
            self.values = np.asarray(self.values, dtype=np.float64)
            finite = self.values[~np.isnan(self.values)]
            if finite.size and not np.all(np.isfinite(finite)):
                raise InvalidArgumentError(
                    f"numeric column {self.name!r} contains non-finite values"
                )
        elif self.kind == "categorical":
            self.values = np.asarray(
                [None if v is None else str(v) for v in self.values], dtype=object
            )
        else:
            raise InvalidArgumentError(f"unknown column kind {self.kind!r}")

    @classmethod
    def numeric(cls, name: str, values) -> "DataColumn":
        return cls(name=name, kind="numeric", values=np.asarray(values, dtype=np.float64))

    @classmethod
    def categorical(cls, name: str, values) -> "DataColumn":
        return cls(name=name, kind="categorical", values=np.asarray(values, dtype=object))

    def __len__(self) -> int:
        return len(self.values)

    def missing_mask(self) -> np.ndarray:
        if self.kind == "numeric":
            return np.isnan(self.values)
        return np.array([v is None for v in self.values], dtype=bool)

    def non_missing(self) -> np.ndarray:
        return self.values[~self.missing_mask()]

    def levels(self) -> list[str]:
        """Observed categorical levels in first-appearance order."""
        seen: dict[str, None] = {}
        for v in self.values:
            if v is not None:
                seen.setdefault(v, None)
        return list(seen)


def columns_from_table(table: ResultTable, ok_only: bool = True) -> list[DataColumn]:
    """View a ResultTable's data columns as typed analysis columns."""
    mask = table.ok_mask() if ok_only else np.ones(table.n_rows, dtype=bool)
    out = []
    for name, arr in table.columns.items():
        if arr.dtype.kind == "f":
            out.append(DataColumn.numeric(name, arr[mask]))
        else:
            out.append(DataColumn.categorical(name, arr[mask]))
    return out
