"""Row-aligned result tables and typed analysis columns.

A :class:`ResultTable` is the universal carrier of simulation output: named
columns plus design-row indices and a bool status per row (true = ok), which
CSV spells as the reserved ``_index`` and ``_status`` (``ok``/``failed``)
columns.  CSV serialization uses UTF-8, RFC-4180 quoting, ``\n`` line
endings, a dot decimal separator, and ``.17g`` float formatting so
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
    """Named columns aligned to design-row indices; ``status`` is bool, true = ok."""

    index: np.ndarray
    status: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.index = np.asarray(self.index, dtype=np.int64)
        self.status = np.asarray(self.status)
        if self.status.dtype != np.bool_:
            raise InvalidArgumentError(f"status must be a bool array, got {self.status.dtype}")
        n = len(self.index)
        if len(self.status) != n:
            raise InvalidArgumentError("status length does not match index length")
        if len(np.unique(self.index)) != n:
            raise InvalidArgumentError("index values must be unique")
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
        return self.status

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
            status=np.empty(0, dtype=bool),
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
            status = np.where(self.status[block], STATUS_OK, STATUS_FAILED)
            cols = [self.index[block].tolist(), status.tolist()]
            for arr in self.columns.values():
                if arr.dtype.kind == "f":
                    cols.append(format_floats(arr[block]))
                else:
                    cols.append(["" if v is None else str(v) for v in arr[block]])
            writer.writerows(zip(*cols))

    @classmethod
    def from_csv(cls, path) -> "ResultTable":
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                return cls.read_csv(fh)
        except UnicodeDecodeError:
            raise _utf8_error(path) from None

    @classmethod
    def read_csv(cls, fh) -> "ResultTable":
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("missing header row", line=1) from None
        if not header or all(not h.strip() for h in header):
            raise ParseError("missing header row", line=1)
        dup = next((h for i, h in enumerate(header) if h in header[:i]), None)
        if dup is not None:
            raise ParseError(f"duplicate column name {dup!r}", line=1)
        rows, lines = [], []
        for row in reader:
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} columns, found {len(row)}", line=reader.line_num
                )
            rows.append(row)
            lines.append(reader.line_num)
        n = len(rows)
        cells = dict(zip(header, zip(*rows) if rows else [()] * len(header)))

        # Report the first bad reserved cell in row order, _index before _status.
        problems = []
        index, status = np.arange(n, dtype=np.int64), np.ones(n, dtype=bool)
        if RESERVED_INDEX in cells:
            column = cells.pop(RESERVED_INDEX)
            try:
                index = np.array([int(c) for c in column], dtype=np.int64)
            except ValueError:
                for i, c in enumerate(column):
                    try:
                        int(c)
                    except ValueError:
                        problems.append((i, f"unparsable {RESERVED_INDEX} cell {c!r}"))
                        break
        if RESERVED_STATUS in cells:
            column = cells.pop(RESERVED_STATUS)
            spelled = np.array(column, dtype=object)
            status = spelled == STATUS_OK
            known = status | (spelled == STATUS_FAILED)
            if not known.all():
                i = int(np.argmin(known))
                problems.append((i, f"unknown status {column[i]!r}"))
        if problems:
            i, message = min(problems, key=lambda p: p[0])
            raise ParseError(message, line=lines[i])

        columns = {name: _parse_column(column) for name, column in cells.items()}
        return cls(index=index, status=status, columns=columns)


def _utf8_error(path) -> ParseError:
    """A ParseError naming the line and byte offset of the first non-UTF-8 byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ParseError(
            f"not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset {exc.start}",
            line=raw.count(b"\n", 0, exc.start) + 1,
        )
    return ParseError("not UTF-8 text", line=1)


def _parse_column(cells: Sequence[str]) -> np.ndarray:
    """Float64 (NaN for empty cells) if every cell parses, else object (None for empty)."""
    try:
        return np.array([float(c) if c else math.nan for c in cells], dtype=np.float64)
    except ValueError:
        return np.array([c if c else None for c in cells], dtype=object)


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
