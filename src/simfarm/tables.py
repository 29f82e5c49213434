"""Row-aligned result tables and typed analysis columns.

A :class:`ResultTable` is the universal carrier of simulation output: named
columns plus design-row indices and a bool status per row (true = ok), which
CSV spells as the reserved ``_index`` and ``_status`` (``ok``/``failed``)
columns.  CSV serialization uses UTF-8, RFC-4180 quoting, ``\n`` line
endings, a dot decimal separator, and ``.17g`` float formatting so
write-then-read round-trips values bit-exactly.

Both directions work a block of ``CSV_BLOCK_ROWS`` rows at a time and cost
little more than ``float()`` or ``"%.17g" %`` per cell.  Design, chunk,
result and campaign CSVs are all written by :func:`write_csv_columns`, the
only place that knows how a cell is spelled: it spells each cell from its
column's dtype and formats a block with one row format string; a cell is
quoted only when it holds ``,``, ``"``, ``\n`` or ``\r`` (:func:`quote_cell`).
The reader takes one of two tokenizers.  Text with no ``"``, no ``\r`` and
no line longer than ``csv.field_size_limit()`` cannot hold a quoted or
over-long cell, so its records are exactly its ``\n``-separated lines split
at ``,`` (a blank line is a record of zero cells); whole columns of such a
block are parsed with ``map(float, ...)``.  Any other text is tokenized by
the ``csv`` module, and an error it raises becomes a
:class:`~simfarm.errors.ParseError` at its line.  Both tokenizers feed the
same header, row-width, reserved-cell and column checks, so they give the
same table or the same error for every input.  :func:`read_csv_tokens` is
the one way in from a file, for result tables and design CSVs alike.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .errors import InvalidArgumentError, ParseError

__all__ = [
    "ResultTable",
    "DataColumn",
    "columns_from_table",
    "format_float",
    "quote_cell",
    "write_csv_columns",
    "read_csv_tokens",
    "CSV_BLOCK_ROWS",
]

STATUS_OK = "ok"
STATUS_FAILED = "failed"
RESERVED_INDEX = "_index"
RESERVED_STATUS = "_status"
# CSV readers and writers handle this many rows at a time: whole-column string
# lists would cost tens of MiB at campaign sizes, per-cell calls cost time.
CSV_BLOCK_ROWS = 4096
_INT64 = np.iinfo(np.int64)


def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits (lossless round-trip)."""
    if math.isnan(x):
        return ""
    return format(float(x), ".17g")


def quote_cell(cell: str) -> str:
    """RFC 4180 minimal quoting: a cell holding ``,``, ``"``, ``\n`` or ``\r`` is
    wrapped in ``"`` with each ``"`` doubled; any other cell is written as is."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(values: np.ndarray) -> tuple[str, list]:
    """A column block as ``(conversion, values)`` for a row format; ``%s`` values are cells."""
    kind = values.dtype.kind
    if kind == "f":
        # "%.17g" % x is byte-equal to format(x, ".17g") for every double.
        if np.isnan(values).any():
            return "%s", ["" if x != x else "%.17g" % x for x in values.tolist()]
        return "%.17g", values.tolist()
    if kind in "iu":
        return "%d", values.tolist()
    if kind == "b":
        return "%s", np.where(values, "true", "false").tolist()
    cells = values.tolist()
    if kind != "U":
        cells = ["" if v is None else str(v) for v in cells]
    text = "".join(cells)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        cells = list(map(quote_cell, cells))
    return "%s", cells


def write_csv_columns(*targets: tuple[TextIO, Sequence[str], Sequence[np.ndarray]]) -> None:
    """Write each ``(fh, names, columns)`` target as a header row and the rows of its columns.

    A cell is spelled by its column's dtype: float as ``%.17g`` with NaN as
    an empty cell, integer as ``%d``, bool as ``true``/``false``, and any
    other value as its ``str`` with ``None`` as an empty cell, quoted by
    :func:`quote_cell`.  A file's rows end at its shortest column, and a row
    of one empty cell is written as ``""`` so it does not read back as a
    blank line.  The files are written together a block of
    ``CSV_BLOCK_ROWS`` rows at a time; a column array listed in more than
    one target is formatted once per block and written to each of them.
    """
    uses = Counter(id(arr) for _, _, columns in targets for arr in columns)
    n_rows = [min(map(len, columns), default=0) for _, _, columns in targets]
    for fh, names, _ in targets:
        fh.write(",".join(map(quote_cell, names)) + "\n")
    for lo in range(0, max(n_rows, default=0), CSV_BLOCK_ROWS):
        blocks: dict[int, tuple[str, list]] = {}  # by id(array): formatted once per block
        for (fh, _, columns), n in zip(targets, n_rows):
            if lo >= n:
                continue
            block = []
            for arr in columns:
                if id(arr) not in blocks:
                    conversion, values = _cells(arr[lo : lo + CSV_BLOCK_ROWS])
                    if uses[id(arr)] > 1 and conversion != "%s":
                        conversion, values = "%s", list(map(conversion.__mod__, values))
                    blocks[id(arr)] = conversion, values
                block.append(blocks[id(arr)])
            if len(block) == 1 and block[0][0] == "%s":
                block = [("%s", [c or '""' for c in block[0][1]])]
            fmt = ",".join(conversion for conversion, _ in block) + "\n"
            fh.write("".join(map(fmt.__mod__, zip(*(values for _, values in block)))))


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
        # A sort and a neighbour test: several times cheaper than np.unique,
        # which hashes, on the chunk-sized tables a run builds per chunk.
        ordered = np.sort(self.index)
        if (ordered[1:] == ordered[:-1]).any():
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
        status = np.where(self.status, STATUS_OK, STATUS_FAILED)
        write_csv_columns((
            fh,
            [RESERVED_INDEX, RESERVED_STATUS, *self.columns],
            [self.index, status, *self.columns.values()],
        ))

    @classmethod
    def from_csv(cls, path) -> "ResultTable":
        return cls._from_tokens(read_csv_tokens(path, _check_header))

    @classmethod
    def read_csv(cls, fh) -> "ResultTable":
        return cls._from_tokens(_tokenize(fh.read(), _check_header))

    @classmethod
    def _from_tokens(cls, tokens: _Tokens) -> "ResultTable":
        header, n, block_cells, line_of = tokens
        names = [h for h in header if h not in (RESERVED_INDEX, RESERVED_STATUS)]
        index = np.arange(n, dtype=np.int64)
        status = np.ones(n, dtype=bool)
        columns = {name: np.empty(n, dtype=np.float64) for name in names}

        def parse_block(lo: int, hi: int) -> None:
            # A function, so a block's cell strings are freed before the next is split.
            cells = dict(zip(header, block_cells(lo, hi)))

            # Report the first bad reserved cell in row order, _index before _status.
            problems = []
            if RESERVED_INDEX in cells:
                column = cells.pop(RESERVED_INDEX)
                try:
                    index[lo:hi] = np.fromiter(map(int, column), np.int64, hi - lo)
                except (ValueError, OverflowError):
                    i = next(i for i, c in enumerate(column) if not _is_int64(c))
                    problems.append((i, f"unparsable {RESERVED_INDEX} cell {column[i]!r}"))
            if RESERVED_STATUS in cells:
                spelled = np.array(cells.pop(RESERVED_STATUS), dtype=object)
                ok = spelled == STATUS_OK
                known = ok | (spelled == STATUS_FAILED)
                if not known.all():
                    i = int(np.argmin(known))
                    problems.append((i, f"unknown status {spelled[i]!r}"))
                status[lo:hi] = ok
            if problems:
                i, message = min(problems, key=lambda p: p[0])
                raise ParseError(message, line=line_of(lo + i))

            for name, column in cells.items():
                out = columns[name]
                parsed = _objects(column) if out.dtype == object else _parse_column(column)
                if parsed.dtype == object and out.dtype != object:
                    # A text cell makes the whole column text, earlier blocks too.
                    out = columns[name] = np.empty(n, dtype=object)
                    j = header.index(name)
                    for lo2 in range(0, lo, CSV_BLOCK_ROWS):
                        out[lo2 : lo2 + CSV_BLOCK_ROWS] = _objects(
                            block_cells(lo2, lo2 + CSV_BLOCK_ROWS)[j]
                        )
                out[lo:hi] = parsed

        for lo in range(0, n, CSV_BLOCK_ROWS):
            parse_block(lo, min(lo + CSV_BLOCK_ROWS, n))
        return cls(index=index, status=status, columns=columns)


# A tokenized CSV text: the header cells, the number of records after it, the
# cells of records [lo, hi) column by column, and the line a record ends on.
_Tokens = tuple[list[str], int, Callable[[int, int], Sequence[Sequence[str]]], Callable[[int], int]]


def read_csv_tokens(path, check_header: Callable[[list[str]], None]) -> _Tokens:
    """Tokenize the UTF-8 CSV file at ``path``.

    ``check_header`` raises for an unacceptable header row (a blank first
    line reads as no cells) before any record is checked.  A byte that is
    not UTF-8 is a :class:`ParseError` naming its line and byte offset.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return _tokenize(fh.read(), check_header)
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


def _tokenize(text: str, check_header: Callable[[list[str]], None]) -> _Tokens:
    """Split CSV text into records, by ``str.split`` where that is exact."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if '"' in text or "\r" in text or max(map(len, lines), default=0) > csv.field_size_limit():
        return _tokenize_with_csv_module(text, check_header)
    header = lines[0].split(",") if lines and lines[0] else []
    check_header(header)
    width = len(header)
    body = lines[1:]
    if set(map(str.count, body, repeat(","))) - {width - 1} or "" in body:
        for i, line in enumerate(body):
            _check_width(line.count(",") + 1 if line else 0, width, line=i + 2)

    def block_cells(lo: int, hi: int) -> list[list[str]]:
        flat = ",".join(body[lo:hi]).split(",")
        return [flat[j::width] for j in range(width)]

    return header, len(body), block_cells, lambda i: i + 2


def _tokenize_with_csv_module(text: str, check_header: Callable[[list[str]], None]) -> _Tokens:
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, [])
        check_header(header)
        rows, lines = [], []
        for row in reader:
            _check_width(len(row), len(header), line=reader.line_num)
            rows.append(row)
            lines.append(reader.line_num)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None
    return header, len(rows), lambda lo, hi: list(zip(*rows[lo:hi])), lines.__getitem__


def _check_header(header: list[str]) -> None:
    if not header or all(not h.strip() for h in header):
        raise ParseError("missing header row", line=1)
    dup = next((h for i, h in enumerate(header) if h in header[:i]), None)
    if dup is not None:
        raise ParseError(f"duplicate column name {dup!r}", line=1)


def _check_width(found: int, width: int, line: int) -> None:
    if found != width:
        raise ParseError(f"expected {width} columns, found {found}", line=line)


def _is_int64(cell: str) -> bool:
    try:
        return _INT64.min <= int(cell) <= _INT64.max
    except ValueError:
        return False


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
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        pass
    try:
        return np.array([float(c) if c else math.nan for c in cells], dtype=np.float64)
    except ValueError:
        return _objects(cells)


def _objects(cells: Sequence[str]) -> np.ndarray:
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
        return np.equal(self.values, None)

    def non_missing(self) -> np.ndarray:
        return self.values[~self.missing_mask()]

    def levels(self) -> list[str]:
        """Observed categorical levels in first-appearance order."""
        distinct, first = np.unique(self.non_missing(), return_index=True)
        return distinct[np.argsort(first)].tolist()


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
