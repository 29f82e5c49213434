"""Row-aligned result tables and typed analysis columns.

A :class:`ResultTable` is the universal carrier of simulation output: named
columns plus design-row indices and a bool status per row (true = ok), which
CSV spells as the reserved ``_index`` and ``_status`` (``ok``/``failed``)
columns.  CSV serialization uses UTF-8, RFC-4180 quoting, ``\n`` line
endings, a dot decimal separator, and ``.17g`` float formatting so
write-then-read round-trips values bit-exactly.

Both directions work a block of ``CSV_BLOCK_ROWS`` rows at a time.  Design,
chunk, result and campaign CSVs are all written by :func:`write_csv_columns`,
the only place that knows how a cell is spelled: it spells each cell from its
column's dtype, and a block of a file is one byte matrix of its cells and
separators, built without a Python call per number cell
(:func:`format_g_cells` spells ``%.17g`` exactly, :func:`join_cell_rows`
joins the rows); a cell is quoted only when it holds ``,``, ``"``, ``\n`` or
``\r`` (:func:`quote_cell`).  Reading costs little more than ``float()`` per cell.
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
    "format_g_cells",
    "join_cell_rows",
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


# -- cells as byte rows ------------------------------------------------------------
#
# A block of cells is a (rows, width) uint8 matrix: each row holds one cell's
# UTF-8 bytes, in order but not necessarily contiguous, and _FILL, a byte that
# UTF-8 never uses, in every other place.  join_cell_rows lays such matrices
# side by side and deletes the fill, so a cell may leave gaps (a sign slot, a
# stripped zero) wherever that is cheaper than moving its bytes together.

_FILL = 0xFF
_POW10 = np.array([float(10**k) for k in range(23)])  # exact: 5**k < 2**53 for k <= 22
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles


def _quad_tables() -> tuple[np.ndarray, ...]:
    """The 4 bytes of every 4-digit group as one uint32: zero-padded, with trailing
    zeros as fill, with leading zeros as fill, and the same but 0 as ``0``."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy()  # row v: v's digits
    zero = digits == 0
    leading = np.logical_and.accumulate(zero, axis=1)
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    units = leading.copy()
    units[:, 3] = False
    ascii_ = digits + np.uint8(0x30)
    return tuple(
        np.where(fill, np.uint8(_FILL), ascii_).view(np.uint32).ravel()
        for fill in (np.zeros_like(zero), trailing, leading, units)
    )


_QUADS, _QUADS_STRIPPED, _QUADS_LEADING, _QUADS_UNITS = _quad_tables()
_BOOLS = np.frombuffer(b"falsetrue\xff", np.uint8).reshape(2, 5)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``a == hi + lo`` with each part fitting in 26 bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**k`` exactly as ``p + err`` by Dekker's two-product (no FMA needed)."""
    p = a * _POW10.take(k)
    ah, al = _split(a)
    th, tl = _POW10_HI.take(k), _POW10_LO.take(k)
    return p, ((ah * th - p) + ah * tl + al * th) + al * tl


def _quads(n: np.ndarray, groups: int) -> list[np.ndarray]:
    """The 4-digit groups of non-negative ints ``n``, most significant first."""
    out = []
    for _ in range(groups - 1):
        q = n // 10000
        out.append(n - q * 10000)
        n = q
    out.append(n)
    return out[::-1]


def _layouts(precision: int) -> tuple[list[int], list[np.ndarray]]:
    """Source columns of each fixed-notation cell, by ``2 * (E + 4) + negative``.

    The source row is the zero-padded digits of the scaled integer, the same
    digits with trailing zeros as fill, and the bytes ``-``, ``0``, ``.`` and
    fill; see :func:`_digit_rows`.  Returns each cell's width and its
    columns padded with fill to the widest cell, ``precision + 7`` bytes.
    """
    width = 4 * -(-precision // 4)
    digits, stripped = width - precision, 2 * width - precision
    minus, zero, point, fill = range(2 * width, 2 * width + 4)
    layouts = []
    for e in range(-4, precision):
        for neg in (False, True):
            row = [minus if neg else fill]
            if e >= 0:  # the point is fill where no digit follows it
                row += [digits + i for i in range(e + 1)]
                row += [point] * (e + 1 < precision) + [stripped + i for i in range(e + 1, precision)]
            else:
                row += [zero, point] + [zero] * (-e - 1) + [stripped + i for i in range(precision)]
            layouts.append(row)
    padded = [np.array(row + [fill] * (precision + 7 - len(row)), np.intp) for row in layouts]
    return list(map(len, layouts)), padded


_LAYOUTS = {p: _layouts(p) for p in (17, 6)}
_SOURCE_BYTES = np.frombuffer(b"-0.\xff", np.uint32)[0]


def _rounded_digits(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``p``-digit integer N and decimal exponent E that ``"%.{p}g" % v`` prints
    for each double v, and a mask of the values spelled from them.

    E is ``floor(log10|v|)``, corrected by one where ``|v| * 10**(p-1-E)``
    falls outside ``[10**(p-1), 10**p)``; that product is formed exactly as a
    pair of doubles by Dekker's two-product against the exact double
    ``10**k`` (0 <= k <= 22), and N is it rounded half to even.  The mask is
    false for zero, subnormals, inf, NaN and scientific notation (E outside
    [-4, p) after rounding); their N and E are meaningless.
    """
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(ax))
    # zero, subnormal, inf and NaN fail here; log10 is off by at most one
    near = (ax >= np.finfo(np.float64).tiny) & (e >= -5) & (e <= p)
    if not near.all():  # a stand-in keeps the arithmetic finite
        ax, e = np.where(near, ax, 1.0), np.where(near, e, 0.0)
    e = e.astype(np.intp)
    k = p - 1 - e[0] if len(e) and (e == e[0]).all() else np.clip(p - 1 - e, 0, 22)
    lo_n, hi_n = _POW10[p - 1], _POW10[p]
    hi, lo = _times_pow10(ax, k)
    below = (hi < lo_n) | ((hi == lo_n) & (lo < 0))
    above = (hi > hi_n) | ((hi == hi_n) & (lo >= 0))
    wrong = np.flatnonzero(below | above)
    if len(wrong):
        e[wrong] += above[wrong].astype(np.intp) - below[wrong]
        hi[wrong], lo[wrong] = _times_pow10(ax[wrong], np.clip(p - 1 - e[wrong], 0, 22))
        near[wrong] &= (hi[wrong] > lo_n) | ((hi[wrong] == lo_n) & (lo[wrong] >= 0))
        near[wrong] &= (hi[wrong] < hi_n) | ((hi[wrong] == hi_n) & (lo[wrong] < 0))
    # round hi + lo half to even: below 2**53 hi + lo is within one of rint(hi),
    # above it hi is an even integer and only lo holds a fraction
    r = np.rint(hi)
    digits = r.astype(np.int64)
    half = 0.5 - (hi - r)  # exact: a multiple of ulp(hi) in [0, 1]
    odd = (digits & 1).astype(bool)
    step = ((lo > half) | ((lo == half) & odd)).astype(np.int64)
    step -= (lo < half - 1.0) | ((lo == half - 1.0) & odd)
    if p > 15:
        big = hi >= 2.0**53
        step[big] = np.rint(lo[big])
    digits += step
    carry = digits == 10**p
    digits[carry] = 10 ** (p - 1)
    e += carry
    near &= (e >= -4) & (e < p)
    return digits, e, near


def _digit_rows(digits: np.ndarray, p: int) -> np.ndarray:
    """The source rows of :func:`_layouts`: each ``p``-digit integer zero-padded,
    then with its trailing zeros as fill, then the bytes ``-``, ``0``, ``.``, fill."""
    groups = -(-p // 4)
    src = np.empty((len(digits), 8 * groups + 4), np.uint8)
    words = src.view(np.uint32)
    words[:, 2 * groups] = _SOURCE_BYTES
    later = None  # a nonzero group follows
    for j, q in reversed(list(enumerate(_quads(digits, groups)))):
        words[:, j] = quad = _QUADS.take(q)
        if later is None:
            words[:, groups + j], later = _QUADS_STRIPPED.take(q), q != 0
        elif later.all():
            words[:, groups + j] = quad
        else:
            words[:, groups + j] = np.where(later, quad, _QUADS_STRIPPED.take(q))
            later |= q != 0
    return src


def format_g_cells(x: np.ndarray, precision: int) -> np.ndarray:
    """The bytes of ``"%.{precision}g" % v`` for each double of ``x``, as fill-padded cells.

    ``precision`` is 17 or 6.  A normal value in fixed notation is spelled
    from its rounded digits (:func:`_rounded_digits`), with the sign, the
    zeros and the point placed once per exponent and sign.  Every other
    value (zero, subnormal, inf, NaN, scientific notation) is spelled by
    ``%`` itself, so the bytes equal ``%`` for every double.  Row i holds
    the cell of ``x[i]``; the matrix is as wide as its widest cell.
    """
    p, n = precision, len(x)
    digits, e, near = _rounded_digits(x, p)
    src = _digit_rows(digits, p)
    rest = np.flatnonzero(~near)
    texts = [(b"%%.%dg" % p) % v for v in x[rest].tolist()]
    key = 2 * (e + 4) + np.signbit(x)
    counts = np.bincount(key[near], minlength=1)
    keys = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]  # most common first
    widths, layouts = _LAYOUTS[p]
    width = max([1, *(widths[kk] for kk in keys), *map(len, texts)])
    out = np.empty((n, width), np.uint8)
    for kk in keys:
        rows = np.flatnonzero(key == kk) if kk != keys[0] or len(rest) else slice(None)
        cells = src[rows][:, layouts[kk][:width]]
        e_k = kk // 2 - 4
        if 0 <= e_k < p - 1:  # the point, at column E + 2, goes where a digit follows
            cells[:, e_k + 2] = np.where(cells[:, e_k + 3] == _FILL, _FILL, 0x2E)
        out[rows] = cells
    if len(rest):
        _put_text(out, rest, texts)
    return out


def _put_text(out: np.ndarray, rows: np.ndarray, texts: list[bytes]) -> None:
    """Write encoded cells into rows of a fill-padded matrix wide enough for them."""
    width = out.shape[1]
    cells = np.array(texts, dtype="S%d" % width).view(np.uint8).reshape(-1, width)
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    cells[np.arange(width) >= lengths[:, None]] = _FILL
    out[rows] = cells


def _int_cells(values: np.ndarray) -> np.ndarray:
    """``%d`` of each integer as fill-padded cells: a sign word, then 4-digit groups."""
    if values.dtype.kind == "u":
        mag, neg = values.astype(np.uint64), None
    else:
        v = values.astype(np.int64)
        neg = v < 0
        mag = np.abs(v).view(np.uint64)  # abs wraps INT64_MIN to itself, 2**63 as uint64
    top = int(mag.max(initial=0))
    groups = max(1, -(-len(str(top)) // 4))
    quads = _quads(mag, groups)
    out = np.empty((len(values), 4 + 4 * groups), np.uint8)
    out[:, :4] = _FILL
    if neg is not None:
        out[neg, 3] = 0x2D
    words = out[:, 4:].view(np.uint32)
    leading = np.ones(len(values), bool)  # every group so far is zero
    for j, q in enumerate(quads[:-1]):
        words[:, j] = np.where(leading, _QUADS_LEADING.take(q), _QUADS.take(q))
        leading &= q == 0
    words[:, -1] = np.where(leading, _QUADS_UNITS.take(quads[-1]), _QUADS.take(quads[-1]))
    return out


def _text_cells(values: np.ndarray) -> np.ndarray:
    """``str`` of each value (``None`` as empty), quoted by :func:`quote_cell`."""
    if values.dtype.kind == "U":  # ASCII code points needing no quotes are the cell bytes
        codes = np.ascontiguousarray(values).view(np.uint32).reshape(len(values), -1)
        if codes.max(initial=0) < 0x80:
            out = codes.astype(np.uint8)
            if not any(map(out.tobytes().__contains__, (b",", b'"', b"\n", b"\r"))):
                out[np.logical_and.accumulate(codes[:, ::-1] == 0, axis=1)[:, ::-1]] = _FILL
                return out
    cells = values.tolist()
    if values.dtype.kind != "U":
        cells = ["" if v is None else str(v) for v in cells]
    text = "".join(cells)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        cells = list(map(quote_cell, cells))
    encoded = [c.encode("utf-8", "surrogatepass") for c in cells]
    out = np.empty((len(cells), max([1, *map(len, encoded)])), np.uint8)
    _put_text(out, np.arange(len(cells)), encoded)
    return out


def _column_cells(values: np.ndarray) -> np.ndarray:
    """A block of one column as fill-padded cells, spelled from its dtype."""
    kind = values.dtype.kind
    if kind == "f":
        x = values.astype(np.float64, copy=False)
        nan = np.isnan(x)
        if not nan.any():
            return format_g_cells(x, 17)
        out = format_g_cells(np.where(nan, 1.0, x), 17)  # 1.0: no % call per empty cell
        out[nan] = _FILL
        return out
    if kind in "iu":
        return _int_cells(values)
    if kind == "b":
        return _BOOLS[values.view(np.uint8)]
    return _text_cells(values)


def join_cell_rows(parts: Sequence[np.ndarray | bytes], n: int) -> str:
    """Rows ``0..n-1`` of the cell matrices and literal ``bytes`` in ``parts``, side by side."""
    widths = [len(p) if isinstance(p, bytes) else p.shape[1] for p in parts]
    rows = np.empty((n, sum(widths)), np.uint8)
    at = 0
    for part, width in zip(parts, widths):
        rows[:, at : at + width] = np.frombuffer(part, np.uint8) if isinstance(part, bytes) else part[:n]
        at += width
    return rows.tobytes().translate(None, b"\xff").decode("utf-8", "surrogatepass")


def write_csv_columns(*targets: tuple[TextIO, Sequence[str], Sequence[np.ndarray]]) -> None:
    """Write each ``(fh, names, columns)`` target as a header row and the rows of its columns.

    A cell is spelled by its column's dtype: float as ``%.17g`` with NaN as
    an empty cell, integer as ``%d``, bool as ``true``/``false``, and any
    other value as its ``str`` with ``None`` as an empty cell, quoted by
    :func:`quote_cell`.  A file's rows end at its shortest column, and a row
    of one empty cell is written as ``""`` so it does not read back as a
    blank line.  The files are written together a block of
    ``CSV_BLOCK_ROWS`` rows at a time; a column array listed in more than
    one target is spelled once per block and written to each of them.  A
    block of a file is one byte matrix of its cells and separators, joined
    by :func:`join_cell_rows`.
    """
    n_rows = [min(map(len, columns), default=0) for _, _, columns in targets]
    for fh, names, _ in targets:
        fh.write(",".join(map(quote_cell, names)) + "\n")
    for lo in range(0, max(n_rows, default=0), CSV_BLOCK_ROWS):
        blocks: dict[int, np.ndarray] = {}  # by id(array): spelled once per block
        for (fh, _, columns), n in zip(targets, n_rows):
            if lo >= n:
                continue
            parts: list[np.ndarray | bytes] = []
            for arr in columns:
                if id(arr) not in blocks:
                    blocks[id(arr)] = _column_cells(arr[lo : lo + CSV_BLOCK_ROWS])
                parts += [blocks[id(arr)], b","]
            parts[-1] = b"\n"
            if len(columns) == 1:
                parts[0] = _quote_empty(parts[0])
            fh.write(join_cell_rows(parts, min(n - lo, CSV_BLOCK_ROWS)))


def _quote_empty(cells: np.ndarray) -> np.ndarray:
    """Cells with every empty one spelled ``""``."""
    empty = (cells == _FILL).all(axis=1)
    if not empty.any():
        return cells
    out = np.full((len(cells), max(2, cells.shape[1])), _FILL, np.uint8)
    out[:, : cells.shape[1]] = cells
    out[empty, :2] = 0x22
    return out


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
