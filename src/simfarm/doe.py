"""Factor spaces and Latin Hypercube designs.

Factors are continuous, integer, categorical, or boolean.  Column ``j`` of
``lhs_design`` draws from its own stream ``(seed, j)`` (see :mod:`simfarm.rng`),
so appending factors never perturbs earlier columns.  It draws a permutation of
the ``n`` strata first.  Continuous and integer factors then draw one uniform
``u`` per row and take ``lo + (stratum + u) * (top - lo) / n``, with ``top = hi``,
or ``hi + 1`` then floor and clip for integers, whose bounds must lie within
[-2**53, 2**53] where float64 is exact.  Categorical and boolean factors take
``levels[stratum % len(levels)]``, boolean being ``(False, True)``, so level
counts differ by at most 1.  Kind knowledge lives in the table ``_KINDS`` (dtype,
JSON tag, CSV cell parser, whole or not, out-of-domain message, the JSON rule of
each field) and in :meth:`FactorSpec.validate` (the ranges a factor's fields obey).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import DomainError, InvalidArgumentError, ParseError
from .rng import substream
from .schema import ANY, TEXT, Rule, check, either, list_of, obj, real, tagged
from .tables import read_csv_tokens, write_csv_columns

__all__ = [
    "Continuous",
    "Integer",
    "Categorical",
    "Boolean",
    "FactorSpec",
    "Design",
    "DesignValidation",
    "lhs_design",
    "validate_design",
    "write_design",
    "read_design",
    "load_factors",
    "dump_factors",
]


@dataclass(frozen=True)
class Continuous:
    lo: float
    hi: float


@dataclass(frozen=True)
class Integer:
    lo: int
    hi: int


@dataclass(frozen=True)
class Categorical:
    levels: tuple[str, ...]


@dataclass(frozen=True)
class Boolean:
    levels = (False, True)  # a class attribute, not a field: a boolean has no JSON keys


FactorKind = Union[Continuous, Integer, Categorical, Boolean]


class _Kind(NamedTuple):
    tag: str  # the "kind" of a factor-space JSON entry
    dtype: object  # the column dtype, which fixes how a column is written
    parse: Callable[[str], object]  # one design CSV cell to a value
    whole: bool  # the draw spans [lo, hi + 1) and is floored; JSON bounds are whole
    outside: str  # validate_design's message for a cell outside the domain
    fields: dict  # the rule of each field's JSON value; FactorSpec.validate checks the ranges


_LEVEL = either(TEXT, real(finite=False))


def _level(value, path) -> str:
    _LEVEL(value, path)
    return str(value)  # a number level reads as the text a design CSV holds for it


_KINDS = {
    Continuous: _Kind("continuous", np.float64, float, False,
                      "value {v!r} outside [{k.lo}, {k.hi}]",
                      {"lo": real(finite=False), "hi": real(finite=False)}),
    Integer: _Kind("integer", np.int64, lambda s: np.int64(int(s)), True,  # int64 or OverflowError
                   "value {v!r} outside integer [{k.lo}, {k.hi}]",
                   {"lo": real(finite=False, whole=True), "hi": real(finite=False, whole=True)}),
    Categorical: _Kind("categorical", object, str, False, "unknown level {v!r}",
                       {"levels": list_of(Rule(_LEVEL.what, _level))}),
    Boolean: _Kind("boolean", np.bool_, {"true": True, "false": False}.__getitem__, False,
                   "value {v!r} is not boolean", {}),
}
_BAD_CELL = (ValueError, OverflowError, KeyError)  # what a cell parser raises


@dataclass(frozen=True)
class FactorSpec:
    name: str
    kind: FactorKind

    def validate(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise DomainError(f"factor name must be a non-empty string, got {self.name!r}")
        k = self.kind
        if type(k) not in _KINDS:
            raise DomainError(f"factor {self.name!r}: unknown kind {k!r}")
        if isinstance(k, Integer):
            for key, v in (("lo", k.lo), ("hi", k.hi)):
                if abs(v) > 2**53:  # float64 holds every whole number up to here
                    raise DomainError(
                        f"factor {self.name!r}: integer {key!r} must lie within "
                        f"[-2**53, 2**53], got {v!r}"
                    )
        if isinstance(k, (Continuous, Integer)) and not (k.lo < k.hi):
            raise DomainError(
                f"factor {self.name!r}: lo must be strictly less than hi ({k.lo} >= {k.hi})"
            )
        if isinstance(k, Continuous) and not (math.isfinite(k.lo) and math.isfinite(k.hi)):
            raise DomainError(f"factor {self.name!r}: bounds must be finite")
        if isinstance(k, Categorical):
            if not k.levels:
                raise DomainError(f"factor {self.name!r}: categorical needs at least one level")
            if len(set(k.levels)) != len(k.levels):
                raise DomainError(f"factor {self.name!r}: categorical levels must be distinct")


def validate_factors(factors: Sequence[FactorSpec]) -> None:
    names = [f.name for f in factors]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise DomainError(f"duplicate factor name {dup!r}")
    for f in factors:
        f.validate()


@dataclass(frozen=True)
class Design:
    """A sampled design: one typed column per factor, ``n`` rows."""

    factors: tuple[FactorSpec, ...]
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        lengths = {len(c) for c in self.columns.values()}
        if len(self.columns) != len(self.factors):
            raise InvalidArgumentError("column count does not match factor count")
        if lengths and len(lengths) != 1:
            raise InvalidArgumentError("design columns must have equal length")
        for f in self.factors:
            if f.name not in self.columns:
                raise InvalidArgumentError(f"missing column for factor {f.name!r}")
        # Each column takes its kind's dtype, which is what fixes how it is written.
        columns = {
            f.name: np.asarray(self.columns[f.name]).astype(_KINDS[type(f.kind)].dtype, copy=False)
            for f in self.factors
        }
        object.__setattr__(self, "columns", columns)

    @property
    def n(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def k(self) -> int:
        return len(self.factors)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def take(self, positions) -> "Design":
        positions = np.asarray(positions, dtype=np.int64)
        return Design(self.factors, {k: v[positions] for k, v in self.columns.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Design):
            return NotImplemented
        if self.factors != other.factors or self.n != other.n:
            return False
        return all(
            np.array_equal(self.columns[f.name], other.columns[f.name])
            for f in self.factors
        )


def lhs_design(factors: Sequence[FactorSpec], n: int, seed: int) -> Design:
    """Latin Hypercube design over ``factors`` with ``n`` rows (rules in the module docstring)."""
    if n < 1:
        raise InvalidArgumentError(f"sample size must be >= 1, got {n}")
    factors = tuple(factors)
    validate_factors(factors)
    columns: dict[str, np.ndarray] = {}
    for j, f in enumerate(factors):
        g = substream(seed, j)
        strata = g.permutation(n)
        k, kind = f.kind, _KINDS[type(f.kind)]
        if hasattr(k, "levels"):  # categorical, boolean
            columns[f.name] = np.asarray(k.levels, dtype=kind.dtype)[strata % len(k.levels)]
        else:  # continuous, integer
            top = k.hi + 1 if kind.whole else k.hi
            values = k.lo + (strata + g.random(n)) * (top - k.lo) / n
            columns[f.name] = np.clip(np.floor(values), k.lo, k.hi) if kind.whole else values
    return Design(factors=factors, columns=columns)


@dataclass
class DesignValidation:
    ok: bool
    violations: list[tuple[int, str, str]] = field(default_factory=list)


def validate_design(design: Design) -> DesignValidation:
    """Report every cell outside its factor's domain as (row, factor, message)."""
    violations: list[tuple[int, str, str]] = []
    for f in design.factors:
        col, k = design.columns[f.name], f.kind
        if hasattr(k, "levels"):
            inside = np.isin(col, np.asarray(k.levels, dtype=col.dtype))
        else:
            inside = (col >= k.lo) & (col <= k.hi)
        outside = _KINDS[type(k)].outside
        violations.extend(
            (int(i), f.name, outside.format(v=col[i], k=k)) for i in np.flatnonzero(~inside)
        )
    violations.sort()
    return DesignValidation(ok=not violations, violations=violations)


# -- serialization -----------------------------------------------------------


def write_design(design: Design, path) -> None:
    """Design CSV: a header row of factor names, then the rows as
    :func:`~simfarm.tables.write_csv_columns` spells them from each column's dtype."""
    names = [f.name for f in design.factors]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv_columns((fh, names, [design.columns[name] for name in names]))


def read_design(path, factors: Sequence[FactorSpec]) -> Design:
    """Read a Design CSV back against a known factor list.

    A cell that does not parse as its factor's kind, an Integer outside int64
    included, is a :class:`ParseError` at its line.
    """
    factors = tuple(factors)
    validate_factors(factors)
    expected = [f.name for f in factors]

    def check_header(header: list[str]) -> None:
        if not header:
            raise ParseError("missing header row", line=1)
        if header != expected:
            raise ParseError(f"header {header!r} does not match factor names {expected!r}", line=1)

    _, n, block_cells, line_of = read_csv_tokens(path, check_header)

    def parse(f: FactorSpec, i: int, cell: str):
        try:
            return _KINDS[type(f.kind)].parse(cell)
        except _BAD_CELL:
            raise ParseError(
                f"unparsable cell {cell!r} for factor {f.name!r}", line=line_of(i)
            ) from None

    columns = {
        f.name: np.fromiter(map(parse, repeat(f), range(n), cells), _KINDS[type(f.kind)].dtype, n)
        for f, cells in zip(factors, block_cells(0, n) if n else [()] * len(factors))
    }
    return Design(factors=factors, columns=columns)


# -- factor-space JSON documents ---------------------------------------------


_DOCUMENT = obj({"factors": list_of(ANY)})
_ENTRY = tagged("kind", {
    row.tag: obj({"name": TEXT, "kind": TEXT, **row.fields}) for row in _KINDS.values()
})


def load_factors(source) -> list[FactorSpec]:
    """Parse a factor-space JSON document (path, file object, or dict)."""
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    factors = []
    for i, entry in enumerate(check(doc, _DOCUMENT, DomainError, "factor document")["factors"]):
        named = isinstance(entry, dict)
        context = f"factor {entry.get('name')!r}:" if named else f"factor entry {i}"
        fields = check(entry, _ENTRY, DomainError, context)
        name, tag = fields.pop("name"), fields.pop("kind")
        cls = next(c for c, row in _KINDS.items() if row.tag == tag)
        kind = cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in fields.items()})
        factors.append(FactorSpec(name=name, kind=kind))
    validate_factors(factors)
    return factors


def dump_factors(factors: Sequence[FactorSpec]) -> dict:
    """The JSON document of ``factors``: each kind's tag and fields, tuples as lists."""
    return {"factors": [
        {"name": f.name, "kind": _KINDS[type(f.kind)].tag,
         **{key: list(v) if isinstance(v, tuple) else v for key, v in asdict(f.kind).items()}}
        for f in factors
    ]}
