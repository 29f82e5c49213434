"""Factor spaces and Latin Hypercube designs.

Factors are continuous, integer, categorical, or boolean.  ``lhs_design``
stratifies every continuous factor into ``n`` equal-width strata with exactly
one uniform draw per stratum, samples integer factors by stratifying
``[lo, hi+1)`` and flooring, and assigns categorical/boolean levels by cycling
the level list up to ``n`` and shuffling, so level counts differ by at most 1.
Column ``j`` draws only from the stream ``(seed, j)`` (see :mod:`simfarm.rng`),
so appending factors never perturbs earlier columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, InvalidArgumentError, ParseError
from .rng import substream
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
    pass


FactorKind = Union[Continuous, Integer, Categorical, Boolean]


@dataclass(frozen=True)
class FactorSpec:
    name: str
    kind: FactorKind

    def validate(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise DomainError(f"factor name must be a non-empty string, got {self.name!r}")
        k = self.kind
        if isinstance(k, (Continuous, Integer)):
            if not (k.lo < k.hi):
                raise DomainError(
                    f"factor {self.name!r}: lo must be strictly less than hi ({k.lo} >= {k.hi})"
                )
            if isinstance(k, Continuous) and not (
                math.isfinite(k.lo) and math.isfinite(k.hi)
            ):
                raise DomainError(f"factor {self.name!r}: bounds must be finite")
        elif isinstance(k, Categorical):
            if not k.levels:
                raise DomainError(f"factor {self.name!r}: categorical needs at least one level")
            if len(set(k.levels)) != len(k.levels):
                raise DomainError(f"factor {self.name!r}: categorical levels must be distinct")
        elif not isinstance(k, Boolean):
            raise DomainError(f"factor {self.name!r}: unknown kind {k!r}")


def validate_factors(factors: Sequence[FactorSpec]) -> None:
    names = [f.name for f in factors]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise DomainError(f"duplicate factor name {dup!r}")
    for f in factors:
        f.validate()


def _column_dtype(kind: FactorKind):
    if isinstance(kind, Continuous):
        return np.float64
    if isinstance(kind, Integer):
        return np.int64
    if isinstance(kind, Boolean):
        return np.bool_
    return object


@dataclass(frozen=True)
class Design:
    """A sampled design: one typed column per factor, ``n`` rows."""

    factors: tuple[FactorSpec, ...]
    columns: dict[str, np.ndarray]
    seed: int | None = None

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
            f.name: np.asarray(self.columns[f.name]).astype(_column_dtype(f.kind), copy=False)
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
        return Design(
            factors=self.factors,
            columns={k: v[positions] for k, v in self.columns.items()},
            seed=self.seed,
        )

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
    """Latin Hypercube design over ``factors`` with ``n`` rows."""
    if n < 1:
        raise InvalidArgumentError(f"sample size must be >= 1, got {n}")
    factors = tuple(factors)
    validate_factors(factors)
    columns: dict[str, np.ndarray] = {}
    for j, f in enumerate(factors):
        g = substream(seed, j)
        k = f.kind
        if isinstance(k, Continuous):
            strata = g.permutation(n)
            offsets = g.random(n)
            columns[f.name] = k.lo + (strata + offsets) * (k.hi - k.lo) / n
        elif isinstance(k, Integer):
            strata = g.permutation(n)
            offsets = g.random(n)
            vals = np.floor(k.lo + (strata + offsets) * (k.hi + 1 - k.lo) / n)
            columns[f.name] = np.clip(vals, k.lo, k.hi).astype(np.int64)
        elif isinstance(k, Categorical):
            reps = math.ceil(n / len(k.levels))
            tiled = np.array(list(k.levels) * reps, dtype=object)[:n]
            columns[f.name] = tiled[g.permutation(n)]
        else:  # Boolean
            reps = math.ceil(n / 2)
            tiled = np.array([False, True] * reps, dtype=np.bool_)[:n]
            columns[f.name] = tiled[g.permutation(n)]
    return Design(factors=factors, columns=columns, seed=int(seed))


@dataclass
class DesignValidation:
    ok: bool
    violations: list[tuple[int, str, str]] = field(default_factory=list)


def validate_design(design: Design) -> DesignValidation:
    """Report every cell outside its factor's domain as (row, factor, message)."""
    violations: list[tuple[int, str, str]] = []
    for f in design.factors:
        col = design.columns[f.name]
        k = f.kind
        if isinstance(k, Continuous):
            bad = np.nonzero(~((col >= k.lo) & (col <= k.hi)))[0]
            for i in bad:
                violations.append((int(i), f.name, f"value {col[i]!r} outside [{k.lo}, {k.hi}]"))
        elif isinstance(k, Integer):
            for i, v in enumerate(col):
                if float(v) != int(v) or not (k.lo <= int(v) <= k.hi):
                    violations.append((i, f.name, f"value {v!r} outside integer [{k.lo}, {k.hi}]"))
        elif isinstance(k, Categorical):
            for i, v in enumerate(col):
                if v not in k.levels:
                    violations.append((i, f.name, f"unknown level {v!r}"))
        else:
            for i, v in enumerate(col):
                if not isinstance(v, (bool, np.bool_)):
                    violations.append((i, f.name, f"value {v!r} is not boolean"))
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
    The CSV stores values only; the generation seed is not persisted.
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
    columns: dict[str, np.ndarray] = {}
    for f, cells in zip(factors, block_cells(0, n) if n else [()] * len(factors)):
        out = np.empty(n, dtype=_column_dtype(f.kind))
        for i, cell in enumerate(cells):
            try:
                if isinstance(f.kind, Continuous):
                    out[i] = float(cell)
                elif isinstance(f.kind, Integer):
                    out[i] = int(cell)
                elif isinstance(f.kind, Boolean):
                    if cell not in ("true", "false"):
                        raise ValueError(cell)
                    out[i] = cell == "true"
                else:
                    out[i] = cell
            except (ValueError, OverflowError):
                raise ParseError(
                    f"unparsable cell {cell!r} for factor {f.name!r}", line=line_of(i)
                ) from None
        columns[f.name] = out
    return Design(factors=factors, columns=columns, seed=None)


# -- factor-space JSON documents ---------------------------------------------

_KIND_TAGS = {"continuous", "integer", "categorical", "boolean"}


def _entry_value(entry: dict, name, key: str):
    if key not in entry:
        raise DomainError(f"factor {name!r}: missing key {key!r}")
    return entry[key]


def _bound(entry: dict, name, key: str, whole: bool) -> float | int:
    # JSON numbers load as int or float; true/false load as bool, a subclass of int
    v = _entry_value(entry, name, key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise DomainError(f"factor {name!r}: {key!r} must be a number, got {v!r}")
    if not whole:
        try:
            return float(v)
        except OverflowError:
            raise DomainError(f"factor {name!r}: {key!r} is too large for a float") from None
    if isinstance(v, float) and not v.is_integer():
        raise DomainError(f"factor {name!r}: {key!r} must be a whole number, got {v!r}")
    return int(v)


def load_factors(source) -> list[FactorSpec]:
    """Parse a factor-space JSON document (path, file object, or dict)."""
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("factors"), list):
        raise DomainError("factor document must be an object with a 'factors' list")
    factors = []
    for i, entry in enumerate(doc["factors"]):
        if not isinstance(entry, dict):
            raise DomainError(f"factor entry {i} must be an object, got {entry!r}")
        name = entry.get("name")
        tag = entry.get("kind")
        if tag not in _KIND_TAGS:
            raise DomainError(f"factor {name!r}: unknown kind {tag!r}")
        if tag in ("continuous", "integer"):
            whole = tag == "integer"
            lo, hi = (_bound(entry, name, key, whole) for key in ("lo", "hi"))
            kind: FactorKind = Integer(lo, hi) if whole else Continuous(lo, hi)
        elif tag == "categorical":
            levels = _entry_value(entry, name, "levels")
            if not isinstance(levels, list):
                raise DomainError(f"factor {name!r}: 'levels' must be a list, got {levels!r}")
            kind = Categorical(tuple(str(v) for v in levels))
        else:
            kind = Boolean()
        factors.append(FactorSpec(name=name, kind=kind))
    validate_factors(factors)
    return factors


def dump_factors(factors: Sequence[FactorSpec]) -> dict:
    out = []
    for f in factors:
        k = f.kind
        if isinstance(k, Continuous):
            out.append({"name": f.name, "kind": "continuous", "lo": k.lo, "hi": k.hi})
        elif isinstance(k, Integer):
            out.append({"name": f.name, "kind": "integer", "lo": k.lo, "hi": k.hi})
        elif isinstance(k, Categorical):
            out.append({"name": f.name, "kind": "categorical", "levels": list(k.levels)})
        else:
            out.append({"name": f.name, "kind": "boolean"})
    return {"factors": out}
