"""One declarative checker for the JSON documents simfarm reads.

A rule ``rule(value, path)`` returns the value as the program uses it or
raises :class:`Invalid`; ``path`` is the tuple of keys and indices that leads
to it.  :func:`check` and :func:`reporting` raise the caller's error instead,
naming the document and the path: ``model file 'state.trees[3].left[17]' must
be an integer, got 'x'``.  No rule takes a bool for a number.
"""

from __future__ import annotations

import math
import operator
import reprlib
from contextlib import contextmanager

import numpy as np

__all__ = ["Invalid", "Rule", "where", "fail", "reporting", "check", "integer", "real", "one_of",
           "list_of", "obj", "either", "tagged", "ANY", "TEXT", "NULL", "BOOL"]

_INT, _REAL = (int, np.integer), (int, float, np.integer, np.floating)
_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


class Invalid(Exception):
    """A value breaks a rule; ``typed`` if it has the rule's JSON type (see :func:`either`)."""

    def __init__(self, path: tuple, text: str, typed: bool = False):
        super().__init__(text)
        self.path, self.text, self.typed = tuple(path), text, typed


class Rule:
    """A check, and ``what`` it takes, which completes "must be ..."."""

    __slots__ = ("what", "check")

    def __init__(self, what: str, check_value):
        self.what, self.check = what, check_value

    def __call__(self, value, path: tuple = ()):
        return self.check(value, path)


def where(path) -> str:
    """``('state', 'trees', 3, 'left')`` as ``state.trees[3].left``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).removeprefix(".")


def fail(path, what: str, value, typed: bool = False, text: str | None = None):
    """Raise :class:`Invalid`: ``value`` at ``path`` must be ``what`` (or breaks ``text``)."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    shown = reprlib.repr(value) if isinstance(value, (list, tuple, dict)) else repr(value)
    at = f"{where(path)!r} " if path else ""
    raise Invalid(path, at + (text or f"must be {what}, got {shown}"), typed)


@contextmanager
def reporting(error: type, context: str):
    """Turn an :class:`Invalid` raised inside into ``error(f"{context} {text}")``."""
    try:
        yield
    except Invalid as bad:
        raise error(f"{context} {bad.text}") from None


def check(value, rule, error: type, context: str):
    """``rule(value)``, a failure raised as ``error`` naming ``context`` and the path."""
    with reporting(error, context):
        return rule(value, ())


def _bounded(x, value, path, ge, gt, le):
    bounds = [(op, b) for op, b in zip(_OPS, (ge, gt, le)) if b is not None]
    if not all(_OPS[op](x, b) for op, b in bounds):
        fail(path, " and ".join(f"{op} {b}" for op, b in bounds), value, typed=True)
    return x


def integer(ge=None, le=None) -> Rule:
    """An int that is not a bool, as ``int``, within the bounds given."""

    def rule(value, path):
        if isinstance(value, bool) or not isinstance(value, _INT):
            fail(path, "an integer", value)
        return _bounded(int(value), value, path, ge, None, le)

    return Rule("an integer", rule)


def real(ge=None, gt=None, le=None, finite: bool = True, whole: bool = False) -> Rule:
    """A number that is not a bool, as ``float``, within the bounds given: finite
    if ``finite``, else not past the float range; or a whole one, as ``int``."""
    what = "a finite real number" if finite and not whole else "a number"

    def rule(value, path):
        if isinstance(value, bool) or not isinstance(value, _REAL):
            fail(path, what, value)
        if whole:
            if not isinstance(value, _INT) and not (math.isfinite(value) and value == int(value)):
                fail(path, "a whole number", value, typed=True)
            return _bounded(int(value), value, path, ge, gt, le)
        try:
            x = float(value)
        except OverflowError:  # an int past the float range
            fail(path, what, value, True, None if finite else "is too large for a float")
        if finite and not math.isfinite(x):
            fail(path, what, value, typed=True)
        return _bounded(x, value, path, ge, gt, le)

    return Rule(what, rule)


def one_of(*options, what: str | None = None) -> Rule:
    """One of ``options``, of its type: 1 is not ``True`` and 1.0 is not 1."""
    what = what or " or ".join(map(repr, options))

    def rule(value, path):
        if not any(type(value) is type(o) and value == o for o in options):
            fail(path, what, value)
        return value

    return Rule(what, rule)


def list_of(item, min_len: int = 0, max_len: float = math.inf, what: str = "a list") -> Rule:
    """A list (or tuple) of ``min_len`` to ``max_len`` values that pass ``item``, as a list."""
    size = f"a list of {min_len} to {max_len} items".replace(" to inf", " or more")

    def rule(value, path):
        if not isinstance(value, (list, tuple)):
            fail(path, what, value)
        if not min_len <= len(value) <= max_len:
            fail(path, size, value, typed=True)
        return [item(v, (*path, i)) for i, v in enumerate(value)]

    return Rule(what, rule)


def obj(required: dict | None = None, optional: dict | None = None, rest=None) -> Rule:
    """An object with every ``required`` key and others from ``optional``, or any
    that pass ``rest`` if given, as a dict of the checked values."""
    required = required or {}
    rules = {**required, **(optional or {})}

    def rule(value, path):
        if not isinstance(value, dict):
            fail(path, "an object", value)
        missing = [key for key in required if key not in value]
        unknown = [] if rest else [key for key in value if key not in rules]
        for word, keys in (("missing", missing), ("unknown", unknown)):
            if keys:
                raise Invalid((*path, keys[0]), f"{word} key {where((*path, keys[0]))!r}", True)
        return {key: rules.get(key, rest)(v, (*path, key)) for key, v in value.items()}

    return Rule("an object", rule)


def either(*rules) -> Rule:
    """A value that passes one of ``rules``, which take different JSON types.  A
    rule that takes the value's type but not the value gives the failure."""
    what = " or ".join(r.what for r in rules)

    def rule(value, path):
        for r in rules:
            try:
                return r(value, path)
            except Invalid as bad:
                if bad.typed or len(bad.path) > len(path):
                    raise
        fail(path, what, value)

    return Rule(what, rule)


def tagged(key: str, table: dict) -> Rule:
    """An object checked by ``table[value[key]]``, the rule of its tag."""
    tag = obj({key: one_of(*table, what="one of " + ", ".join(map(repr, table)))}, rest=ANY)
    return Rule("an object", lambda value, path: table[tag(value, path)[key]](value, path))


ANY = Rule("anything", lambda value, path: value)
TEXT = Rule("a string", lambda v, path: v if isinstance(v, str) else fail(path, "a string", v))
NULL = one_of(None)
BOOL = one_of(False, True, what="a bool")
