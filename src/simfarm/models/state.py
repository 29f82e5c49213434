"""What every model family's saved state and constructor share.

:func:`hyperparameters` checks a constructor's values against the class's
``HYPERPARAMETERS`` rules, which ``ModelSpec.validate`` and the model file's
``params`` use too.  :func:`array` converts a saved numeric list in one NumPy
call; ``STATE_TASK``, ``STATE_CLASSES``, :func:`state_classes` and
:func:`state_lengths` are the structural rules that ``from_state`` methods
share.  They raise :class:`~simfarm.schema.Invalid` with the JSON path.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError
from ..schema import NULL, Rule, either, fail, integer, one_of, real, reporting, where

__all__ = ["TASKS", "hyperparameters", "array", "STATE_TASK", "STATE_CLASSES", "state_classes",
           "state_lengths"]

TASKS = ("regression", "classification")


def hyperparameters(model, family: str, **values) -> tuple:
    """``values`` as ``model.HYPERPARAMETERS`` takes them, in order.

    A model's constructor calls it, so a bad value raises ``TrainingError``
    naming ``family`` and the hyperparameter.
    """
    with reporting(TrainingError, f"{family} hyperparameter"):
        return tuple(model.HYPERPARAMETERS[name](v, (name,)) for name, v in values.items())


def array(dtype, ndim: int = 1) -> Rule:
    """A saved list (of lists, for ``ndim`` 2) of numbers as one NumPy array of ``dtype``.

    NumPy converts the list in one call, and the array is checked by its dtype
    and shape: an int64 array must hold ints, and a float one may hold NaN.
    Only a failure walks the list, to name its first bad item.  A bool among
    the numbers reads as 0 or 1.
    """
    whole = np.dtype(dtype).kind == "i"
    kinds, item = ("i", integer(ge=-2**63, le=2**63 - 1)) if whole else ("iuf", real(finite=False))
    what = "a list of " + "lists of " * (ndim - 1) + ("integers" if whole else "numbers")

    def first_bad(value, path, depth):
        if depth == ndim:
            item(value, path)
        elif not isinstance(value, list):
            fail(path, "a list", value)
        rows = [len(v) for v in value if isinstance(v, list)] if depth + 1 < ndim else []
        width = max(rows, key=rows.count, default=0)  # the length most rows have
        for i, v in enumerate(value if depth < ndim else ()):
            if rows and isinstance(v, list) and len(v) != width:
                fail((*path, i), f"a list of {width} items like the other rows", v, typed=True)
            first_bad(v, (*path, i), depth + 1)

    def rule(value, path):
        try:
            a = np.asarray(value) if isinstance(value, list) else None
        except (ValueError, TypeError, OverflowError):  # ragged, or an int past int64
            a = None
        if a is None or a.ndim != ndim or (a.dtype.kind not in kinds and a.size):
            first_bad(value, path, 0)
            fail(path, what, value)
        return a.astype(dtype, copy=False)

    return Rule(what, rule)


# The rules of the state keys that every family but ridge saves.
STATE_TASK = one_of(*TASKS)
STATE_CLASSES = either(NULL, array(np.int64))


def state_classes(state: dict, path: tuple) -> np.ndarray | None:
    """A checked state's ``classes``: None for regression, else at least 2 increasing labels."""
    classes = state["classes"]
    if state["task"] == "regression":
        if classes is not None:
            fail((*path, "classes"), "None for a regression model", classes)
    elif classes is None or len(classes) < 2 or (np.diff(classes) <= 0).any():
        fail((*path, "classes"), "at least 2 increasing labels for a classifier", classes)
    return classes


def state_lengths(state: dict, path: tuple, like: str, keys: tuple) -> None:
    """Each of ``keys`` in a checked state holds as many items (rows) as ``like``."""
    n = len(state[like])
    for key in keys:
        if len(state[key]) != n:
            fail((*path, key), f"a list of {n} items like {where((*path, like))}", state[key],
                 typed=True)
