"""TrainedModel JSON serialization with an explicit format version."""

from __future__ import annotations

import json

import numpy as np

from ..errors import ModelFormatError
from ..schema import ANY, NULL, TEXT, check, either, fail, integer, list_of, obj, one_of
from ..schema import reporting, tagged
from .preprocess import FittedPreprocessor
from .spec import _TABLE
from .train import TrainedModel

__all__ = ["MODEL_FORMAT_VERSION", "model_to_dict", "model_from_dict", "save_model", "load_model"]

MODEL_FORMAT_VERSION = 1

# The file around a model's state, for each family.  The state and the
# preprocessor check themselves in ``from_state`` and ``from_dict``.
_FILE = tagged("family", {
    name: obj(
        {"schema_version": one_of(MODEL_FORMAT_VERSION), "kind": one_of("trained-model"),
         "family": TEXT, "task": one_of(*family.tasks), "state": ANY},
        {"seed": integer(), "params": obj(optional=family.model.HYPERPARAMETERS),
         "class_labels": either(NULL, list_of(TEXT)), "preprocessor": ANY},
    )
    for name, family in _TABLE.items()
})


def model_to_dict(tm: TrainedModel) -> dict:
    params = {}
    for k, v in tm.params.items():
        params[k] = list(v) if isinstance(v, tuple) else v
    return {
        "schema_version": MODEL_FORMAT_VERSION,
        "kind": "trained-model",
        "family": tm.family,
        "task": tm.task,
        "seed": tm.seed,
        "params": params,
        "class_labels": tm.class_labels,
        "state": tm.model.to_state(),
        "preprocessor": None if tm.preprocessor is None else tm.preprocessor.to_dict(),
    }


def model_from_dict(doc: dict) -> TrainedModel:
    """The model of a trained-model document, once every part of it is checked.

    Across the parts: the state's task is the file's, the model takes rows as
    wide as the preprocessor's output, and a classifier's ``class_labels``
    name its classes, which are then 0 .. L-1.
    """
    check(doc, _FILE, ModelFormatError, "model file")
    task, labels = doc["task"], doc.get("class_labels")
    preprocessor = (
        None if doc.get("preprocessor") is None
        else FittedPreprocessor.from_dict(doc["preprocessor"])
    )
    width = None if preprocessor is None else len(preprocessor.feature_names)
    model = _TABLE[doc["family"]].model.from_state(doc["state"], width)
    with reporting(ModelFormatError, "model file"):
        if getattr(model, "task", task) != task:
            fail(("state", "task"), f"{task!r} like 'task'", model.task)
        if labels is not None:
            if task != "classification":
                fail(("class_labels",), "None for a regression model", labels)
            if not np.array_equal(model.classes_, np.arange(len(labels))):
                fail(("state", "classes"), f"the codes 0 .. {len(labels) - 1} of 'class_labels'",
                     model.classes_)
    return TrainedModel(
        family=doc["family"],
        task=task,
        params=doc.get("params", {}),
        model=model,
        seed=doc.get("seed", 0),
        preprocessor=preprocessor,
        class_labels=labels,
    )


def save_model(tm: TrainedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(tm), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid model file: {exc}") from exc
    return model_from_dict(doc)
