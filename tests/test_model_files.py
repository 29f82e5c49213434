"""Damaged model files: ``model predict`` exits 0 or 2, never with a traceback or a hang.

One model per family and task is trained through the CLI and saved.  Every
JSON node of each file (of a list, its first and last item) is damaged in
seven ways, and each damaged file goes through ``model predict``.  The sites
come from walking the file, so a new family's state is covered as it is.  A
damage that changes a node's JSON type, or deletes a key the file needs,
must exit 2 and name the node.  The other damages (a number made -1, 0 or
NaN, a list emptied, an item deleted) may be legitimate edits, so they must
only exit 0 or 2.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from simfarm.cli import dispatch
from simfarm.models import load_model, save_model
from simfarm.models.spec import FAMILIES, TASKS
from simfarm.rng import substream
from simfarm.schema import where

# small settings, so that a forest or network file stays a few hundred nodes
PARAMS = {
    "linear_ridge": {"lam": 0.1},
    "knn": {"k": 3},
    "cart_tree": {"max_depth": 3, "min_leaf": 2},
    "random_forest": {"n_trees": 2, "max_depth": 3, "min_leaf": 2, "feature_fraction": 0.5},
    "mlp": {"hidden": [3, 2], "learning_rate": 0.05, "epochs": 2, "batch_size": 8},
}
SUPPORTED = [(f, t) for f in FAMILIES for t in TASKS
             if not (f == "linear_ridge" and t == "classification")]
DELETE = object()
DAMAGES = {"deleted": DELETE, "x": "x", "null": None, "minus-one": -1, "empty-list": [],
           "nan": math.nan, "zero": 0}
OPTIONAL = {("seed",), ("params",), ("class_labels",), ("preprocessor",)}  # and each param
NULLABLE = {("class_labels",), ("preprocessor",)}


def json_type(value) -> str:
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value).__name__
    return "number"


def sites(node, path=()):
    """The path of every node below ``node``.

    Of a list, only the first and last item are taken, or only the first if
    the items are lists or objects (trees, matrix rows), which share a shape.
    """
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*path, key)
            yield from sites(value, (*path, key))
    elif isinstance(node, list) and node:
        for i in [0] if isinstance(node[0], (list, dict)) else sorted({0, len(node) - 1}):
            yield (*path, i)
            yield from sites(node[i], (*path, i))


def damaged(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def named(message: str, path) -> bool:
    """Whether ``message`` names ``path`` as the model file, or its preprocessor, does."""
    forms = [[repr(where(path))]]
    if path[0] == "preprocessor":
        forms.append(["preprocessor", *([repr(where(path[1:]))] if len(path) > 1 else [])])
        if path[1:2] == ("columns",) and len(path) > 2:
            forms.append([f"preprocessor column {path[2]!r}:",
                          *([repr(where(path[3:]))] if len(path) > 3 else [])])
    return any(all(text in message for text in form) for form in forms)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """``(family, task) -> (model file document, data CSV, work directory)``."""
    root = tmp_path_factory.mktemp("model-files")
    g = substream(11, 0)
    n = 40
    x1 = g.normal(0.0, 1.0, n)
    c = np.array(["a", "b", "c"])[g.integers(0, 3, n)]
    y = 2.0 * x1 + (c == "b") + g.normal(0.0, 0.1, n)
    label = np.where(y > np.median(y), "high", "low")
    data = root / "data.csv"
    rows = [f"{i},ok,{float(x1[i])!r},{c[i]},{float(y[i])!r},{label[i]}" for i in range(n)]
    data.write_text("_index,_status,x1,c,y,label\n" + "\n".join(rows) + "\n")
    out = {}
    for family, task in SUPPORTED:
        features = root / f"{family}-{task}.csv"
        target = "y" if task == "regression" else "label"
        drop = "label" if task == "regression" else "y"
        keep = [k for k, name in enumerate(["_index", "_status", "x1", "c", "y", "label"])
                if name != drop]
        features.write_text("".join(
            ",".join(line.split(",")[k] for k in keep) + "\n"
            for line in data.read_text().splitlines()))
        model = root / f"{family}-{task}.json"
        assert dispatch(["model", "train", "--data", str(features), "--target", target,
                         "--task", task, "--family", family, "--params",
                         json.dumps(PARAMS[family]), "--out", str(model)]) == 0
        out[family, task] = (json.loads(model.read_text()), data, root)
    return out


def predict(doc, data, work):
    """``(exit code, stderr)`` of ``model predict`` on ``doc``; a traceback fails the test."""
    model = work / "damaged.json"
    model.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch(["model", "predict", "--model", str(model), "--data", str(data),
                         "--out", os.devnull])
    return code, err.getvalue()


@pytest.mark.parametrize("family, task", SUPPORTED)
def test_saved_file_predicts_and_saves_the_same_bytes(files, family, task):
    doc, data, work = files[family, task]
    assert predict(doc, data, work)[0] == 0
    path = work / "again.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    resaved = work / "resaved.json"
    save_model(load_model(path), resaved)
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("family, task", SUPPORTED)
def test_every_damaged_node_exits_0_or_2(files, family, task, damage):
    doc, data, work = files[family, task]
    value = DAMAGES[damage]
    wrong = []
    for path in sites(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        original = parent[path[-1]]
        if value is DELETE and isinstance(parent, list):
            structural = False  # an item less may still be a sound file
        elif value is DELETE:
            structural = path not in OPTIONAL and path[0] != "params"
        else:
            structural = json_type(value) != json_type(original) and not (
                value is None and path in NULLABLE)
        code, err = predict(damaged(doc, path, value), data, work)
        if code not in (0, 2) or "Traceback" in err:
            wrong.append((where(path), code, err))
        elif structural and (code != 2 or not named(err, path)):
            wrong.append((where(path), code, err))
    assert not wrong


# damages that keep each node's JSON type but break the model: (family, task, path, value, text)
BROKEN = [
    ("knn", "regression", ("state", "k"), 1000, "'state.k' must be <= 40"),
    ("knn", "classification", ("state", "y", 0), 7, "'state.y[0]' must be one of"),
    ("cart_tree", "regression", ("state", "feature", 0), -1, "'state.feature[0]' must be -1 at"),
    ("cart_tree", "regression", ("state", "feature", 0), 4, "in [0, 4) at an inner node"),
    ("cart_tree", "regression", ("state", "left", 0), -1, "'state.feature[0]' must be -1 at"),
    ("cart_tree", "classification", ("state", "value", 0), 2, "'state.value[0]' must be a class"),
    ("random_forest", "classification", ("state", "n_trees"), 3,
     "'state.trees' must be a list of 3 trees"),
    ("random_forest", "regression", ("state", "trees", 1, "task"), "classification",
     "'state.trees[1].task' must be 'regression'"),
    ("linear_ridge", "regression", ("state", "lam"), -1, "'state.lam' must be >= 0"),
    ("mlp", "classification", ("task",), "regression", "'state.task' must be 'regression'"),
    ("mlp", "classification", ("state", "hidden", 0), 4, "'state.weights[0]' must be a 4 x 4"),
    ("mlp", "regression", ("params", "epochs"), 0, "'params.epochs' must be >= 1"),
    ("knn", "classification", ("class_labels",), ["high"],
     "'state.classes' must be the codes 0 .. 0 of 'class_labels'"),
    ("knn", "regression", ("preprocessor", "columns", "x1", "sd"), -1.0,
     "preprocessor column 'x1': 'sd' must be > 0"),
    ("knn", "regression", ("preprocessor", "columns", "x1", "mean"), math.nan,
     "preprocessor column 'x1': 'mean' must be a finite real number, got nan"),
    ("knn", "regression", ("preprocessor", "order"), ["x1", "x1", "c"],
     "preprocessor 'order' must be a list of distinct column names"),
    ("knn", "regression", ("preprocessor", "columns", "c", "levels"), ["a", "b"],
     "'state.X' must be rows of 3 features"),
]


@pytest.mark.parametrize("family, task, path, value, text", BROKEN,
                         ids=[f"{f}-{t}-{where(p)}={v!r}" for f, t, p, v, _ in BROKEN])
def test_broken_model_exits_2_naming_the_node(files, family, task, path, value, text):
    doc, data, work = files[family, task]
    code, err = predict(damaged(doc, path, value), data, work)
    assert code == 2 and text in err, err


@pytest.mark.parametrize("family, path", [
    ("cart_tree", ("state", "left", 0)),
    ("random_forest", ("state", "trees", 0, "left", 0)),
])
def test_a_tree_whose_root_is_its_own_child_exits_2_in_time(files, family, path):
    doc, data, work = files[family, "regression"]
    model = work / f"cycle-{family}.json"
    model.write_text(json.dumps(damaged(doc, path, 0)))
    proc = subprocess.run(
        [sys.executable, "-m", "simfarm", "model", "predict", "--model", str(model),
         "--data", str(data), "--out", str(work / "cycle.csv")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"{where(path)!r} must be -1 or a node index after its own" in proc.stderr
