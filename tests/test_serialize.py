import json

import numpy as np
import pytest

from simfarm.cli import dispatch
from simfarm.errors import ModelFormatError
from simfarm.models import ModelSpec, load_model, save_model, train
from simfarm.models.preprocess import fit_preprocessor
from simfarm.rng import substream
from simfarm.tables import DataColumn

SPECS = [
    ModelSpec("linear_ridge", "regression", {"lam": 0.1}),
    ModelSpec("knn", "regression", {"k": 3}),
    ModelSpec("knn", "classification", {"k": 3}),
    ModelSpec("cart_tree", "regression", {"max_depth": 4, "min_leaf": 2}),
    ModelSpec("cart_tree", "classification", {"max_depth": 4, "min_leaf": 2}),
    ModelSpec("random_forest", "regression", {"n_trees": 5, "max_depth": 4}),
    ModelSpec("mlp", "regression", {"hidden": (6,), "epochs": 10, "batch_size": 8}),
    ModelSpec(
        "mlp", "classification",
        {"hidden": (6, 4), "epochs": 10, "batch_size": 8, "learning_rate": 0.05},
    ),
]


def data_for(task, seed=0):
    g = substream(seed, 0)
    x = g.normal(0, 1, (60, 3))
    if task == "classification":
        y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
    else:
        y = x @ np.array([1.0, -0.5, 0.2]) + g.normal(0, 0.05, 60)
    return x, y


class TestRoundTrip:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-{s.task}")
    def test_predictions_survive_roundtrip(self, spec, tmp_path):
        x, y = data_for(spec.task)
        model = train(spec, x, y, seed=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.family == spec.family
        assert np.allclose(
            back.predict(x).astype(float), model.predict(x).astype(float)
        )

    def test_preprocessor_travels_with_model(self, tmp_path):
        g = substream(1, 0)
        cols = [DataColumn.numeric("x", g.normal(5, 2, 50))]
        prep = fit_preprocessor(cols)
        matrix = prep.transform(cols).matrix
        y = 3.0 * matrix.ravel() + 1.0
        model = train(
            ModelSpec("linear_ridge", "regression", {"lam": 0.0}),
            matrix, y, preprocessor=prep,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.allclose(back.predict_table(cols), model.predict_table(cols))


class TestSeedDeterminism:
    def test_model_files_byte_identical_per_seed(self, tmp_path):
        x, y = data_for("regression", seed=2)
        spec = ModelSpec("random_forest", "regression", {"n_trees": 4, "max_depth": 3})
        paths = []
        for run in range(2):
            path = tmp_path / f"m{run}.json"
            save_model(train(spec, x, y, seed=77), path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


class TestFormatGuards:
    def test_version_mismatch_rejected(self, tmp_path):
        x, y = data_for("regression")
        model = train(ModelSpec("knn", "regression", {"k": 2}), x, y)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "something-else", "schema_version": 1}))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_preprocessor_off_its_kind_rule_rejected(self, tmp_path, capsys):
        g = substream(3, 0)
        cols = [DataColumn.numeric("x", g.normal(5, 2, 20))]
        prep = fit_preprocessor(cols)
        model = train(
            ModelSpec("linear_ridge", "regression", {"lam": 0.1}),
            prep.transform(cols).matrix, g.normal(0, 1, 20), preprocessor=prep,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["preprocessor"]["columns"]["x"].update(scaling="minmax", min=0.0, max=10.0)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="'x'"):
            load_model(path)
        data, out = tmp_path / "new.csv", tmp_path / "pred.csv"
        data.write_text("x\n1.0\n")
        assert dispatch(["model", "predict", "--model", str(path), "--data", str(data),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("simfarm: error:") and "'x'" in err
        assert "Traceback" not in err and not out.exists()
