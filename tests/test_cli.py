import json
import math
import subprocess
import sys

import numpy as np
import pytest

from simfarm.cli import dispatch
from simfarm.rng import substream
from simfarm.tables import ResultTable


def run_cli(*argv):
    return dispatch(list(argv))


@pytest.fixture()
def factors_json(tmp_path):
    path = tmp_path / "factors.json"
    path.write_text(
        json.dumps(
            {
                "factors": [
                    {"name": "speed", "kind": "continuous", "lo": 350, "hi": 550},
                    {"name": "altitude", "kind": "continuous", "lo": 10000, "hi": 35000},
                ]
            }
        )
    )
    return path


@pytest.fixture()
def results_csv(tmp_path):
    g = substream(0, 0)
    n = 120
    table = ResultTable(
        index=np.arange(n),
        status=np.ones(n, dtype=bool),
        columns={
            "a": g.normal(0, 1, n),
            "b": g.normal(1, 1, n),
            "c": g.normal(0.5, 1, n),
            "cost": g.random(n),
            "gain": g.random(n),
            "label": np.array([("x", "y")[i] for i in g.integers(0, 2, n)], dtype=object),
        },
    )
    path = tmp_path / "results.csv"
    table.to_csv(path)
    return path


class TestDoeCommand:
    def test_writes_design_csv(self, tmp_path, factors_json):
        out = tmp_path / "design.csv"
        code = run_cli(
            "doe", "--factors", str(factors_json), "--n", "4000", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "speed,altitude"
        assert len(lines) == 4001

    def test_idempotent_output(self, tmp_path, factors_json):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli(
                "doe", "--factors", str(factors_json), "--n", "100", "--seed", "3",
                "--out", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()


BAD_FACTOR_DOCUMENTS = [
    ({"name": "s", "kind": "continuous", "lo": "x", "hi": 1}, "factor 's': 'lo' must be a number"),
    ({"name": "s", "kind": "continuous", "lo": 0, "hi": True}, "factor 's': 'hi' must be a number"),
    ({"name": "s", "kind": "continuous", "hi": 1}, "factor 's': missing key 'lo'"),
    ({"name": "s", "kind": "continuous", "lo": 0, "hi": 10**400}, "factor 's': 'hi' is too large"),
    ({"name": "n", "kind": "integer", "lo": 1.5, "hi": 4}, "factor 'n': 'lo' must be a whole"),
    ({"name": "n", "kind": "integer", "lo": 1, "hi": True}, "factor 'n': 'hi' must be a number"),
    ({"name": "c", "kind": "categorical", "levels": 5}, "factor 'c': 'levels' must be a list"),
    ({"name": "c", "kind": "categorical"}, "factor 'c': missing key 'levels'"),
    ("speed", "factor entry 0 must be an object, got 'speed'"),
    # the float64 draw is exact only within 2**53: past it, rows would leave [lo, hi]
    ({"name": "n", "kind": "integer", "lo": 0, "hi": 2**70}, "factor 'n': integer 'hi' must lie"),
    ({"name": "n", "kind": "integer", "lo": 0, "hi": 1e300}, "factor 'n': integer 'hi' must lie"),
    ({"name": "n", "kind": "integer", "lo": 2**62 - 1000, "hi": 2**62 - 1},
     "factor 'n': integer 'lo' must lie within [-2**53, 2**53], got 4611686018427386904"),
    ({"name": "c", "kind": "categorical", "levels": ["a", None, {"x": 1}]},
     "factor 'c': 'levels[1]' must be a string or a number, got None"),
    ({"name": "c", "kind": "categorical", "levels": [True]},
     "factor 'c': 'levels[0]' must be a string or a number, got True"),
    ({"name": "c", "kind": "categorical", "levels": ["a", ["b"]]},
     "factor 'c': 'levels[1]' must be a string or a number, got ['b']"),
    ({"name": "a", "kind": "continuous", "lo": 0, "hi": 1, "extra": 3},
     "factor 'a': unknown key 'extra'"),
    ({"name": "b", "kind": "boolean", "levels": [True, False]}, "factor 'b': unknown key 'levels'"),
]


@pytest.mark.parametrize("command", ["doe", "run"])
@pytest.mark.parametrize(
    "entry, message", BAD_FACTOR_DOCUMENTS, ids=range(len(BAD_FACTOR_DOCUMENTS))
)
def test_malformed_factor_document_is_exit_2_naming_factor_and_key(
    tmp_path, capsys, command, entry, message
):
    factors = tmp_path / "factors.json"
    factors.write_text(json.dumps({"factors": [entry]}))
    out = tmp_path / "out"
    if command == "doe":
        argv = ["doe", "--factors", str(factors), "--n", "10", "--out", str(out)]
    else:
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "factors": str(factors), "n": 10, "seed": 1, "runner": "navsim",
            "chunk_size": 5, "out_dir": str(out),
        }))
        argv = ["run", "--config", str(config)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"simfarm: error: {message}")
    assert "Traceback" not in err
    assert not out.exists()


class TestRunCommand:
    def make_config(self, tmp_path, factors_json, criterion=True):
        cfg = {
            "factors": str(factors_json),
            "n": 600,
            "seed": 7,
            "runner": "navsim",
            "chunk_size": 100,
            "out_dir": str(tmp_path / "out"),
        }
        if criterion:
            cfg["criterion"] = {"metric": "fuel_consumed", "epsilon": 0.005, "floor": 1e-9}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_navsim_run_with_criterion(self, tmp_path, factors_json):
        cfg = self.make_config(tmp_path, factors_json)
        assert run_cli("run", "--config", str(cfg)) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["stop_reason"] in ("criterion_met", "design_exhausted")
        results = ResultTable.from_csv(out / "results.csv")
        assert results.n_rows == report["rows_executed"]
        assert (out / "design.csv").exists()
        joined = ResultTable.from_csv(out / "joined.csv")
        assert joined.n_rows == results.n_rows
        assert set(joined.column_names) == {
            "speed", "altitude", "time_of_flight", "fuel_consumed"
        }

    def test_results_idempotent_across_runs(self, tmp_path, factors_json):
        cfg = self.make_config(tmp_path, factors_json)
        assert run_cli("run", "--config", str(cfg)) == 0
        first = (tmp_path / "out" / "results.csv").read_bytes()
        first_report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert run_cli("run", "--config", str(cfg)) == 0
        second = (tmp_path / "out" / "results.csv").read_bytes()
        second_report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert first == second
        first_report.pop("chunk_seconds")
        second_report.pop("chunk_seconds")
        assert first_report == second_report  # wall times are the only varying field

    def test_missing_config_key_is_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"factors": "f.json"}))
        assert run_cli("run", "--config", str(path)) == 2

    @pytest.mark.parametrize("key, value", [
        ("n", "abc"),
        ("n", True),
        ("seed", 1.5),
        ("chunk_size", "x"),
        ("criterion.epsilon", "e"),
        ("criterion.floor", "f"),
        ("runner_options", [1]),
        ("runner.command", "echo"),
        ("runner.command", []),
        ("runner.command", ["echo", 1]),
        ("runner_options.seed", 1.5),
        ("runner_options.seed", "x"),
        ("runner_options.seed", True),
        ("runner_options.noise_sigma", -0.1),
        ("runner_options.noise_sigma", math.nan),
        ("runner_options.noise_sigma", "0.1"),
    ])
    def test_malformed_config_value_is_exit_2_naming_the_key(
        self, tmp_path, factors_json, capsys, key, value
    ):
        cfg = self.make_config(tmp_path, factors_json)
        doc = json.loads(cfg.read_text())
        if key.startswith("runner."):
            doc["runner"] = {"command": value}
        elif key.startswith("runner_options."):
            doc["runner_options"] = {key.split(".")[1]: value}
        elif key.startswith("criterion."):
            doc["criterion"][key.split(".")[1]] = value
        else:
            doc[key] = value
        cfg.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"simfarm: error: experiment config {key!r} must be")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, message", [
        ({"criterion": {"metric": "fuel_consumed", "epsilon": math.nan}},
         "'criterion.epsilon' must be a finite real number, got nan"),
        ({"criterion": {"metric": "fuel_consumed", "epsilon": math.inf}},
         "'criterion.epsilon' must be a finite real number, got inf"),
        ({"criterion": {"metric": "fuel_consumed", "epsilon": 0.01, "floor": math.nan}},
         "'criterion.floor' must be a finite real number, got nan"),
        ({"criterion": {"metric": "fuel_consumed", "epsilon": 0.01, "floor": 0}},
         "'criterion.floor' must be > 0, got 0"),
        ({"criterion": {"metric": "fuel_consumed", "epsilon": 0.01, "epsilson": 1}},
         "unknown key 'criterion.epsilson'"),
        ({"runner": {"command": ["false"], "timeout": 5}}, "unknown key 'runner.timeout'"),
        ({"runner": {"command": ["false"]}, "runner_options": {"seed": 3}},
         "'runner_options' is read only by a built-in runner"),
        ({"chunksize": 100}, "unknown key 'chunksize'"),
        ({"runner_options": {"params": {"noise_sigma": 0.1}}},
         "unknown key 'runner_options.params'"),
        ({"runner_options": {"timeout": 5}}, "unknown key 'runner_options.timeout'"),
    ])
    def test_config_that_ran_silently_is_exit_2(self, tmp_path, factors_json, capsys, change,
                                               message):
        cfg = self.make_config(tmp_path, factors_json, criterion=False)
        doc = {**json.loads(cfg.read_text()), **change}
        cfg.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err.startswith("simfarm: error: experiment config ") and message in err, err
        assert not (tmp_path / "out").exists()

    def test_runner_options_reach_the_factory(self, tmp_path, factors_json, capsys):
        cfg = self.make_config(tmp_path, factors_json, criterion=False)
        doc = json.loads(cfg.read_text())
        fuel = {}
        for options in ({}, {"seed": 3}, {"seed": 3, "noise_sigma": 0.5}):
            doc["runner_options"] = options
            cfg.write_text(json.dumps(doc))
            assert run_cli("run", "--config", str(cfg)) == 0
            fuel[len(options)] = ResultTable.from_csv(tmp_path / "out" / "results.csv").column(
                "fuel_consumed")
        # the seed keys only the noise: noiseless runs agree, a noisy one differs
        assert np.array_equal(fuel[0], fuel[1]) and not np.array_equal(fuel[1], fuel[2])
        doc["runner_options"] = {"noise_sigma": 0.5, "sede": 3}
        doc["out_dir"] = str(tmp_path / "rejected")
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "unknown key 'runner_options.sede'" in err
        assert not (tmp_path / "rejected").exists()

    def test_out_dir_that_cannot_be_made_fails_before_any_run(
        self, tmp_path, factors_json, capsys, monkeypatch
    ):
        def no_run(*args):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr("simfarm.cli.run_batches", no_run)
        (tmp_path / "blocker").write_text("a file")
        cfg = self.make_config(tmp_path, factors_json)
        doc = {**json.loads(cfg.read_text()), "out_dir": str(tmp_path / "blocker" / "out")}
        cfg.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(cfg)) == 2
        assert "Not a directory" in capsys.readouterr().err

    def test_noisy_navsim_run_equals_the_casestudy_campaign(self, tmp_path):
        """``run`` with the navigation experiment writes casestudy's three CSVs."""
        from simfarm import simkit
        from simfarm.doe import dump_factors
        from test_output_digests import CASESTUDY_DIGESTS, file_digest

        (tmp_path / "factors.json").write_text(
            json.dumps(dump_factors(simkit.navigation_factors())))
        config = {
            "factors": "factors.json", "n": 4500, "seed": 7, "chunk_size": 100,
            "runner": "navsim", "runner_options": {"seed": 7, "noise_sigma": 0.05},
            "out_dir": str(tmp_path / "run"),
        }
        (tmp_path / "experiment.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", str(tmp_path / "experiment.json")) == 0
        names = ("design.csv", "results.csv", "joined.csv")
        assert {name: file_digest(tmp_path / "run" / name) for name in names} == {
            name: CASESTUDY_DIGESTS[name] for name in names}


class TestAnalyzeCommands:
    def test_test_subcommand(self, tmp_path, results_csv):
        out = tmp_path / "report.json"
        code = run_cli(
            "analyze", "test", "--data", str(results_csv),
            "--columns", "a", "b", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["decision"] in ("reject", "fail_to_reject")
        assert doc["decision_path"]

    def test_fit_subcommand(self, tmp_path, results_csv):
        out = tmp_path / "fit.json"
        code = run_cli(
            "analyze", "fit", "--data", str(results_csv), "--column", "a",
            "--candidates", "normal", "uniform", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["ranking"][0] == "normal"

    def test_pareto_subcommand(self, tmp_path, results_csv):
        out = tmp_path / "front.json"
        code = run_cli(
            "analyze", "pareto", "--data", str(results_csv),
            "--objectives", "cost:min", "gain:max", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["front"]
        assert doc["directions"] == ["minimize", "maximize"]

    def test_outliers_subcommand(self, tmp_path, results_csv):
        out = tmp_path / "outliers.json"
        code = run_cli(
            "analyze", "outliers", "--data", str(results_csv), "--column", "a",
            "--method", "zscore", "--out", str(out),
        )
        assert code == 0
        assert "thresholds" in json.loads(out.read_text())

    def test_eda_subcommand_with_svgs(self, tmp_path, results_csv):
        out = tmp_path / "eda.json"
        svg_dir = tmp_path / "plots"
        code = run_cli(
            "analyze", "eda", "--data", str(results_csv),
            "--out", str(out), "--svg-dir", str(svg_dir),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["numeric"] and doc["categorical"]
        assert (svg_dir / "hist_a.svg").exists()
        assert (svg_dir / "pearson_heatmap.svg").exists()

    @pytest.mark.parametrize("values", [
        [1.7e308, -1.7e308],
        [1.7e308, -1.7e308, 1.0, 2.0, 3.0, 1.7e308],
        [1e308, -1e308, 0.5],
    ])
    def test_eda_of_a_column_whose_range_overflows_is_exit_2(self, tmp_path, capsys, values):
        data = tmp_path / "wide.csv"
        n = len(values)
        ResultTable(
            index=np.arange(n), status=np.ones(n, dtype=bool),
            columns={"fine": np.arange(n, dtype=float), "wide": np.array(values)},
        ).to_csv(data)
        assert run_cli("analyze", "eda", "--data", str(data), "--out", str(tmp_path / "e.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("simfarm: error: numeric column 'wide':") and "overflows" in err
        assert "Traceback" not in err
        assert not (tmp_path / "e.json").exists()

    def test_unknown_column_is_exit_2(self, results_csv):
        assert run_cli(
            "analyze", "outliers", "--data", str(results_csv), "--column", "zzz"
        ) == 2


class TestModelCommands:
    @pytest.fixture()
    def regression_csv(self, tmp_path):
        g = substream(1, 0)
        n = 150
        x = g.uniform(-2, 2, n)
        table = ResultTable(
            index=np.arange(n),
            status=np.ones(n, dtype=bool),
            columns={"x": x, "y": 2.0 * x + 1.0 + g.normal(0, 0.1, n)},
        )
        path = tmp_path / "reg.csv"
        table.to_csv(path)
        return path

    def test_search_train_predict_cycle(self, tmp_path, regression_csv):
        model_path = tmp_path / "model.json"
        cv_path = tmp_path / "cv.json"
        code = run_cli(
            "model", "search", "--data", str(regression_csv), "--target", "y",
            "--task", "regression", "--family", "linear_ridge",
            "--budget", "8", "--k", "4", "--seed", "0",
            "--out", str(model_path), "--cv-report", str(cv_path),
        )
        assert code == 0
        assert len(json.loads(cv_path.read_text())["evaluated"]) == 8

        pred_path = tmp_path / "pred.csv"
        code = run_cli(
            "model", "predict", "--model", str(model_path),
            "--data", str(regression_csv), "--out", str(pred_path),
        )
        assert code == 0
        pred = ResultTable.from_csv(pred_path)
        truth = ResultTable.from_csv(regression_csv).column("y")
        resid = pred.column("prediction") - truth
        assert float(np.mean(resid**2)) < 0.1

    def test_train_fixed_params(self, tmp_path, regression_csv):
        model_path = tmp_path / "model.json"
        code = run_cli(
            "model", "train", "--data", str(regression_csv), "--target", "y",
            "--task", "regression", "--family", "cart_tree",
            "--params", '{"max_depth": 4, "min_leaf": 2}',
            "--out", str(model_path),
        )
        assert code == 0
        assert json.loads(model_path.read_text())["family"] == "cart_tree"

    @pytest.mark.parametrize("family,params,message", [
        ("knn", "[1]", "--params must be a JSON object, got [1]"),
        ("knn", '"str"', '--params must be a JSON object, got "str"'),
        ("mlp", '{"hidden": "abc"}',
         "mlp hyperparameter 'hidden' must be an integer or a list of integers, got 'abc'"),
        ("linear_ridge", '{"lam": "x"}',
         "linear_ridge hyperparameter 'lam' must be a finite real number, got 'x'"),
        ("cart_tree", '{"max_depth": null}',
         "cart_tree hyperparameter 'max_depth' must be an integer, got None"),
        ("random_forest", '{"max_depth": null}',
         "random_forest hyperparameter 'max_depth' must be an integer, got None"),
        ("knn", '{"k": 2.5}', "knn hyperparameter 'k' must be an integer, got 2.5"),
        ("knn", '{"k": true}', "knn hyperparameter 'k' must be an integer, got True"),
        ("random_forest", '{"bootstrap": 1}',
         "random_forest hyperparameter 'bootstrap' must be a bool, got 1"),
        ("mlp", '{"batch_size": [16]}',
         "mlp hyperparameter 'batch_size' must be an integer, got [16]"),
        pytest.param("linear_ridge", '{"lam": 1%s}' % ("0" * 400),
                     f"linear_ridge hyperparameter 'lam' must be a finite real number, "
                     f"got 1{'0' * 400}", id="linear_ridge-lam-past-the-float-range"),
        ("mlp", '{"learning_rate": Infinity}',
         "mlp hyperparameter 'learning_rate' must be a finite real number, got inf"),
    ])
    def test_train_bad_params_exit_2(self, tmp_path, capsys, regression_csv, family, params,
                                     message):
        model_path = tmp_path / "model.json"
        code = run_cli(
            "model", "train", "--data", str(regression_csv), "--target", "y",
            "--task", "regression", "--family", family, "--params", params,
            "--out", str(model_path),
        )
        assert (code, capsys.readouterr().err) == (2, f"simfarm: error: {message}\n")
        assert not model_path.exists()

    def test_classification_with_string_labels(self, tmp_path):
        g = substream(2, 0)
        n = 80
        x = g.normal(0, 1, n)
        labels = np.where(x > 0, "hi", "lo").astype(object)
        table = ResultTable(
            index=np.arange(n),
            status=np.ones(n, dtype=bool),
            columns={"x": x, "cls": labels},
        )
        data = tmp_path / "cls.csv"
        table.to_csv(data)
        model_path = tmp_path / "model.json"
        assert run_cli(
            "model", "train", "--data", str(data), "--target", "cls",
            "--task", "classification", "--family", "knn",
            "--params", '{"k": 3}', "--out", str(model_path),
        ) == 0
        pred_path = tmp_path / "pred.csv"
        assert run_cli(
            "model", "predict", "--model", str(model_path),
            "--data", str(data), "--out", str(pred_path),
        ) == 0
        pred = ResultTable.from_csv(pred_path)
        assert set(pred.column("prediction")) <= {"hi", "lo"}

    @pytest.mark.parametrize("bad", [1.6, float("nan")])
    def test_fractional_class_labels_exit_2(self, tmp_path, capsys, bad):
        labels = np.array([0.0, 1.0, bad, 1.0, 0.0, 1.0])
        table = ResultTable(
            index=np.arange(6),
            status=np.ones(6, dtype=bool),
            columns={"x": np.arange(6.0), "label": labels},
        )
        data = tmp_path / "frac.csv"
        table.to_csv(data)
        code = run_cli(
            "model", "search", "--data", str(data), "--target", "label",
            "--task", "classification", "--family", "cart_tree", "--k", "2",
            "--budget", "1", "--out", str(tmp_path / "model.json"),
        )
        assert code == 2
        assert "'label'" in capsys.readouterr().err and not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("family", ["linear_ridge", "random_forest"])
    def test_missing_regression_target_exit_2(self, tmp_path, capsys, family):
        g = substream(3, 0)
        x = g.uniform(0, 1, 40)
        target = 2.0 * x + 1.0
        target[17] = np.nan  # a blank cell in the CSV
        table = ResultTable(
            index=np.arange(40),
            status=np.ones(40, dtype=bool),
            columns={"x": x, "fuel_consumed": target},
        )
        data = tmp_path / "blank.csv"
        table.to_csv(data)
        assert ",\n" in data.read_text()  # the missing value is an empty cell
        code = run_cli(
            "model", "search", "--data", str(data), "--target", "fuel_consumed",
            "--task", "regression", "--family", family, "--k", "3",
            "--budget", "1", "--out", str(tmp_path / "model.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'fuel_consumed'" in err and "row 17" in err
        assert not (tmp_path / "model.json").exists()

    def test_empty_class_label_exit_2(self, tmp_path, capsys):
        labels = np.array(["a", "b", None, "a", "b", "a"], dtype=object)
        table = ResultTable(
            index=np.arange(6),
            status=np.ones(6, dtype=bool),
            columns={"x": np.arange(6.0), "label": labels},
        )
        data = tmp_path / "empty.csv"
        table.to_csv(data)
        code = run_cli(
            "model", "search", "--data", str(data), "--target", "label",
            "--task", "classification", "--family", "cart_tree", "--k", "2",
            "--budget", "1", "--out", str(tmp_path / "model.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'label'" in err and "row 2" in err and "error: None" not in err
        assert not (tmp_path / "model.json").exists()

    def test_knn_search_on_a_ten_row_table(self, tmp_path):
        # 5 folds train on 8 rows each, and the default k range reaches 25: the
        # sampled 13 and 19 are capped at 8 instead of failing the search
        x = np.linspace(0.0, 1.0, 10)
        table = ResultTable(index=np.arange(10), status=np.ones(10, dtype=bool),
                            columns={"x": x, "y": 2.0 * x})
        data, cv = tmp_path / "ten.csv", tmp_path / "cv.json"
        table.to_csv(data)
        assert run_cli(
            "model", "search", "--data", str(data), "--target", "y",
            "--task", "regression", "--family", "knn", "--k", "5", "--budget", "3",
            "--seed", "1", "--out", str(tmp_path / "model.json"), "--cv-report", str(cv),
        ) == 0
        assert [e["params"]["k"] for e in json.loads(cv.read_text())["evaluated"]] == [8, 8, 2]

    def test_smote_subcommand(self, tmp_path):
        g = substream(3, 0)
        n_min, n_maj = 8, 40
        x1 = np.concatenate([g.normal(0, 1, n_min), g.normal(4, 1, n_maj)])
        x2 = np.concatenate([g.normal(0, 1, n_min), g.normal(4, 1, n_maj)])
        labels = np.array(["rare"] * n_min + ["common"] * n_maj, dtype=object)
        table = ResultTable(
            index=np.arange(n_min + n_maj),
            status=np.ones(n_min + n_maj, dtype=bool),
            columns={"x1": x1, "x2": x2, "label": labels},
        )
        data = tmp_path / "imb.csv"
        table.to_csv(data)
        out = tmp_path / "synth.csv"
        code = run_cli(
            "model", "smote", "--data", str(data), "--target", "label",
            "--minority", "rare", "--k", "3", "--amount", "200", "--out", str(out),
        )
        assert code == 0
        synth = ResultTable.from_csv(out)
        assert synth.n_rows == 16
        assert set(synth.column("label")) == {"rare"}


class TestGeoCommands:
    def test_convert_prints_exact_factor(self, capsys):
        assert run_cli("geo", "convert", "1", "NM", "m") == 0
        assert capsys.readouterr().out.strip() == "1852"

    def test_to_ecef(self, capsys):
        assert run_cli("geo", "to-ecef", "0", "0", "0") == 0
        x, y, z = capsys.readouterr().out.split()
        assert float(x) == pytest.approx(6378137.0)
        assert float(y) == 0.0 and float(z) == 0.0

    def test_to_geodetic(self, capsys):
        assert run_cli("geo", "to-geodetic", "6378137", "0", "0") == 0
        lat, lon, alt = capsys.readouterr().out.split()
        assert float(lat) == pytest.approx(0.0, abs=1e-9)
        assert float(alt) == pytest.approx(0.0, abs=1e-4)

    def test_distance(self, capsys):
        assert run_cli("geo", "distance", "0", "0", "0", "90") == 0
        d, bearing = capsys.readouterr().out.split()
        # R * pi / 2 with R = 6371008.8
        assert float(d) == pytest.approx(10007557.22, abs=1.0)
        assert float(bearing) == pytest.approx(90.0)

    def test_cross_dimension_is_exit_2(self):
        assert run_cli("geo", "convert", "1", "m", "deg") == 2


class TestNavsimWorker:
    def test_subprocess_protocol_matches_builtin(self, tmp_path, factors_json):
        from simfarm.doe import lhs_design, load_factors
        from simfarm.execution import SubprocessRunner, get_runner, run_batches

        design = lhs_design(load_factors(factors_json), 60, seed=4)
        builtin, _ = run_batches(design, get_runner("navsim", seed=0), None, 25)
        worker = SubprocessRunner(
            [sys.executable, "-m", "simfarm", "navsim-worker", "--seed", "0"]
        )
        external, _ = run_batches(design, worker, None, 25)
        assert np.allclose(
            builtin.column("fuel_consumed"), external.column("fuel_consumed")
        )
        assert np.allclose(
            builtin.column("time_of_flight"), external.column("time_of_flight")
        )


    @pytest.mark.parametrize(
        "text, message",
        [
            ("speed,_index,altitude\n400,0,20000\n", "_index column first"),
            ("", "_index column first"),
            ("_index,speed\n0,400\n", "lacks the 'altitude' column"),
        ],
    )
    def test_malformed_chunk_exits_two(self, tmp_path, capsys, text, message):
        chunk = tmp_path / "in.csv"
        chunk.write_text(text)
        assert run_cli("navsim-worker", str(chunk), str(tmp_path / "out.csv")) == 2
        assert message in capsys.readouterr().err
        # the same through the light worker entry of ``python -m simfarm``
        cmd = [sys.executable, "-m", "simfarm", "navsim-worker", str(chunk), str(tmp_path / "o.csv")]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("simfarm: error: chunk CSV ")
        assert message in proc.stderr

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_worker_bad_noise_sigma_exits_2(self, tmp_path, capsys, noise):
        chunk = tmp_path / "in.csv"
        chunk.write_text("_index,speed,altitude\n0,400,20000\n")
        out = tmp_path / "results.csv"
        assert run_cli("navsim-worker", str(chunk), str(out), "--noise", noise) == 2
        assert "noise_sigma must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestCaseStudyCommand:
    def test_small_pipeline(self, tmp_path):
        out = tmp_path / "cs"
        code = run_cli(
            "casestudy", "navigation", "--out", str(out), "--n", "400",
            "--seed", "1", "--chunk-size", "100",
        )
        assert code == 0
        for name in (
            "design.csv",
            "results.csv",
            "execution_report.json",
            "casestudy_report.json",
            "scatter_time_fuel.svg",
            "heatmap_fuel.svg",
        ):
            assert (out / name).exists()
        doc = json.loads((out / "casestudy_report.json").read_text())
        assert doc["rows_executed"] == 400

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_fewer_than_two_rows_exits_2_before_writing(self, tmp_path, capsys, n):
        """The time-fuel fit needs two rows: one would write NaN into the report."""
        out = tmp_path / "cs"
        assert run_cli("casestudy", "navigation", "--out", str(out), "--n", n) == 2
        err = capsys.readouterr().err
        assert err == f"simfarm: error: --n must be >= 2 for the time-fuel fit, got {n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
    def test_bad_noise_sigma_exits_2_before_writing(self, tmp_path, capsys, noise):
        out = tmp_path / "cs"
        code = run_cli("casestudy", "navigation", "--out", str(out), "--n", "100",
                       "--noise", noise)
        assert code == 2
        assert "noise_sigma must be finite and >= 0" in capsys.readouterr().err
        assert not (out / "results.csv").exists()


class TestExitCodes:
    def test_help_exits_zero_everywhere(self):
        commands = [
            ["--help"],
            ["doe", "--help"],
            ["run", "--help"],
            ["analyze", "--help"],
            ["analyze", "test", "--help"],
            ["analyze", "fit", "--help"],
            ["analyze", "pareto", "--help"],
            ["analyze", "outliers", "--help"],
            ["analyze", "eda", "--help"],
            ["model", "--help"],
            ["model", "search", "--help"],
            ["model", "train", "--help"],
            ["model", "predict", "--help"],
            ["model", "smote", "--help"],
            ["geo", "--help"],
            ["geo", "convert", "--help"],
            ["geo", "to-ecef", "--help"],
            ["geo", "to-geodetic", "--help"],
            ["geo", "distance", "--help"],
            ["navsim-worker", "--help"],
            ["casestudy", "--help"],
            ["casestudy", "navigation", "--help"],
        ]
        for argv in commands:
            with pytest.raises(SystemExit) as exc:
                dispatch(argv)
            assert exc.value.code == 0, argv

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["doe", "--n", "10"])
        assert exc.value.code == 1

    def test_over_limit_cell_exits_two(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("_index,_status,y\n0,ok,1\n1,ok," + "9" * 200_000 + "\n")
        assert run_cli("analyze", "outliers", "--data", str(path), "--column", "y") == 2
        assert "field larger than field limit" in capsys.readouterr().err

    def test_parser_is_reused_across_calls(self, tmp_path, results_csv, capsys):
        # A usage error, then two different commands (one of them twice, with
        # and without an option), through the one cached parser and through a
        # parser built afresh for every call.
        import simfarm.cli as cli

        out = tmp_path / "o.json"
        argvs = [
            ["analyze", "outliers", "--data", str(results_csv), "--bogus"],
            ["geo", "convert", "3", "km", "m"],
            ["analyze", "outliers", "--data", str(results_csv), "--column", "cost",
             "--method", "zscore", "--k", "2", "--out", str(out)],
            ["analyze", "outliers", "--data", str(results_csv), "--column", "cost",
             "--out", str(out)],
        ]

        def run_all(fresh: bool):
            out.unlink(missing_ok=True)
            outputs = []
            for argv in argvs:
                if fresh:
                    cli._parser.cache_clear()
                try:
                    code = dispatch(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                outputs.append((code, captured.out, captured.err,
                                out.read_text() if out.exists() else None))
            return outputs

        cached = run_all(fresh=False)
        assert cli._parser() is cli._parser()
        assert [o[0] for o in cached] == [1, 0, 0, 0]
        assert cached[2][3] != cached[3][3]
        assert run_all(fresh=True) == cached

    def test_missing_data_file_exits_two(self, tmp_path):
        assert run_cli(
            "analyze", "eda", "--data", str(tmp_path / "nope.csv")
        ) == 2

    def test_non_utf8_data_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\xff\xfe,\x80\n")
        assert run_cli("analyze", "eda", "--data", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("simfarm: error: line 1: not UTF-8 text")
        assert "Traceback" not in err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "simfarm", "geo", "convert", "180", "deg", "rad"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("3.14159")
