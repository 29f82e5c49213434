"""The four campaign workloads: their inputs and the CLI commands they run.

Each workload is one analyst action at a fixed size.  ``build`` makes the
inputs with simfarm from the benchmark seed (this is the set-up that
``setup_s`` times); ``commands`` lists the ``simfarm`` argument vectors of one
workload run, executed in order through ``simfarm.cli.dispatch``.

* ``casestudy-64k``: the paper's headline pipeline, 640 chunks of 100 rows.
  Write-heavy, and the controller rebuilds the cumulative table after every
  chunk, so it is where execution-core work shows.
* ``run-subprocess``: the external-simulator path.  Two chunks run before the
  convergence criterion stops the campaign; time goes to chunk CSVs and
  worker processes, so controller changes should leave it flat.  The
  criterion's epsilon is 0.01 because at 1e-4 the stop chunk ranges from 2 to
  never over seeds 1-20, which would make the wall time depend on the seed
  four-fold; at 0.01 every one of those seeds stops after chunk 2.
* ``analyze-16k``: the five ``analyze`` subcommands on a 16 000-row table.
  Read-heavy, no execution layer.  ``fit`` passes ``--rescale`` so the beta
  candidate is fitted and its scalar ``betainc`` loop is on the measured path
  next to ``gammainc`` and ``norm_cdf``.
* ``surrogate-search``: ``model search`` for every family plus a
  classification search and a ``model predict``; only the models layer runs.
  The search seed is fixed so that the sampled configurations, and with them
  the amount of work, do not change with the data seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

NAMES = ("casestudy-64k", "run-subprocess", "analyze-16k", "surrogate-search")

CASESTUDY_N = 64_000
CASESTUDY_CHUNK = 100
NOISE = 0.05
RUN_N = 16_000
RUN_CHUNK = 2_000
RUN_EPSILON = 0.01
PROBE_N = 4_000  # two chunks; the worker fails on the second
ANALYZE_N = 16_000
SURROGATE_N = 1_000
SEARCH_SEED = 7
SEARCH_K = 5
SEARCH_BUDGET = 2
FAMILIES = ("linear_ridge", "knn", "cart_tree", "random_forest", "mlp")

HERE = Path(__file__).resolve().parent


def input_rows(name: str) -> int:
    """Design rows (campaign workloads) or table rows (the other two)."""
    return {
        "casestudy-64k": CASESTUDY_N,
        "run-subprocess": RUN_N,
        "analyze-16k": ANALYZE_N,
        "surrogate-search": SURROGATE_N,
    }[name]


def worker_command(seed: int) -> list[str]:
    return [sys.executable, "-m", "simfarm", "navsim-worker",
            "--seed", str(seed), "--noise", str(NOISE)]


def _joined_table(n: int, seed: int):
    """Design inputs joined with navsim outputs, the shape ``simfarm run`` writes."""
    import numpy as np

    from simfarm import simkit
    from simfarm.doe import lhs_design
    from simfarm.execution import DesignChunk
    from simfarm.tables import ResultTable

    design = lhs_design(simkit.navigation_factors(), n, seed)
    params = simkit.calibrate(noise_sigma=NOISE)
    chunk = DesignChunk(design=design, indices=np.arange(n, dtype=np.int64))
    results = simkit.simulate_navigation(chunk, params, seed=seed)
    columns = {f.name: design.column(f.name) for f in design.factors}
    columns.update(results.columns)
    return ResultTable(index=results.index, status=results.status, columns=columns)


def build(name: str, inputs: Path, seed: int) -> None:
    """Make the workload's input files under ``inputs``."""
    import numpy as np

    from simfarm import simkit
    from simfarm.doe import dump_factors
    from simfarm.tables import ResultTable

    inputs.mkdir(parents=True, exist_ok=True)
    if name == "casestudy-64k":
        return  # the command takes no input files
    if name == "run-subprocess":
        (inputs / "factors.json").write_text(
            json.dumps(dump_factors(simkit.navigation_factors()), indent=2), encoding="utf-8")
        experiment = {
            "factors": "factors.json", "n": RUN_N, "seed": seed, "chunk_size": RUN_CHUNK,
            "runner": {"command": worker_command(seed)},
            "criterion": {"metric": "fuel_consumed", "epsilon": RUN_EPSILON},
            "out_dir": "out",
        }
        probe = {
            "factors": "factors.json", "n": PROBE_N, "seed": seed, "chunk_size": RUN_CHUNK,
            "runner": {"command": [sys.executable, str(HERE / "failing_worker.py"),
                                   "--fail-from-index", str(RUN_CHUNK), *worker_command(seed)]},
            "out_dir": "probe",
        }
        for fname, doc in (("experiment.json", experiment), ("probe.json", probe)):
            (inputs / fname).write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return
    if name == "analyze-16k":
        _joined_table(ANALYZE_N, seed).to_csv(inputs / "joined.csv")
        return
    if name == "surrogate-search":
        table = _joined_table(SURROGATE_N, seed)
        table.to_csv(inputs / "joined.csv")
        fuel = table.column("fuel_consumed")
        cuts = np.quantile(fuel, [1 / 3, 2 / 3])
        labels = np.array(["low", "mid", "high"], dtype=object)[np.searchsorted(cuts, fuel)]
        columns = {k: v for k, v in table.columns.items() if k != "fuel_consumed"}
        columns["fuel_tercile"] = labels
        ResultTable(index=table.index, status=table.status, columns=columns).to_csv(
            inputs / "classes.csv")
        return
    raise ValueError(f"unknown workload {name!r}")


def commands(name: str, inputs: Path, out: Path, seed: int) -> list[list[str]]:
    """``simfarm`` argument vectors of one workload run, writing under ``out``."""
    if name == "casestudy-64k":
        return [["casestudy", "navigation", "--out", str(out), "--n", str(CASESTUDY_N),
                 "--chunk-size", str(CASESTUDY_CHUNK), "--noise", str(NOISE),
                 "--seed", str(seed)]]
    if name == "run-subprocess":
        return [["run", "--config", str(_with_out_dir(inputs / "experiment.json", out))]]
    if name == "analyze-16k":
        data = str(inputs / "joined.csv")
        return [
            ["analyze", "test", "--data", data, "--columns", "speed", "time_of_flight",
             "fuel_consumed", "--out", str(out / "test.json")],
            ["analyze", "fit", "--data", data, "--column", "fuel_consumed", "--rescale",
             "--out", str(out / "fit.json")],
            ["analyze", "pareto", "--data", data, "--objectives", "fuel_consumed:min",
             "time_of_flight:min", "--out", str(out / "pareto.json")],
            ["analyze", "outliers", "--data", data, "--column", "fuel_consumed",
             "--out", str(out / "outliers.json")],
            ["analyze", "eda", "--data", data, "--out", str(out / "eda.json"),
             "--svg-dir", str(out / "svg")],
        ]
    if name == "surrogate-search":
        search = ["--k", str(SEARCH_K), "--budget", str(SEARCH_BUDGET),
                  "--seed", str(SEARCH_SEED)]
        argvs = [
            ["model", "search", "--data", str(inputs / "joined.csv"),
             "--target", "fuel_consumed", "--task", "regression", "--family", family,
             *search, "--out", str(out / f"{family}.model.json"),
             "--cv-report", str(out / f"{family}.cv.json")]
            for family in FAMILIES
        ]
        argvs.append(
            ["model", "search", "--data", str(inputs / "classes.csv"),
             "--target", "fuel_tercile", "--task", "classification", "--family", "cart_tree",
             *search, "--out", str(out / "cart_tree_cls.model.json"),
             "--cv-report", str(out / "cart_tree_cls.cv.json")])
        argvs.append(
            ["model", "predict", "--model", str(out / "random_forest.model.json"),
             "--data", str(inputs / "joined.csv"), "--out", str(out / "predictions.csv")])
        return argvs
    raise ValueError(f"unknown workload {name!r}")


def probe_command(inputs: Path, out: Path) -> list[str]:
    """The untimed failure-injection run that follows each ``run-subprocess`` run."""
    return ["run", "--config", str(_with_out_dir(inputs / "probe.json", out))]


def _with_out_dir(config: Path, out: Path) -> Path:
    """A copy of ``config`` beside ``out`` that writes its outputs to ``out``."""
    doc = json.loads(config.read_text(encoding="utf-8"))
    doc["factors"] = str(config.parent / doc["factors"])
    doc["out_dir"] = str(out)
    out.mkdir(parents=True, exist_ok=True)
    target = out.parent / config.name
    target.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return target


def command_name(argv: list[str]) -> str:
    """``cli.<command>`` span name of one argument vector."""
    if argv[0] in ("analyze", "model"):
        return f"cli.{argv[0]}_{argv[1]}"
    return f"cli.{argv[0]}"
