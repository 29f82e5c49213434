#!/usr/bin/env python3
"""Campaign benchmark for simfarm: one workload, one seed, one JSON line.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload casestudy-64k --seed 7 --seconds 20 --trace 0

Workloads: casestudy-64k, run-subprocess, analyze-16k, surrogate-search (see
``workloads.py``); ``--workload all`` runs each in turn and prints each one's
lines.  The run is a closed loop with one client: set-up is timed
in fresh interpreters, then one child process runs the workload's ``simfarm``
commands in-process, one at a time and with at most one worker process of its
own alive, for ``--seconds`` (at least one full workload run).  Afterwards
every run's outputs are checked (``checks.py``).  BLAS and OpenMP are pinned
to one thread in every child so the two-core budget is the same on every run.
The benchmark and all its children run on one CPU, and the time metrics
(``wall_s``, ``rows_per_s``, ``setup_s``) are scaled to a reference host
speed by a fixed probe timed on that CPU next to them (``speed.py``), because
the reference host's speed drifts by 20-50 % from minute to minute; the raw
wall times are printed on the ``host speed`` summary line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``wall_s``, ``rows_per_s``, ``setup_s``, ``peak_rss_mb``, ``ok_ratio``);
with ``--trace 1`` it carries the per-layer metrics of the traced runs
(``tracing.py``), and the spans go to ``.perfbench/trace-<workload>-seed<N>.json``.
The lines above it give quartiles, sample counts, the failed-operation count
and a timing-free digest of the outputs.  Exit status is 0 when every output
check passed, 1 when one failed or a child process failed, and 2 when no
simfarm source tree is found under ``src/``.

``--record-expected`` (default seed only) stores the outputs' digests and
reference scores in ``expected.json``; do that only when an output is meant
to change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 7
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole invocation, checks included
CHECK_RESERVE_S = 30.0
EXPECTED = HERE / "expected.json"

PER_LAYER = [
    "cli.casestudy_s", "cli.run_s", "cli.analyze_test_s", "cli.analyze_fit_s",
    "cli.analyze_pareto_s", "cli.analyze_outliers_s", "cli.analyze_eda_s",
    "cli.model_search_s", "cli.model_predict_s",
    "doe.lhs_s", "doe.write_design_s",
    "execution.controller_s", "execution.runner_s", "execution.criterion_s",
    "execution.criterion_calls", "execution.chunks", "execution.rows_ok",
    "execution.rows_failed", "execution.rows_useful_ratio", "execution.child_cpu_s",
    "simkit.simulate_s",
    "tables.concat_s", "tables.concat_calls", "tables.concat_rows_copied",
    "tables.write_csv_s", "tables.bytes_written", "tables.read_csv_s", "tables.bytes_read",
    "tables.columns_from_table_s",
    "analysis.hypothesis_s", "analysis.fitting_s", "analysis.pareto_s",
    "analysis.outliers_s", "analysis.eda_s", "analysis.plots_s",
    "analysis.pareto_front_size", "analysis.special.gammainc_calls",
    "analysis.special.betainc_calls", "analysis.special.norm_cdf_calls",
    "analysis.special.norm_ppf_vec_calls",
    *(f"models.search.{f}_s" for f in workloads.FAMILIES), "models.search.cart_tree_cls_s",
    "models.preprocess_s", "models.train_s", "models.predict_s", "models.serialize_s",
    "models.fits", "models.fits_nonfinite", "models.fit_ok_ratio",
    "trace.overhead_s", "trace.spans",
]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    if name.startswith("tables.bytes"):
        return "B"
    return "count"


class ChildFailed(Exception):
    pass


def run_child(cmd: list[str], env: dict, timeout: float) -> float:
    """Run ``cmd`` in its own process group; returns its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        output, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{cmd[2]} timed out after {timeout:.0f} s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # reap any worker left behind
        except ProcessLookupError:
            pass
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{cmd[2]} exited {proc.returncode}:\n"
                          + output.decode(errors="replace")[-3000:])
    return elapsed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def child_env(root: Path, tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(tmp)
    return env


def per_layer_values(runs: list[dict], traces: list[dict]) -> dict[str, float]:
    """Median over the traced runs of each per-layer metric; 0 where a layer did not run."""
    traced = [r for r in runs if r["traced"]]
    per_run = []
    for run, trace in zip(traced, traces):
        m = tracing.layer_metrics(trace)
        m["execution.child_cpu_s"] = run["child_cpu_s"]
        design_rows = m.pop("execution.design_rows", 0)
        executed = m.pop("execution.rows_executed", 0)
        m["execution.rows_useful_ratio"] = executed / design_rows if design_rows else 0.0
        fits = m.get("models.fits", 0)
        m["models.fit_ok_ratio"] = (fits - m.get("models.fits_nonfinite", 0)) / fits if fits else 0.0
        per_run.append(m)
    out = {name: statistics.median(m.get(name, 0.0) for m in per_run) for name in PER_LAYER}
    out["trace.overhead_s"] = (
        statistics.median(sum(r["walls"]) for r in traced)
        - statistics.median(sum(r["walls"]) for r in runs if not r["traced"]))
    return out


def pin_to_one_cpu() -> None:
    """Run this process and all its children on one CPU, the last one allowed.

    The host-speed probe (``speed.py``) must time the same CPU as the
    workload.  The benchmark is a closed loop in which at most one process
    is busy at a time, so one CPU loses it nothing.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"],
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if args.record_expected and args.seed != DEFAULT_SEED:
        parser.error(f"--record-expected needs the default seed {DEFAULT_SEED}")
    root = Path.cwd()
    if not (root / "src" / "simfarm" / "__init__.py").is_file():
        print("perfbench: no simfarm source tree under ./src; run from a checkout root",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    return max([run_workload(args, name, root) for name in names])


def run_workload(args, name: str, root: Path) -> int:
    started = time.perf_counter()
    seed = args.seed
    work = root / ".perfbench" / f"work-{name}-seed{seed}-{os.getpid()}"
    tmp = work / "tmp"
    shutil.rmtree(work, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = child_env(root, tmp)
    child = [sys.executable, str(HERE / "child.py")]
    common = ["--workload", name, "--seed", str(seed)]
    try:
        setup, setup_raw = [], []
        for k in range(SETUP_SAMPLES):
            remaining = DEADLINE_S - (time.perf_counter() - started)
            before = speed.measure()
            raw = run_child([*child, "setup", *common, "--inputs", str(work / f"inputs{k}")],
                            env, min(60.0, remaining))
            setup_raw.append(raw)
            setup.append(raw * (before + speed.measure()) / 2)
        inputs = work / f"inputs{SETUP_SAMPLES - 1}"
        result_path = work / "result.json"
        run_child([*child, "drive", *common, "--inputs", str(inputs), "--work", str(work),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--result", str(result_path)], env,
                  DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - started))
        result = json.loads(result_path.read_text(encoding="utf-8"))
        return report(args, name, work, inputs, setup, setup_raw, result)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(args, name: str, work: Path, inputs: Path, setup: list[float],
           setup_raw: list[float], result: dict) -> int:
    seed = args.seed
    runs = result["runs"]
    expected_doc = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    expected = expected_doc.get(name, {})
    at_default = seed == DEFAULT_SEED

    # Full checks on the first run; every later run must leave byte-identical
    # (timing-free) outputs, which is also how tracing is shown not to alter them.
    digests = checks.file_digests(work / "run0" / "out")
    first = checks.check(name, inputs, work / "run0" / "out", seed, runs[0]["codes"],
                         {**expected, "seed_scores": expected.get("seed_scores") if at_default
                          else None})
    problems, known = list(first.problems), sorted(set(first.known))
    attempted = failed = 0
    for i, run in enumerate(runs):
        if i and checks.file_digests(work / f"run{i}" / "out") != digests:
            problems.append(f"run {i}: outputs differ from run 0")
        if i and run["codes"] != runs[0]["codes"]:
            problems.append(f"run {i}: exit codes {run['codes']} differ from run 0")
        attempted += first.attempted
        failed += first.failed
        if "probe" in run:
            probe = checks.check_probe(run["probe"], work / f"run{i}" / "probe")
            attempted += probe.attempted
            failed += probe.failed
            problems += [f"run {i}: {p}" for p in probe.problems]
            known = sorted(set(known) | set(probe.known))
    reference = expected.get("digests")
    if at_default and reference is not None:
        for fname in sorted(set(reference) | set(digests)):
            if reference.get(fname) != digests.get(fname):
                problems.append(f"{fname}: differs from the recorded default-seed output")
    combined = checks.combined_digest(digests)

    untraced = [r for r in runs if not r["traced"]]
    raw_walls = [sum(r["walls"]) for r in untraced]
    walls = [w * r["speed"] for w, r in zip(raw_walls, untraced)]
    q1, wall, q3 = quartiles(walls)
    print(f"perfbench {name} seed={seed} runs={len(runs)} untraced={len(untraced)} "
          f"loop_s={result['loop_s']:.2f} blas_threads=1 numba={result['numba']} "
          f"cpu={max(os.sched_getaffinity(0))} speed_probes={result['speed_probes']}")
    print(f"wall_s median={wall:.4f} q1={q1:.4f} q3={q3:.4f} n={len(walls)} "
          f"samples={[round(w, 4) for w in walls]}")
    print(f"host speed={[round(r['speed'], 3) for r in untraced]} raw wall median="
          f"{statistics.median(raw_walls):.4f} samples={[round(w, 4) for w in raw_walls]}")
    s1, s2, s3 = quartiles(setup)
    print(f"setup_s median={s2:.4f} q1={s1:.4f} q3={s3:.4f} n={len(setup)} "
          f"samples={[round(s, 4) for s in setup]} raw={[round(s, 4) for s in setup_raw]}")
    print(f"operations attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.4f}")
    for line in known:
        print(f"known defect: {line}")
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"digest {name} seed={seed} {combined}")

    if args.record_expected:
        expected_doc[name] = (surrogate_reference(work / "run0" / "out")
                              if name == "surrogate-search" else {"digests": digests})
        EXPECTED.write_text(json.dumps(expected_doc, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")

    if args.trace:
        traces = json.loads((work / "trace.json").read_text(encoding="utf-8"))
        keep = Path.cwd() / ".perfbench" / f"trace-{name}-seed{seed}.json"
        keep.write_text(json.dumps(traces), encoding="utf-8")
        values = per_layer_values(runs, traces)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "rows_per_s": {"value": workloads.input_rows(name) / wall, "unit": "rows/s"},
            "setup_s": {"value": s2, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kib"] / 1024.0, "unit": "MiB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "1"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


def surrogate_reference(out: Path) -> dict:
    params, scores = {}, {}
    for cv in sorted(out.glob("*.cv.json")):
        doc = checks.load_json(cv)
        label = cv.name[: -len(".cv.json")]
        params[label] = [e["params"] for e in doc["evaluated"]]
        scores[label] = {"best_index": doc["best_index"],
                         "mean_scores": [e["mean_score"] for e in doc["evaluated"]]}
    return {"params": params, "seed_scores": scores}


if __name__ == "__main__":
    sys.exit(main())
