"""Child process of the benchmark: builds inputs, or runs the timed loop.

``child.py setup --workload W --seed S --inputs DIR``
    Fresh interpreter: import simfarm and build the workload's inputs.  The
    parent times the whole process, which is one ``setup_s`` sample.

``child.py drive --workload W --seed S --inputs DIR --work DIR --seconds T
--trace 0|1 --result FILE``
    Runs the workload's commands in-process through ``simfarm.cli.dispatch``,
    one command at a time, until T seconds have passed (at least one run;
    two in trace mode), and writes per-run wall times, exit codes, host
    speed (``speed.py``, probed in a background thread) and resource use to
    FILE.  Output checks happen in the parent afterwards, so
    they add nothing to this process's peak memory.  In trace mode the runs
    alternate untraced and traced, starting untraced; the spans of the
    traced ones are written to ``<work>/trace.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _dispatch(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command; its diagnostics are captured, not printed."""
    from simfarm.cli import dispatch

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, err.getvalue()[-2000:]


def drive(args) -> None:
    import simfarm
    import speed
    import tracing

    if not Path(simfarm.__file__).resolve().is_relative_to(Path.cwd().resolve() / "src"):
        sys.exit(f"simfarm was imported from {simfarm.__file__}, not from ./src")
    name = args.workload
    inputs = Path(args.inputs)
    work = Path(args.work)
    with speed.Sampler() as sampler:
        start = time.perf_counter()
        runs = []
        traces = []
        while True:
            i = len(runs)
            traced = bool(args.trace) and i % 2 == 1
            out = work / f"run{i}" / "out"
            out.mkdir(parents=True)
            argvs = workloads.commands(name, inputs, out, args.seed)
            tracer = tracing.Tracer(f"{name}:seed{args.seed}:run{i}") if traced else None
            cpu0 = _children_cpu()
            run_start = time.perf_counter()
            walls, codes, errors = [], [], []
            with tracing.instrument(tracer) if traced else contextlib.nullcontext():
                for argv in argvs:
                    t0 = time.perf_counter()
                    if traced:
                        code, err = tracer.call(workloads.command_name(argv), _dispatch, argv)
                    else:
                        code, err = _dispatch(argv)
                    walls.append(time.perf_counter() - t0)
                    codes.append(code)
                    errors.append(err if code else "")
            run = {"traced": traced, "walls": walls, "codes": codes, "errors": errors,
                   "child_cpu_s": _children_cpu() - cpu0,
                   "window": [run_start, time.perf_counter()]}
            if traced:
                traces.append(tracer.export())
            if name == "run-subprocess":
                code, err = _dispatch(workloads.probe_command(inputs, work / f"run{i}" / "probe"))
                run["probe"] = {"code": code, "error": err}
            runs.append(run)
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds and len(runs) >= (2 if args.trace else 1):
                break
    for run in runs:
        run["speed"] = speed.speed(sampler.samples, *run.pop("window"))
    self_ru = resource.getrusage(resource.RUSAGE_SELF)
    child_ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    doc = {
        "runs": runs,
        "loop_s": time.perf_counter() - start,
        # ru_maxrss is in KiB on Linux; at most one worker child is alive at a time
        "peak_rss_kib": self_ru.ru_maxrss + child_ru.ru_maxrss,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "speed_probes": len(sampler.samples),
    }
    if traces:
        (work / "trace.json").write_text(json.dumps(traces), encoding="utf-8")
    Path(args.result).write_text(json.dumps(doc), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "drive"])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.mode == "setup":
        workloads.build(args.workload, Path(args.inputs), args.seed)
    else:
        drive(args)


if __name__ == "__main__":
    sys.exit(main())
