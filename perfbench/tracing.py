"""Spans and counters recorded around calls into simfarm's modules.

The program itself carries no tracing: ``instrument`` swaps the public
functions each layer exposes, in the namespace where the caller looks them up
(``simfarm.cli`` imports most of them by name), for wrappers that record a
span, and puts the originals back on exit.  Spans live in memory and are
written out by the caller when the run ends.  The scalar special-function
kernels are called tens of thousands of times per command, so they get counters
only, which keeps the traced run close to the untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from collections import Counter


class Tracer:
    """Spans ``[id, parent, name, start, end]`` and named counters of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, *args)`` may update counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def export(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced workload run.

    Span ``x`` feeds metric ``x_s`` (inclusive time), and counters keep their
    names.  A span's time counts once per outermost occurrence of its name, so a
    layer that re-enters itself is not counted twice.  ``execution.controller_s``
    is the self time of ``run_batches``: its duration minus its child spans
    (runner, criterion, concat).
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def nested_in_same(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return True
            p = by_id[p]["parent"]
        return False

    out: dict[str, float] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        name = s["name"]
        if nested_in_same(s):
            continue
        key = name + "_s"
        if name == "execution.run_batches":
            key = "execution.controller_s"
            dur -= sum(c["end"] - c["start"] for c in children.get(s["id"], []))
        out[key] = out.get(key, 0.0) + dur
    out.update(trace["counts"])
    out["trace.spans"] = len(spans)
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route simfarm's layer entry points through ``tracer`` until exit."""
    import simfarm.analysis.fitting as fitting
    import simfarm.analysis.normality as normality
    import simfarm.cli as cli
    import simfarm.models.selection as selection
    import simfarm.simkit as simkit
    from simfarm.models.preprocess import FittedPreprocessor
    from simfarm.models.train import TrainedModel
    from simfarm.tables import ResultTable

    t = tracer
    c = t.counts
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        patches.append((owner, attr, raw))
        new = make(getattr(owner, attr))
        bound = isinstance(raw, (classmethod, staticmethod))
        setattr(owner, attr, staticmethod(new) if bound else new)

    def on_run_batches(result, design, *args, **kwargs):
        table, report = result
        ok = int(table.ok_mask().sum())
        c["execution.chunks"] += report.chunks_executed
        c["execution.rows_ok"] += ok
        c["execution.rows_failed"] += table.n_rows - ok
        c["execution.design_rows"] += design.n
        c["execution.rows_executed"] += table.n_rows

    def on_concat(result, *args, **kwargs):
        c["tables.concat_calls"] += 1
        c["tables.concat_rows_copied"] += result.n_rows

    def on_write(result, table, path, *args, **kwargs):
        c["tables.bytes_written"] += os.path.getsize(path)

    def on_read(result, path, *args, **kwargs):
        c["tables.bytes_read"] += os.path.getsize(path)

    def on_pareto(result, *args, **kwargs):
        c["analysis.pareto_front_size"] += len(result.front)

    def on_search(result):
        _, report = result
        scores = [s for e in report.evaluated for s in e.fold_scores]
        c["models.fits"] += len(scores)
        c["models.fits_nonfinite"] += sum(1 for s in scores if not math.isfinite(s))

    def runner_factory(factory):
        def make(*args, **kwargs):
            return t.wrap("execution.runner", factory(*args, **kwargs))

        return make

    def criterion_factory(factory):
        def make(*args, **kwargs):
            return t.counted("execution.criterion_calls",
                             t.wrap("execution.criterion", factory(*args, **kwargs)))

        return make

    def search(fn):
        def run(spec, *args, **kwargs):
            suffix = "_cls" if spec.task == "classification" else ""
            result = t.call(f"models.search.{spec.family}{suffix}", fn, spec, *args, **kwargs)
            on_search(result)
            return result

        return run

    try:
        patch(cli, "lhs_design", lambda f: t.wrap("doe.lhs", f))
        patch(cli, "write_design", lambda f: t.wrap("doe.write_design", f))
        patch(cli, "run_batches", lambda f: t.wrap("execution.run_batches", f, on_run_batches))
        patch(simkit, "navsim_runner", runner_factory)
        patch(cli, "SubprocessRunner", runner_factory)
        patch(cli, "mean_convergence_criterion", criterion_factory)
        patch(simkit, "simulate_navigation", lambda f: t.wrap("simkit.simulate", f))
        patch(ResultTable, "concat", lambda f: t.wrap("tables.concat", f, on_concat))
        patch(ResultTable, "to_csv", lambda f: t.wrap("tables.write_csv", f, on_write))
        patch(ResultTable, "from_csv", lambda f: t.wrap("tables.read_csv", f, on_read))
        patch(cli, "columns_from_table", lambda f: t.wrap("tables.columns_from_table", f))
        patch(cli, "run_hypothesis_test", lambda f: t.wrap("analysis.hypothesis", f))
        patch(cli, "fit_distributions", lambda f: t.wrap("analysis.fitting", f))
        patch(cli, "pareto_front", lambda f: t.wrap("analysis.pareto", f, on_pareto))
        patch(cli, "detect_outliers", lambda f: t.wrap("analysis.outliers", f))
        patch(cli, "eda_summary", lambda f: t.wrap("analysis.eda", f))
        patch(cli, "emit_plot", lambda f: t.wrap("analysis.plots", f))
        for kernel, counter in (
            ("gammainc_p", "analysis.special.gammainc_calls"),
            ("betainc", "analysis.special.betainc_calls"),
            ("norm_cdf", "analysis.special.norm_cdf_calls"),
        ):
            patch(fitting, kernel, lambda f, counter=counter: t.counted(counter, f))
        patch(normality, "norm_ppf_vec",
              lambda f: t.counted("analysis.special.norm_ppf_vec_calls", f))
        patch(cli, "random_search_cv_table", search)
        patch(selection, "fit_preprocessor", lambda f: t.wrap("models.preprocess", f))
        patch(FittedPreprocessor, "transform", lambda f: t.wrap("models.preprocess", f))
        patch(selection, "train", lambda f: t.wrap("models.train", f))
        patch(TrainedModel, "predict", lambda f: t.wrap("models.predict", f))
        patch(cli, "save_model", lambda f: t.wrap("models.serialize", f))
        patch(cli, "load_model", lambda f: t.wrap("models.serialize", f))
        yield tracer
    finally:
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)

