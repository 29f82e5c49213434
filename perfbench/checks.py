"""Correctness checks on the files each workload run leaves behind.

The oracles here are independent of simfarm: LHS strata, the navsim fuel
law and its per-row Philox noise stream (both as documented in the simfarm
sources), a brute-force NumPy dominance scan for the Pareto front, scipy for
the hypothesis tests and distribution fits, and plain NumPy for quantiles,
correlations and CV bookkeeping.  Every check here runs for any seed; for
the default seed ``run.py`` also compares the outputs' timing-free digests
with ``expected.json``, because those artefacts must stay byte-identical.

Two known defects are counted as failed operations instead of failing the
check: the failure probe's campaign aborts when one chunk's worker fails, and
both MLP configurations diverge to a NaN score on the raw fuel target.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads as wl

REL_TOL = 1e-9  # same arithmetic recomputed in NumPy: agreement to rounding
ORACLE_REL_TOL = 1e-6  # a different implementation (scipy) of the same statistic
P_ABS_TOL = 1e-9  # p-values that underflow differently near zero
SPEED_KT = (350.0, 550.0)
ALTITUDE_FT = (10000.0, 35000.0)
NOISE_SAMPLE = 512  # rows whose noise draw is recomputed from the Philox stream
PROBE_ABORT = "cannot concatenate tables with different columns"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)


class _Problems:
    """Collects failed checks under a label, without stopping at the first."""

    def __init__(self, outcome: Outcome, label: str):
        self.outcome = outcome
        self.label = label
        self.count = 0

    def require(self, ok, message: str) -> bool:
        if not ok:
            self.outcome.problems.append(f"{self.label}: {message}")
            self.count += 1
        return bool(ok)

    def close(self, a, b, message: str, rel: float = REL_TOL, abs_tol: float = 0.0) -> bool:
        a, b = float(a), float(b)
        same = (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=rel,
                                                                 abs_tol=abs_tol)
        return self.require(same, f"{message}: {a!r} != {b!r}")


# -- files ---------------------------------------------------------------------


def read_table(path: Path) -> tuple[list[str], dict[str, list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: list[list[str]] = [[] for _ in header]
        for row in reader:
            for col, cell in zip(cols, row):
                col.append(cell)
    return header, dict(zip(header, cols))


def floats(cells: list[str]) -> np.ndarray:
    return np.array([float(c) if c else math.nan for c in cells], dtype=np.float64)


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def timing_free_bytes(path: Path) -> bytes:
    """File contents with wall-clock fields (``chunk_seconds``) removed."""
    data = path.read_bytes()
    if path.suffix == ".json":
        doc = json.loads(data)
        if isinstance(doc, dict) and "chunk_seconds" in doc:
            doc.pop("chunk_seconds")
            data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    return data


def file_digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(timing_free_bytes(p)).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def combined_digest(digests: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name} {digests[name]}\n".encode())
    return h.hexdigest()


# -- independent oracles -------------------------------------------------------


def lhs_is_stratified(x: np.ndarray, lo: float, hi: float) -> bool:
    """Exactly one value in each of the n equal-width strata of [lo, hi]."""
    n = len(x)
    strata = np.floor((x - lo) / (hi - lo) * n).astype(np.int64)
    return bool(np.array_equal(np.sort(strata), np.arange(n)))


_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def row_normal(seed: int, row: int) -> float:
    """First standard normal of the per-row stream ``(seed, row)``."""
    key = np.array([seed & _MASK64, _splitmix64(row & _MASK64)], dtype=np.uint64)
    return float(np.random.Generator(np.random.Philox(key=key)).standard_normal())


def navsim_coefficients() -> tuple[float, float]:
    """(A, B) pinned by the two documented total-fuel anchors."""
    rows, rhs = [], []
    for v, h, fuel in ((525.0, 10000.0, 1800.0), (425.0, 27500.0, 1000.0)):
        sigma = (1.0 - h / 145442.0) ** 4.2559
        u = v / 100.0
        hours = (500.0 / v * 3600.0 + 600.0) / 3600.0
        rows.append([sigma * u**3, 1.0 / (sigma * u)])
        rhs.append(fuel / hours)
    a, b = np.linalg.solve(np.array(rows), np.array(rhs))
    return float(a), float(b)


def check_navsim(p: _Problems, index, speed, altitude, tof, fuel, seed: int) -> None:
    """Outputs follow the fuel law times a lognormal factor from the row stream."""
    a, b = navsim_coefficients()
    p.require(np.allclose(tof, 500.0 / speed * 3600.0 + 600.0, rtol=REL_TOL, atol=0),
              "time_of_flight does not follow the route-plus-hold law")
    sigma = (1.0 - altitude / 145442.0) ** 4.2559
    u = speed / 100.0
    clean = (a * sigma * u**3 + b / (sigma * u)) * (500.0 / speed * 3600.0 + 600.0) / 3600.0
    z = np.log(fuel / clean) / wl.NOISE
    if not p.require(np.all(np.isfinite(z)), "fuel is not a positive multiple of the fuel law"):
        return
    rows = np.unique(np.linspace(0, len(index) - 1, min(NOISE_SAMPLE, len(index))).astype(int))
    ref = np.array([row_normal(seed, int(index[r])) for r in rows])
    worst = float(np.max(np.abs(z[rows] - ref)))
    p.require(worst < 1e-6, f"fuel noise differs from the per-row stream by {worst:.3g} sd")


def dominated_by(points: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Brute force: is each row dominated by one of ``candidates`` (minimise)?"""
    out = np.zeros(len(points), dtype=bool)
    for c in candidates:
        out |= np.all(c <= points, axis=1) & np.any(c < points, axis=1)
    return out


def front_is_exact(points: np.ndarray, front: list[int]) -> bool:
    """``front`` is exactly the non-dominated rows of ``points``.

    No row dominates a front row, and every other row is dominated by a front
    row; dominance is transitive, so any dominated row is dominated by one.
    """
    on = np.zeros(len(points), dtype=bool)
    on[front] = True
    for p in points[on]:
        if np.any(np.all(points <= p, axis=1) & np.any(points < p, axis=1)):
            return False
    return bool(on.any() and np.all(dominated_by(points, points[on]) | on))


def best_index(means: list[float], higher: bool) -> int:
    """The search's selection rule: first config, replaced only by a strictly better mean."""
    best = 0
    for i, m in enumerate(means):
        if (higher and m > means[best]) or (not higher and m < means[best]):
            best = i
    return best


# -- per-workload checks ---------------------------------------------------------


def check_design(p: _Problems, path: Path, n: int) -> dict[str, list[str]] | None:
    header, cols = read_table(path)
    if not p.require(header == ["speed", "altitude"], f"design header {header}"):
        return None
    p.require(len(cols["speed"]) == n, f"design has {len(cols['speed'])} rows, expected {n}")
    p.require(lhs_is_stratified(floats(cols["speed"]), *SPEED_KT), "speed is not LHS-stratified")
    p.require(lhs_is_stratified(floats(cols["altitude"]), *ALTITUDE_FT),
              "altitude is not LHS-stratified")
    return cols


def check_results(p: _Problems, out: Path, design: dict[str, list[str]],
                  seed: int) -> dict[str, list[str]]:
    """Checks results.csv and joined.csv; returns the results' columns."""
    header, res = read_table(out / "results.csv")
    if not p.require(header == ["_index", "_status", "time_of_flight", "fuel_consumed"],
                     f"results header {header}"):
        return {"_status": []}
    rows = len(res["_index"])
    index = np.array([int(i) for i in res["_index"]])
    p.require(np.array_equal(index, np.arange(rows)), "results are not rows 0..n-1 in order")
    ok = np.array([s == "ok" for s in res["_status"]])
    tof, fuel = floats(res["time_of_flight"]), floats(res["fuel_consumed"])
    p.require(np.all(np.isfinite(tof[ok])) and np.all(np.isfinite(fuel[ok])),
              "an ok row has a non-finite output")
    speed = floats(design["speed"])[index]
    altitude = floats(design["altitude"])[index]
    check_navsim(p, index[ok], speed[ok], altitude[ok], tof[ok], fuel[ok], seed)
    jheader, joined = read_table(out / "joined.csv")
    expected = {"_index": res["_index"], "_status": res["_status"],
                "speed": [design["speed"][i] for i in index],
                "altitude": [design["altitude"][i] for i in index],
                "time_of_flight": res["time_of_flight"], "fuel_consumed": res["fuel_consumed"]}
    p.require(jheader == list(expected) and joined == expected,
              "joined.csv is not the design joined with the results")
    return res


def ok_rows(res: dict[str, list[str]]) -> int:
    return sum(1 for s in res["_status"] if s == "ok")


def check_casestudy(out: Path, seed: int, codes: list[int]) -> Outcome:
    o = Outcome(attempted=wl.CASESTUDY_N)
    p = _Problems(o, "casestudy")
    if not p.require(codes == [0], f"exit codes {codes}"):
        o.failed = o.attempted
        return o
    n = wl.CASESTUDY_N
    design = check_design(p, out / "design.csv", n)
    if design is None:
        o.failed = n
        return o
    res = check_results(p, out, design, seed)
    o.failed = n - ok_rows(res)
    rep = load_json(out / "execution_report.json")
    p.require(
        (rep["chunks_executed"], rep["rows_executed"], rep["stop_reason"], rep["stop_chunk"],
         len(rep["chunk_seconds"])) == (n // wl.CASESTUDY_CHUNK, n, "design_exhausted", None,
                                        n // wl.CASESTUDY_CHUNK),
        f"execution report {rep}")
    case = load_json(out / "casestudy_report.json")
    p.require((case["n"], case["seed"], case["rows_executed"]) == (n, seed, n),
              "casestudy report sizes")
    a, b = navsim_coefficients()
    p.close(case["model"]["A"], a, "calibrated A", rel=ORACLE_REL_TOL)
    p.close(case["model"]["B"], b, "calibrated B", rel=ORACLE_REL_TOL)
    tof, fuel = floats(res["time_of_flight"]), floats(res["fuel_consumed"])
    r = float(np.corrcoef(tof, fuel)[0, 1])
    slope = r * float(np.std(fuel, ddof=1) / np.std(tof, ddof=1))
    fit = case["linear_fit_time_vs_fuel"]
    p.close(fit["pearson_r"], r, "pearson r")
    p.close(fit["slope"], slope, "slope")
    p.close(fit["intercept"], float(np.mean(fuel) - slope * np.mean(tof)), "intercept")
    scatter = (out / "scatter_time_fuel.svg").read_text(encoding="utf-8")
    heat = (out / "heatmap_fuel.svg").read_text(encoding="utf-8")
    p.require(scatter.count("<circle") == n, "scatter does not plot every row")
    p.require(heat.count("<rect") >= 24 * 24, "heatmap lacks its 24 x 24 cells")
    p.require(scatter.endswith("</svg>\n") and heat.endswith("</svg>\n"), "truncated SVG")
    return o


def expected_stop(fuel: np.ndarray, ok: np.ndarray, chunks_run: int) -> int | None:
    """First chunk after which the cumulative mean of ok rows moved by less than epsilon."""
    for c in range(2, chunks_run + 1):
        now = fuel[: c * wl.RUN_CHUNK][ok[: c * wl.RUN_CHUNK]]
        prev = fuel[: (c - 1) * wl.RUN_CHUNK][ok[: (c - 1) * wl.RUN_CHUNK]]
        if now.size == 0 or prev.size == 0:
            continue
        m_now, m_prev = float(np.mean(now)), float(np.mean(prev))
        if abs(m_now - m_prev) / max(abs(m_prev), 1e-9) < wl.RUN_EPSILON:
            return c
    return None


def check_run(out: Path, seed: int, codes: list[int]) -> Outcome:
    o = Outcome(attempted=wl.RUN_N)
    p = _Problems(o, "run")
    if not p.require(codes == [0], f"exit codes {codes}"):
        o.failed = o.attempted
    else:
        design = check_design(p, out / "design.csv", wl.RUN_N)
        res = check_results(p, out, design, seed) if design else {"_status": []}
        rep = load_json(out / "report.json")
        executed = rep["rows_executed"]
        o.failed = executed - ok_rows(res)
        ok = np.array([s == "ok" for s in res["_status"]], dtype=bool)
        stop = expected_stop(floats(res.get("fuel_consumed", [])), ok, rep["chunks_executed"])
        n_chunks = wl.RUN_N // wl.RUN_CHUNK
        want = ((stop, "criterion_met", stop) if stop else
                (n_chunks, "design_exhausted", None))
        p.require((rep["chunks_executed"], rep["stop_reason"], rep["stop_chunk"]) == want,
                  f"stop: report {rep['chunks_executed'], rep['stop_reason'], rep['stop_chunk']}"
                  f", oracle {want}")
        p.require(executed == min(rep["chunks_executed"] * wl.RUN_CHUNK, wl.RUN_N),
                  "rows executed do not match the chunks executed")
    return o


def check_probe(probe: dict, probe_dir: Path) -> Outcome:
    """The failure probe, whose worker exits 3 on the second of two chunks."""
    o = Outcome(attempted=wl.PROBE_N)
    q = _Problems(o, "probe")
    if probe["code"] == 2 and PROBE_ABORT in probe["error"]:
        o.failed = wl.PROBE_N
        o.known.append(f"probe: campaign aborted, {wl.PROBE_N} of {wl.PROBE_N} rows lost")
    elif q.require(probe["code"] == 0, f"exit {probe['code']}: {probe['error'][-300:]}"):
        _, res = read_table(probe_dir / "results.csv")
        bad = [int(i) for i, s in zip(res["_index"], res["_status"]) if s != "ok"]
        o.failed = wl.PROBE_N - len(res["_index"]) + len(bad)
        q.require(bad == list(range(wl.RUN_CHUNK, wl.PROBE_N)),
                  "the failed rows are not exactly the second chunk")
        o.known.append(f"probe: {o.failed} of {wl.PROBE_N} rows failed")
    else:
        o.failed = wl.PROBE_N
    return o


def _check_test(p: _Problems, doc: dict, groups: dict[str, np.ndarray], alpha=0.05) -> None:
    from scipy import stats

    path = []
    parametric = True
    for name, x in groups.items():
        if len(x) <= 5000:
            check, (stat, pv) = f"shapiro_wilk[{name}]", stats.shapiro(x)
        else:
            check, (stat, pv) = f"dagostino_k2[{name}]", stats.normaltest(x)
        path.append((check, stat, pv, "pass" if pv >= alpha else "fail"))
        parametric &= pv >= alpha
    xs = list(groups.values())
    post_hoc = None
    if parametric:
        # the parametric branch is not reached by these columns; check its route only
        bf = stats.levene(*xs, center="median")
        homogeneous = bf.pvalue >= alpha
        path.append(("brown_forsythe", bf.statistic, bf.pvalue,
                     "homogeneous" if homogeneous else "heterogeneous"))
        test_name, stat, pv = ("anova_oneway" if homogeneous else "welch_anova"), None, None
    else:
        stat, pv = stats.kruskal(*xs)
        test_name = "kruskal_wallis"
        if pv < alpha:
            post_hoc = _dunn(xs, list(groups), alpha)
    decision = doc["decision"]
    if pv is not None:
        decision = "reject" if pv < alpha else "fail_to_reject"
    path.append((test_name, stat, pv, decision))
    p.require(doc["test_name"] == test_name, f"test {doc['test_name']} != {test_name}")
    p.require(doc["decision"] == decision, f"decision {doc['decision']} != {decision}")
    got = [(s["check"], s["outcome"]) for s in doc["decision_path"]]
    p.require(got == [(c, out) for c, _, _, out in path], f"decision path {got}")
    for step, (check, stat, pv, _) in zip(doc["decision_path"], path):
        if stat is not None and step["statistic"] is not None:
            p.close(step["statistic"], stat, f"{check} statistic", rel=ORACLE_REL_TOL)
        if pv is not None and step["p_value"] is not None:
            p.close(step["p_value"], pv, f"{check} p-value", rel=ORACLE_REL_TOL,
                    abs_tol=P_ABS_TOL)
    if post_hoc is not None:
        got = doc["post_hoc"] or []
        p.require([(e["pair"], e["reject"]) for e in got]
                  == [(list(pair), rej) for pair, _, rej in post_hoc], "Dunn post-hoc decisions")
        for e, (_, z, _) in zip(got, post_hoc):
            p.close(e["statistic"], z, f"Dunn z {e['pair']}", rel=ORACLE_REL_TOL)


def _dunn(groups, names, alpha):
    """Dunn's rank z tests, Bonferroni-adjusted, with the tie correction."""
    from scipy import stats

    pooled = np.concatenate(groups)
    n = len(pooled)
    ranks = stats.rankdata(pooled)
    _, counts = np.unique(pooled, return_counts=True)
    ties = float(np.sum(counts.astype(float) ** 3 - counts))
    var = n * (n + 1) / 12.0 - ties / (12.0 * (n - 1))
    bounds = np.cumsum([0] + [len(g) for g in groups])
    means = [ranks[bounds[i]:bounds[i + 1]].mean() for i in range(len(groups))]
    m = len(groups) * (len(groups) - 1) // 2
    out = []
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            z = (means[i] - means[j]) / math.sqrt(var * (1 / len(groups[i]) + 1 / len(groups[j])))
            padj = min(1.0, 2.0 * stats.norm.sf(abs(z)) * m)
            out.append(((names[i], names[j]), z, padj < alpha))
    return out


def _check_fit(p: _Problems, doc: dict, x: np.ndarray) -> None:
    """All five families, beta on the padded min-max rescaling, ranked by K-S D."""
    from scipy import stats

    xs = np.sort(x)
    n = len(xs)
    mean = float(x.mean())
    span = xs[-1] - xs[0]
    pad = span / (2.0 * n)
    xb = (xs - (xs[0] - pad)) / (span + 2.0 * pad)
    mb, vb = float(xb.mean()), float(xb.var(ddof=1))
    common = mb * (1.0 - mb) / vb - 1.0
    cdfs = {
        "normal": stats.norm.cdf(xs, mean, math.sqrt(float(x.var(ddof=0)))),
        "uniform": np.clip((xs - xs[0]) / span, 0.0, 1.0),
        "exponential": stats.expon.cdf(xs, scale=mean),
        "chi_squared": stats.chi2.cdf(xs, mean),
        "beta": stats.beta.cdf(np.clip(xb, 0.0, 1.0), mb * common, (1.0 - mb) * common),
    }
    i = np.arange(1, n + 1)
    d = {k: float(max(np.max(i / n - c), np.max(c - (i - 1) / n))) for k, c in cdfs.items()}
    ranking = sorted(d, key=d.get)
    p.require(doc["ranking"] == ranking, f"fit ranking {doc['ranking']} != {ranking}")
    p.require(doc["skipped"] == [] and doc["rescaled"] is True, "beta was not fitted")
    p.require(sorted(f["family"] for f in doc["fits"]) == sorted(cdfs),
              "not every family was fitted")
    for fam in doc["fits"]:
        name = fam["family"]
        p.close(fam["ks_d"], d[name], f"K-S D of {name}", rel=ORACLE_REL_TOL)
        p.close(fam["p_indicative"], stats.kstwobign.sf(math.sqrt(n) * d[name]),
                f"K-S p of {name}", rel=ORACLE_REL_TOL, abs_tol=P_ABS_TOL)


def check_analyze(inputs: Path, out: Path, codes: list[int]) -> Outcome:
    o = Outcome(attempted=5)
    _, cols = read_table(inputs / "joined.csv")
    data = {k: floats(cols[k]) for k in ("speed", "altitude", "time_of_flight", "fuel_consumed")}
    fuel = data["fuel_consumed"]
    subs = ["test", "fit", "pareto", "outliers", "eda"]
    for sub, code in zip(subs, codes):
        p = _Problems(o, f"analyze {sub}")
        if not p.require(code == 0, f"exit code {code}"):
            o.failed += 1
            continue
        doc = load_json(out / f"{sub}.json")
        if sub == "test":
            _check_test(p, doc, {k: data[k] for k in ("speed", "time_of_flight",
                                                       "fuel_consumed")})
        elif sub == "fit":
            _check_fit(p, doc, fuel)
        elif sub == "pareto":
            points = np.column_stack([fuel, data["time_of_flight"]])
            p.require(doc["front"] == sorted(set(doc["front"]))
                      and front_is_exact(points, doc["front"]),
                      "front differs from the brute-force dominance check")
            p.require(doc["directions"] == ["minimize", "minimize"], "directions")
        elif sub == "outliers":
            q1, q3 = np.quantile(fuel, [0.25, 0.75])
            lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
            flagged = np.nonzero((fuel < lo) | (fuel > hi))[0].tolist()
            p.require(doc["flagged"] == flagged, "flagged rows differ from the IQR rule")
            p.close(doc["thresholds"]["lower"], lo, "IQR lower fence")
            p.close(doc["thresholds"]["upper"], hi, "IQR upper fence")
        else:
            _check_eda(p, doc, out / "svg", data)
        o.failed += p.count > 0
    return o


def _check_eda(p: _Problems, doc: dict, svg_dir: Path, data: dict[str, np.ndarray]) -> None:
    from scipy import stats

    names = list(data)
    p.require([s["name"] for s in doc["numeric"]] == names, "EDA column order")
    for s in doc["numeric"]:
        x = data[s["name"]]
        p.require(s["count"] == len(x), f"count of {s['name']}")
        for key, value in (("mean", x.mean()), ("sd", x.std(ddof=1)), ("min", x.min()),
                           ("max", x.max()), ("median", np.median(x))):
            p.close(s[key], value, f"{key} of {s['name']}")
        p.require(sum(s["histogram"]["counts"]) == len(x), f"histogram of {s['name']}")
    matrix = np.column_stack([data[k] for k in names])
    p.require(np.allclose(doc["pearson"]["matrix"], np.corrcoef(matrix, rowvar=False),
                          rtol=REL_TOL, atol=1e-12), "Pearson matrix")
    p.require(np.allclose(doc["spearman"]["matrix"], stats.spearmanr(matrix).statistic,
                          rtol=ORACLE_REL_TOL, atol=1e-9), "Spearman matrix")
    for f in [*(f"hist_{k}.svg" for k in names), "pearson_heatmap.svg"]:
        p.require((svg_dir / f).is_file()
                  and (svg_dir / f).read_text(encoding="utf-8").endswith("</svg>\n"),
                  f"missing or truncated {f}")


def check_surrogate(inputs: Path, out: Path, codes: list[int], expected: dict) -> Outcome:
    o = Outcome()
    searches = [(f, "regression") for f in wl.FAMILIES] + [("cart_tree", "classification")]
    fits_per_search = wl.SEARCH_K * wl.SEARCH_BUDGET
    for (family, task), code in zip(searches, codes):
        label = family + ("_cls" if task == "classification" else "")
        p = _Problems(o, f"search {label}")
        o.attempted += fits_per_search
        if not p.require(code == 0, f"exit code {code}"):
            o.failed += fits_per_search
            continue
        cv = load_json(out / f"{label}.cv.json")
        load_json(out / f"{label}.model.json")
        higher = task == "classification"
        p.require((cv["k"], len(cv["evaluated"]), cv["higher_is_better"])
                  == (wl.SEARCH_K, wl.SEARCH_BUDGET, higher), "CV report shape")
        scores = [s for e in cv["evaluated"] for s in e["fold_scores"]]
        nonfinite = sum(1 for s in scores if not math.isfinite(s))
        o.failed += nonfinite
        if family == "mlp" and nonfinite:
            o.known.append(f"mlp: {nonfinite} of {len(scores)} fold scores are not finite")
        else:
            p.require(nonfinite == 0, f"{nonfinite} non-finite fold scores")
        for e in cv["evaluated"]:
            f = np.array(e["fold_scores"], dtype=float)
            p.require(len(f) == wl.SEARCH_K, "fold count")
            p.close(e["mean_score"], np.mean(f), "mean of fold scores")
            p.close(e["sd_score"], np.std(f, ddof=1), "sd of fold scores")
            if higher:
                p.require(np.all((f >= 0) & (f <= 1)), "accuracy outside [0, 1]")
            elif family != "mlp":
                p.require(np.all(f > 0), "non-positive MSE")
        means = [e["mean_score"] for e in cv["evaluated"]]
        p.require(cv["best_index"] == best_index(means, higher),
                  f"best_index {cv['best_index']} breaks the selection rule")
        # the search seed is fixed, so the sampled configurations are too
        params = expected.get("params", {}).get(label)
        p.require(params is None or [e["params"] for e in cv["evaluated"]] == params,
                  "sampled configurations changed")
        p.require(cv["best_params"] == cv["evaluated"][cv["best_index"]]["params"],
                  "best_params is not the chosen configuration")
        ref = (expected.get("seed_scores") or {}).get(label)
        if ref is not None:
            p.require(cv["best_index"] == ref["best_index"], "chosen configuration")
            for got, want in zip(means, ref["mean_scores"]):
                p.close(got, want, "mean CV score vs recorded", rel=REL_TOL)
        if p.count:
            o.failed += fits_per_search - nonfinite
    p = _Problems(o, "predict")
    if p.require(codes[-1] == 0, f"exit code {codes[-1]}"):
        _, pred = read_table(out / "predictions.csv")
        _, cols = read_table(inputs / "joined.csv")
        y = floats(pred["prediction"])
        truth = floats(cols["fuel_consumed"])
        p.require(pred["_index"] == cols["_index"] and np.all(np.isfinite(y)),
                  "predictions are not one finite value per input row")
        p.require(np.mean((y - truth) ** 2) < np.var(truth),
                  "the forest predicts worse than the mean")
    return o


def check(name: str, inputs: Path, out: Path, seed: int, codes: list[int],
          expected: dict) -> Outcome:
    """Checks one run's outputs under ``out`` (the probe is checked separately)."""
    if name == "casestudy-64k":
        return check_casestudy(out, seed, codes)
    if name == "run-subprocess":
        return check_run(out, seed, codes)
    if name == "analyze-16k":
        return check_analyze(inputs, out, codes)
    return check_surrogate(inputs, out, codes, expected)
