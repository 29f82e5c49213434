"""Byte-identity guard: sha256 digests of two small campaigns' artefacts.

The digests pin every CSV, SVG and report the ``casestudy`` and ``run``
commands write, so a change to a writer, a formatter or the simulator that
alters any output byte fails here.  Reports are hashed with their timing
field (``chunk_seconds``) removed, as canonical JSON.  A digest may change
only together with a deliberate, documented change of the output format.
"""

import hashlib
import json

from simfarm import simkit
from simfarm.cli import dispatch
from simfarm.doe import dump_factors


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_digest(path) -> str:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("chunk_seconds")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


CASESTUDY_DIGESTS = {
    "design.csv": "9cfb410430d3ef17a8af0e468f8c4ed5a4bf8a5a04c549dedb352bb686b2b6db",
    "results.csv": "cb2269d79b6be23f2ee6a16ebfcb84aad2f176e6eab3f9eba5f73f7a5481c470",
    "joined.csv": "c0af73b3fd0197b4da23a784f62339ad7ee9f5739f7a885dd2186b1fd5d27775",
    "casestudy_report.json": "1094ffe59ea0dd3b61afc9a9fe55a1100af2495eb629491e54c4ec10d5df848e",
    "scatter_time_fuel.svg": "8dad2f37dfed724ce8807a18cfde9e3e1c192b4ffdea52ceb8c5c18602900bd1",
    "heatmap_fuel.svg": "e59e2db54af23f6586608a2b063334c77b6f04f29e15b052fa225eee6d33b8f7",
}
CASESTUDY_REPORT_DIGEST = "26e2d1c5f54504d809c275e78109e8a80927a2f8835244a8e26208cc680267f8"

RUN_DIGESTS = {
    "design.csv": "cf9388ec9728e45b135888b620d1ce1fa67570f787d3f618e0c245fcc3bc7fdd",
    "results.csv": "ac36e88b92f6a5e3d87c559e8ff6593b55cc36996340b015d2f3740604490401",
    "joined.csv": "43862a1cd36a811336524cbc5d61ba83e202133242c52d2d77a4c2ca266e62a4",
}
RUN_REPORT_DIGEST = "8bb730d35e8912f383828f883f0cadceb54e56e68e6c01e5256fb5b50a049a1b"


def test_casestudy_outputs_are_byte_identical(tmp_path):
    out = tmp_path / "cs"
    assert dispatch([
        "casestudy", "navigation", "--out", str(out), "--n", "4500",
        "--chunk-size", "100", "--noise", "0.05", "--seed", "7",
    ]) == 0
    assert {name: file_digest(out / name) for name in CASESTUDY_DIGESTS} == CASESTUDY_DIGESTS
    assert report_digest(out / "execution_report.json") == CASESTUDY_REPORT_DIGEST


def test_run_stopped_mid_design_outputs_are_byte_identical(tmp_path):
    """A navsim run whose criterion stops after 6 000 of 9 000 rows, past a CSV block."""
    (tmp_path / "factors.json").write_text(json.dumps(dump_factors(simkit.navigation_factors())))
    config = {
        "factors": "factors.json", "n": 9000, "seed": 11, "chunk_size": 1500,
        "runner": "navsim", "runner_options": {"seed": 11},
        "criterion": {"metric": "fuel_consumed", "epsilon": 0.001},
        "out_dir": str(tmp_path / "run"),
    }
    (tmp_path / "experiment.json").write_text(json.dumps(config))
    assert dispatch(["run", "--config", str(tmp_path / "experiment.json")]) == 0
    out = tmp_path / "run"
    report = json.loads((out / "report.json").read_text())
    assert (report["rows_executed"], report["stop_reason"]) == (6000, "criterion_met")
    assert {name: file_digest(out / name) for name in RUN_DIGESTS} == RUN_DIGESTS
    assert report_digest(out / "report.json") == RUN_REPORT_DIGEST
