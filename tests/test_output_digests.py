"""Byte-identity guard: sha256 digests of small campaigns' and models' artefacts.

The digests pin every CSV, SVG and report the ``casestudy`` and ``run``
commands write, and every saved model, CV report and prediction CSV that
``model train``, ``model search`` and ``model predict`` write on a mixed
table and on a table of numeric class labels, so a change to a writer, a
formatter, the simulator, the preprocessor or a model family that alters any
output byte fails here.  Reports are hashed with their timing field
(``chunk_seconds``) removed, as canonical JSON.  A digest may change
only together with a deliberate, documented change of the output format.
"""

import hashlib
import json

import numpy as np
import pytest

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


# A 300-row table: two numeric features (x2 with NaN holes), one categorical
# feature whose levels hold a comma, a quote and blank cells, a numeric
# regression target y and a text classification target label.
MIXED_LEVELS = ("plain", "a,b", 'say "hi"', "", "z")
MODEL_TASKS = (
    ("linear_ridge", "regression", "y"),
    ("knn", "regression", "y"),
    ("knn", "classification", "label"),
    ("cart_tree", "regression", "y"),
    ("cart_tree", "classification", "label"),
    ("random_forest", "regression", "y"),
    ("random_forest", "classification", "label"),
    ("mlp", "regression", "y"),
    ("mlp", "classification", "label"),
)


def write_mixed_table(path, n, seed, unseen_level=None):
    """Every seventh row of the table takes ``unseen_level`` when one is given."""
    g = np.random.default_rng(seed)
    x1 = g.normal(0.0, 2.0, n)
    x2 = g.uniform(-1.0, 1.0, n)
    x2[g.random(n) < 0.1] = np.nan
    level = g.integers(0, len(MIXED_LEVELS), n)
    y = 1.5 * x1 - np.nan_to_num(x2) + level + g.normal(0.0, 0.1, n)
    lines = ["x1,x2,c,y,label"]
    for i in range(n):
        c = MIXED_LEVELS[level[i]] if unseen_level is None or i % 7 else unseen_level
        if "," in c or '"' in c:
            c = '"' + c.replace('"', '""') + '"'
        x2_cell = "" if np.isnan(x2[i]) else repr(float(x2[i]))
        label = "high" if y[i] > 2.0 else "low"
        lines.append(f"{float(x1[i])!r},{x2_cell},{c},{float(y[i])!r},{label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def model_outputs(out, tasks, fit_csv, new_csv) -> dict[str, str]:
    """Train, search and predict each ``(family, task, target)``; digest of each file."""
    written = []
    for family, task, target in tasks:
        common = ["--data", str(fit_csv), "--target", target, "--task", task,
                  "--family", family, "--seed", "2"]
        stem = f"{family}-{task}"
        assert dispatch(["model", "train", *common, "--out", str(out / f"train-{stem}.json")]) == 0
        assert dispatch([
            "model", "search", *common, "--k", "3", "--budget", "2",
            "--out", str(out / f"search-{stem}.json"),
            "--cv-report", str(out / f"search-{stem}.cv.json"),
        ]) == 0
        written += [f"train-{stem}.json", f"search-{stem}.json", f"search-{stem}.cv.json"]
        for kind in ("train", "search"):
            assert dispatch([
                "model", "predict", "--model", str(out / f"{kind}-{stem}.json"),
                "--data", str(new_csv), "--out", str(out / f"{kind}-{stem}.pred.csv"),
            ]) == 0
            written.append(f"{kind}-{stem}.pred.csv")
    return {name: file_digest(out / name) for name in written}


MODEL_DIGESTS = {
    "search-cart_tree-classification.cv.json": "34415eb01aa025fbb860d27d375fe64aec31acccca41b739fb2f19b39c40b8e6",
    "search-cart_tree-classification.json": "f1d01c2bd18403a2988e021de6d9fba7360eaa1980c8a8f7a71b72b8ddbb9483",
    "search-cart_tree-classification.pred.csv": "47390ca8c57c9f37cf397c9a4120851dd7cefa6637ac51a6077f33be46cf3f4e",
    "search-cart_tree-regression.cv.json": "5eeeca7507652c298b3c5046112e3998d97343f3f06403ca44fba32622edb719",
    "search-cart_tree-regression.json": "7068fc68fcbd2613301201558164670bf178db3e765589de586ae60cf1d982b1",
    "search-cart_tree-regression.pred.csv": "2ea1edc718af723700fc262e73c594147f67a7184b6828850f88d2fe94e47348",
    "search-knn-classification.cv.json": "4600de009c302c9a3eb96268cd9e95a75fca837d55b2c382763f2df6c321d0ce",
    "search-knn-classification.json": "ef865d58729f97ed992d419b767fe94fea78128929e9842640730c5c1c68c9df",
    "search-knn-classification.pred.csv": "75c458c89b859895e07a60d5e7d70114be24b9be512f477e51a208658f0f3dc1",
    "search-knn-regression.cv.json": "736709f726fc7b0360617c62bc1dfb53c42ee63c4d61b1ea49bb7d19a1f1c9ad",
    "search-knn-regression.json": "0572e8bdceff87fa9dd2a952b8e10881bb6a0536d2e131c0e3d6d83653d608c8",
    "search-knn-regression.pred.csv": "3bc1577f53089c63889283a5b1cf5f3406876f4daca8531b70b6b06fef6e4a5c",
    "search-linear_ridge-regression.cv.json": "35cbaab29247e5f1642b49d40f6da421c317c20aebe3a57509a99d4e7c154353",
    "search-linear_ridge-regression.json": "aaae4c8dc3b6d5100b7c6edb1b010a4999f0d775c6b8f6d5d61613186e8856bc",
    "search-linear_ridge-regression.pred.csv": "a60ae7b3eacb450ba8426657da199b4fc4b99b1915f0f0d8f93ce9543d343bd9",
    "search-mlp-classification.cv.json": "300ea7fc9b192728e1002de1209ae7686e0d5a6c7600f5db209802dba41523e5",
    "search-mlp-classification.json": "37b9ff7f19dee4177d26e620c3ac5ce2074953efaaf90a5938a11ff11ae8101a",
    "search-mlp-classification.pred.csv": "47390ca8c57c9f37cf397c9a4120851dd7cefa6637ac51a6077f33be46cf3f4e",
    "search-mlp-regression.cv.json": "622fc4f4856d87444f4f29c1ed0d461a353f46b440aa22494c7fa2c89606abd5",
    "search-mlp-regression.json": "a049199fd57459998001f67065586d9223818640160f9d4ad96f6b86b3f88e26",
    "search-mlp-regression.pred.csv": "edc1550813f10ed693b49a3971f4174884dc966478eb17ede45c95acc5009647",
    "search-random_forest-classification.cv.json": "893dbe46e255e072faab18e0c9d9786f60369fed717b7b8cb3578fc7d91bbed4",
    "search-random_forest-classification.json": "faa04c80b9d963732add988b4468a417664658c22d76f7b42b1de92e6a06b9f5",
    "search-random_forest-classification.pred.csv": "47390ca8c57c9f37cf397c9a4120851dd7cefa6637ac51a6077f33be46cf3f4e",
    "search-random_forest-regression.cv.json": "ac133ac2d3a83104404ae582e85e074d4b5b845fd41009564614700e531cb09b",
    "search-random_forest-regression.json": "d1de796878b3c6775a87b4d5bdcdfac580d8bd1ccfc9b3134e1c3af8df3b3e78",
    "search-random_forest-regression.pred.csv": "1d529714307b54a25041139d238b15456aa7ae6d8d70d6a80bf391f256577ea1",
    "train-cart_tree-classification.json": "1f528c08b0d2525ed47c6cf74a23d8c85f95fdb86aed5c944e9837b8374ae59f",
    "train-cart_tree-classification.pred.csv": "47390ca8c57c9f37cf397c9a4120851dd7cefa6637ac51a6077f33be46cf3f4e",
    "train-cart_tree-regression.json": "9debcc6d45ab1f5a47a4fb255b7c050a55625422be98011e47158959e5464864",
    "train-cart_tree-regression.pred.csv": "8d701900fa7a41b9cd52517d3f958fca4530489d827ddd24a41dbd858ceb693c",
    "train-knn-classification.json": "ab50adfa84cc50335795f520311b733b62c79eeed60fc9a9e8106850da5604f9",
    "train-knn-classification.pred.csv": "75c458c89b859895e07a60d5e7d70114be24b9be512f477e51a208658f0f3dc1",
    "train-knn-regression.json": "2fbc006c746dcdae8e0a0864d41e743e4220f5d532a2aa9213a845d3f4cfcbf4",
    "train-knn-regression.pred.csv": "3bc1577f53089c63889283a5b1cf5f3406876f4daca8531b70b6b06fef6e4a5c",
    "train-linear_ridge-regression.json": "417c365a4f911bdb7ec45b456df51be89c1cf790df8f04292bf1d5b807be4697",
    "train-linear_ridge-regression.pred.csv": "de314fd95e107d6d63ff792634bd14287a5e93df47429c2816097524d963f1c9",
    "train-mlp-classification.json": "7ed87ed986f82329bd0e77e550ef0fcd6366618764cdba0d63b5603534bbc381",
    "train-mlp-classification.pred.csv": "c4bedb4a148801470fcf0e7d960ce7d8d18d32be49779d9faeac7593ffa397f9",
    "train-mlp-regression.json": "6d22955fb29e8622472c06189a2356b222d6f30320170ce37e298d10920b79ec",
    "train-mlp-regression.pred.csv": "c9314864d626234c3f57de91e43045e7d53a11becde6644d4e808bb500a247c6",
    "train-random_forest-classification.json": "17cfc214edf02eb643199fa81b3d21449f6e7e9d1973dfd83211a71f7d702fdc",
    "train-random_forest-classification.pred.csv": "47390ca8c57c9f37cf397c9a4120851dd7cefa6637ac51a6077f33be46cf3f4e",
    "train-random_forest-regression.json": "66eadbb9ef23c70b72cabaabcd0af1e4be39a360a21c5303f6077d1896e4743b",
    "train-random_forest-regression.pred.csv": "b45bcdeeacc812e27ec7def6346322582d68676db1e3b9da32d4f1c138b1c3a4",
}


def test_model_outputs_on_a_mixed_table_are_byte_identical(tmp_path):
    write_mixed_table(tmp_path / "fit.csv", 300, 3)
    write_mixed_table(tmp_path / "new.csv", 50, 4, unseen_level="unseen")
    got = model_outputs(tmp_path, MODEL_TASKS, tmp_path / "fit.csv", tmp_path / "new.csv")
    assert got == MODEL_DIGESTS


# A table of two numeric features and a numeric class column whose labels are
# -3, 4 and 9, not the codes 0..C-1 that a text label column becomes, so the
# digests pin the ``classes`` field a saved model keeps for such labels.
CODE_LABELS = (-3, 4, 9)
CODE_TASKS = tuple((family, "classification", "code")
                   for family in ("knn", "cart_tree", "random_forest", "mlp"))


def write_code_label_table(path, n, seed):
    g = np.random.default_rng(seed)
    x1 = g.normal(0.0, 1.0, n)
    x2 = g.uniform(-1.0, 1.0, n)
    code = np.asarray(CODE_LABELS)[np.digitize(x1 + x2 + g.normal(0.0, 0.3, n), [-0.5, 0.5])]
    lines = ["x1,x2,code"]
    lines += [f"{float(a)!r},{float(b)!r},{int(c)}" for a, b, c in zip(x1, x2, code)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


CODE_DIGESTS = {
    "search-cart_tree-classification.cv.json": "21940d74a9d91a87d4c79a8160b3e15ce0c93328a991cfd1d00b353519b1d171",
    "search-cart_tree-classification.json": "e05e17cdd218df0f77a1015a0983f9c0e28b72f8a12f23fe2233e8029fd547cb",
    "search-cart_tree-classification.pred.csv": "7852ffec67078936f3445e67394fd57a96e161b291615265d5cda7fda5ea5ecf",
    "search-knn-classification.cv.json": "cd13693589dffd5be733789412c51353123dc0322ce12ec3a788395ad4c04726",
    "search-knn-classification.json": "04492e80c7ab12422fa4c16076f854fdb629ae0412ba885328378cadf4ab0e5d",
    "search-knn-classification.pred.csv": "c9ad6efe27af78f03e47e2010bb858445558b0218bf09f92f4aaaea58141f423",
    "search-mlp-classification.cv.json": "b28467b82e464169f9e6ea8ef23eb744f584fb275b7a65f788a88537319e2985",
    "search-mlp-classification.json": "b9132ca953bd12fb3b91b8bd87947916b5932a0d720cf75985544dd1ff689796",
    "search-mlp-classification.pred.csv": "1ed448a693f078872f90acee794f366223f0c85c913e194712b816a4d35a3475",
    "search-random_forest-classification.cv.json": "55bccbf1d37d1e8829dc2d6d1195daf63035a042a9805bdffb77baa68621df0c",
    "search-random_forest-classification.json": "986f595eccacb73e658fa3e875611b430564a6350399b782b02f2c06f8644a93",
    "search-random_forest-classification.pred.csv": "c2dc5bc7dfda39ad616e1f732a4552c58ebb126e5fa65f735b66f32e8cf8eced",
    "train-cart_tree-classification.json": "b85a90f669bcd341bb20443125de995d1f1ad5e7c74fab52aff071e9669deb4f",
    "train-cart_tree-classification.pred.csv": "3cc2fe34661bafd61ba4b2a60591e54ff828b69b57d72a5afb3be4dfa1055c96",
    "train-knn-classification.json": "3e63fe084a0ffb881ff4b0fe278e165848f495eaca28344c2a4b975a5068f7d6",
    "train-knn-classification.pred.csv": "c9ad6efe27af78f03e47e2010bb858445558b0218bf09f92f4aaaea58141f423",
    "train-mlp-classification.json": "463c02a3faf5cb4850b7e7e9ccfbaba154df67213484aba264ce9bca5c2440f4",
    "train-mlp-classification.pred.csv": "d9f981e391b8d73cd6d7ac08400382850b37d042d48d1cfb2f2ab83b1713be3f",
    "train-random_forest-classification.json": "d41085628f5e5d40b6716d81602160f56c5b58a100bf6ac8afa2370705af2efe",
    "train-random_forest-classification.pred.csv": "34240c4e695dcbe041bb8cdff71cfeb151bd88ecbf7614e3487591dd375375dd",
}


def test_model_outputs_on_numeric_class_labels_are_byte_identical(tmp_path):
    write_code_label_table(tmp_path / "fit.csv", 200, 5)
    write_code_label_table(tmp_path / "new.csv", 50, 6)
    got = model_outputs(tmp_path, CODE_TASKS, tmp_path / "fit.csv", tmp_path / "new.csv")
    assert got == CODE_DIGESTS


# A 200-row table whose target is on a 1e3 scale, like the fuel column.  Plain
# SGD on the raw target overflows: the trained MLP and the first two sampled
# configurations are NaN in every fold, and the third has finite folds beside
# a NaN one in the same stack.  The digests pin those NaN models and scores.
def write_diverging_table(path, n, seed):
    g = np.random.default_rng(seed)
    x1 = g.normal(0.0, 1.0, n)
    x2 = g.uniform(-1.0, 1.0, n)
    y = 1e3 * x1 + 200.0 * x2 + g.normal(0.0, 10.0, n)
    lines = ["x1,x2,y"]
    lines += [f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x1, x2, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


DIVERGING_MLP_DIGESTS = {
    "train.json": "31e01af6eaaca077f502c773b971740ed8b05c33b56976c8234432d2e2fd652d",
    "search.json": "94cbd3cca43401ef9f3fecee648dec15ec84676172963b1040cff70100db8b35",
    "search.cv.json": "ff15d5e69e392c8e56f3e0c65b9dbb1e786bb6f24c6f8827102c74a638acec6d",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_mlp_outputs_are_byte_identical(tmp_path):
    write_diverging_table(tmp_path / "fit.csv", 200, 3)
    common = ["--data", str(tmp_path / "fit.csv"), "--target", "y", "--task", "regression",
              "--family", "mlp", "--seed", "5"]
    assert dispatch(["model", "train", *common, "--out", str(tmp_path / "train.json")]) == 0
    assert dispatch([
        "model", "search", *common, "--k", "3", "--budget", "3",
        "--out", str(tmp_path / "search.json"), "--cv-report", str(tmp_path / "search.cv.json"),
    ]) == 0
    cv = json.loads((tmp_path / "search.cv.json").read_text(encoding="utf-8"))
    means = [entry["mean_score"] for entry in cv["evaluated"]]
    assert np.isnan(means).any()
    assert any(np.isfinite(entry["fold_scores"]).any() for entry in cv["evaluated"])
    got = {name: file_digest(tmp_path / name)
           for name in ("train.json", "search.json", "search.cv.json")}
    assert got == DIVERGING_MLP_DIGESTS
