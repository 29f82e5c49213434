"""What each entry point loads, checked in fresh interpreters.

A subprocess runner starts one worker process per chunk, so the worker entry
must not import the command-line, analysis, model or geodesy layers; and the
package must load its submodules only when a name is used.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import simfarm

SRC = os.path.dirname(os.path.dirname(simfarm.__file__))
HEAVY = ("simfarm.cli", "simfarm.analysis", "simfarm.models", "simfarm.geo")

# Run after the code under test: the simfarm modules it loaded, as JSON.
LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('simfarm'))))"
)


def python(*args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def loaded_after(code):
    proc = python("-c", f"{code}\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture()
def chunk_csv(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("_index,speed,altitude\n0,400,20000\n1,500,30000\n")
    return path


class TestWorkerEntry:
    def test_worker_loads_no_heavy_layer(self, tmp_path, chunk_csv):
        out = tmp_path / "out.csv"
        proc = python("-X", "importtime", "-m", "simfarm", "navsim-worker",
                      str(chunk_csv), str(out), "--noise", "0.05")
        assert proc.returncode == 0, proc.stderr
        # -X importtime writes "import time: <self> | <cumulative> | <module>" lines
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        assert "simfarm.simkit" in loaded
        assert not [m for m in loaded if m.startswith(HEAVY)], sorted(loaded)
        assert out.read_text().startswith("_index,_status,time_of_flight,fuel_consumed\n")

    def test_worker_output_equals_cli_subcommand(self, tmp_path, chunk_csv):
        from simfarm.cli import dispatch

        light, full = tmp_path / "light.csv", tmp_path / "full.csv"
        proc = python("-m", "simfarm", "navsim-worker", str(chunk_csv), str(light),
                      "--seed", "3", "--noise", "0.05")
        assert proc.returncode == 0, proc.stderr
        assert dispatch(["navsim-worker", str(chunk_csv), str(full),
                         "--seed", "3", "--noise", "0.05"]) == 0
        assert light.read_bytes() == full.read_bytes()

    def test_missing_input_exits_two_and_usage_error_exits_one(self, tmp_path):
        proc = python("-m", "simfarm", "navsim-worker", str(tmp_path / "no.csv"), "out.csv")
        assert proc.returncode == 2
        assert proc.stderr.startswith("simfarm: error:")
        proc = python("-m", "simfarm", "navsim-worker", "only-one.csv")
        assert proc.returncode == 1
        assert "simfarm navsim-worker: error:" in proc.stderr

    def test_other_commands_go_to_the_full_cli(self):
        proc = python("-m", "simfarm", "geo", "convert", "1", "nm", "m")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1852"


class TestLazyPackage:
    def test_import_loads_no_submodule(self):
        assert loaded_after("import simfarm") == ["simfarm"]

    def test_a_name_loads_only_its_home(self):
        loaded = loaded_after("from simfarm import lhs_design")
        assert "simfarm.doe" in loaded
        assert not [m for m in loaded if m.startswith(HEAVY)], loaded

    def test_every_public_name_resolves(self):
        code = (
            "import simfarm\n"
            "for name in simfarm.__all__:\n"
            "    assert getattr(simfarm, name) is not None, name\n"
            "    assert name in dir(simfarm), name\n"
            "from simfarm import simkit, analysis, lhs_design\n"
            "assert simfarm.analysis is analysis and simfarm.lhs_design is lhs_design\n"
            "from simfarm.doe import lhs_design as home\n"
            "assert lhs_design is home\n"
        )
        loaded = loaded_after(code)
        assert "simfarm.cli" not in loaded
        assert {"simfarm.analysis", "simfarm.models", "simfarm.geo"} <= set(loaded)

    def test_every_submodule_export_resolves(self):
        """A name left in a submodule's ``__all__`` after its code went fails here."""
        names = [m.name for m in pkgutil.walk_packages(simfarm.__path__, "simfarm.")]
        assert {"simfarm.models", "simfarm.models.preprocess", "simfarm.cli"} <= set(names)
        stale = []
        for name in names:
            if name == "simfarm.__main__":
                continue
            module = importlib.import_module(name)
            stale += [f"{name}.{e}" for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
        assert stale == []

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            simfarm.nope  # noqa: B018


class TestBuiltinRunners:
    def test_navsim_without_importing_simkit_first(self):
        code = (
            "from simfarm.execution import get_runner\n"
            "assert callable(get_runner('navsim', seed=1))\n"
        )
        assert "simfarm.simkit" in loaded_after(code)

    def test_unknown_runner_lists_the_builtins(self):
        proc = python("-c", "from simfarm.execution import get_runner\nget_runner('nope')")
        assert proc.returncode == 1
        assert "unknown runner 'nope'; available: ['navsim']" in proc.stderr
