"""BENCHMARK.json, workloads.py and the printed result agree."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import workloads
from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT, script=None):
    script = script or os.path.join(BENCH, "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_json_is_what_workloads_py_declares():
    declared = _benchmark()
    assert declared == workloads.benchmark_json(declared["run_seconds"])
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}


def test_names_units_and_limits():
    declared = _benchmark()
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert 2 <= len(declared["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= declared["run_seconds"] <= 60
    # 4 + 22 x workloads runs of ~run_seconds + ~8 s must fit in 3420 s
    runs = 4 + 22 * len(declared["workloads"])
    assert runs * (declared["run_seconds"] + 10) <= 3420


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_smoke_prints_every_end_to_end_metric(workload):
    done = _run("--workload", workload, "--seed", "5", "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == workloads.END_TO_END_NAMES
    for name, entry in result["metrics"].items():
        assert entry["unit"] == workloads.UNITS[name]
        assert entry["value"] > 0
        assert name in done.stdout  # also printed by name for a reader


def test_quick_traced_run_prints_every_per_layer_metric():
    done = _run("--workload", "handoff_b1", "--seed", "5", "--trace", "1",
                "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == workloads.PER_LAYER_NAMES
    assert result["metrics"]["fabric.sends_per_tuple"]["value"] == 4.0


def test_fails_without_printing_where_there_is_no_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("--workload", "handoff_b1", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "bench" / "run.py"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_a_wrong_result_ends_the_run_with_a_nonzero_code():
    # the same child, with an f that computes 3x + 2
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "import child, swarm\n"
        "def wrong(self, data):\n"
        "    self.send(data.derive({'y': 3 * data.values['x'] + 2,\n"
        "                           'pad': data.values['pad']}))\n"
        "swarm.BenchCompute.process_data = wrong\n"
        "sys.exit(child.main(['--workload', 'handoff_b1', '--seed', '1',\n"
        "                     '--seconds', '1', '--quick']))\n" % BENCH)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout.strip() == ""
    assert "failed the reference check" in done.stderr
