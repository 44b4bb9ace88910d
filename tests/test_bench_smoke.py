"""The frozen benchmark still runs against this tree.

``bench/`` may not change with the code it measures, and it calls a wide
slice of the runtime's public API: ``--trace 1`` drives
``bench/layers.py``, i.e. every public ``repro`` name the benchmark
touches.  A rename or signature change therefore fails here, in tier-1,
rather than at the pipeline's benchmark stage.  Correctness only — a
``--quick`` run is far too short to time anything.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quick_run(workload, trace):
    """The summary line of one ``--quick`` run (exit 2 = a lost,
    duplicated or wrong tuple)."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", workload, "--seed", "1", "--quick",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["failed"] == 0
    return summary


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_quick_run_reports_the_declared_metrics(trace, declared):
    summary = quick_run("handoff_b1", trace)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [metric["name"] for metric in json.load(handle)[declared]]
    assert sorted(summary["metrics"]) == sorted(names)


@pytest.mark.parametrize("workload", ["batch_b64", "tcp_b1_alo"])
def test_quick_run_is_correct_on_the_other_wire_kinds(workload):
    # handoff_b1 sends DATA frames, best effort: BATCH frames and the
    # at-least-once retain/release/dedup path get the same check.
    assert quick_run(workload, 0)["correct"]
