#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload handoff_b1 --seed 1 --trace 0

The workload runs in a fresh child interpreter against the unmodified
``repro`` package under ``src/`` (this file never imports ``repro``).
Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``.  The exit code is non-zero, and no result line
is printed, when an output fails the reference check, when the
measurement was invalid (late generator, busy "idle" swarm) or when there
is no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import (END_TO_END_NAMES, PER_LAYER_NAMES,  # noqa: E402
                       RUN_SECONDS, UNITS, WORKLOADS)

CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # dict/set iteration order must not differ between two runs of one seed
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int,
              quick: bool) -> dict:
    """Run the child; raise ``SystemExit`` with its code if it failed."""
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    done = subprocess.run(command, env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(done.returncode or 1)  # the child said why
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: %d)" % RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="two rounds, short warm-up: a smoke test")
    parser.add_argument("--json-out", default=None,
                        help="also write the child's full result here")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("no src/repro next to bench/: nothing to measure",
              file=sys.stderr)
        return 1
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    result = run_child(args.workload, args.seed, seconds, args.trace,
                       args.quick)
    names = PER_LAYER_NAMES if args.trace else END_TO_END_NAMES
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        print("metrics missing from the run: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(result, handle, indent=1)
    print("%s seed=%d trace=%d: %d tuples attempted, %d failed, "
          "%d latency samples, %.1f s"
          % (args.workload, args.seed, args.trace, result["attempted"],
             result["failed"], result["samples"], result["wall_s"]))
    metrics = {}
    for name in names:
        value = result["metrics"][name]
        print("  %-42s %14.6g %s" % (name, value, UNITS[name]))
        metrics[name] = {"value": value, "unit": UNITS[name]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
