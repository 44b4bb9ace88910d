#!/usr/bin/env python3
"""Run every workload several times and write one result file.

    python3 bench/collect.py --sets 2 --runs 5 --out bench/results/NAME.json

The sets are interleaved (set 1 run 1, set 2 run 1, set 1 run 2, ...) so
both sample the same stretch of machine time; every run gets its own
seed.  One ``--trace 1`` run per workload follows.  The file keeps every
per-round raw value and speed factor next to the medians, plus commit,
Python, ``nproc`` and the 1-minute load average, so ``compare.py`` (and a
reader) can redo the arithmetic.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def commit() -> str:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def one_run(workload: str, seed: int, trace: int,
            seconds: Optional[float]) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", dir=HERE) as out:
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--trace", str(trace), "--json-out", out.name]
        if seconds is not None:
            command += ["--seconds", repr(seconds)]
        load = os.getloadavg()[0]
        done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
        if done.returncode != 0:
            raise SystemExit("run failed: %s" % " ".join(command))
        result = json.load(out)
    result["loadavg_1m_before"] = load
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=100,
                        help="first seed; each run takes the next one")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    runs = []
    seed = args.seed
    started = time.time()
    for index in range(args.runs):
        for chosen in range(1, args.sets + 1):
            for workload in WORKLOADS:
                result = one_run(workload, seed, 0, args.seconds)
                result["set"] = chosen
                runs.append(result)
                print("set %d run %d %-13s seed %d: %s"
                      % (chosen, index + 1, workload, seed,
                         {k: round(v, 4)
                          for k, v in result["metrics"].items()}),
                      flush=True)
                seed += 1
    if not args.no_trace:
        for workload in WORKLOADS:
            runs.append(one_run(workload, seed, 1, args.seconds))
            print("traced %-13s seed %d" % (workload, seed), flush=True)
            seed += 1
    meta = {
        "commit": commit(), "python": platform.python_version(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0], "sets": args.sets,
        "runs_per_set": args.runs, "started_unix": started,
        "wall_s": time.time() - started,
    }
    with open(args.out, "w") as handle:
        json.dump({"meta": meta, "runs": runs}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
