"""Set-up probe: a fresh interpreter from ``import repro`` to the first
result at the sink, timed phase by phase.

The probe uses the workload's fabric, delivery mode and batching but no
service sleep (set-up cost is not service time).  It pushes one batch
worth of tuples so no flush timer sits between ``start`` and the first
result.  Prints one JSON object of seconds per phase; ``setup_s`` is
process start of this file to first result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    import repro  # noqa: F401
    from swarm import Job, Swarm
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    marks = [("import_s", time.perf_counter())]
    job = Job(workload, args.seed)
    swarm = Swarm(job, service={})
    marks.append(("build_s", time.perf_counter()))
    try:
        swarm.join()
        marks.append(("join_s", time.perf_counter()))
        swarm.deploy()
        marks.append(("deploy_s", time.perf_counter()))
        swarm.master.start()
        job.begin_round(workload.probe_tuples)
        deadline = time.perf_counter() + 30.0
        while not job.arrivals:
            if time.perf_counter() > deadline:
                raise RuntimeError("no result reached the sink")
            time.sleep(0.0005)
        marks.append(("first_result_s", time.perf_counter()))
        up = marks[-1][1]
        job.done.wait(30.0)
    finally:
        stop_from = time.perf_counter()
        swarm.stop()
    out = {}
    previous = _T0
    for name, at in marks:
        out[name] = at - previous
        previous = at
    out["stop_s"] = time.perf_counter() - stop_from
    out["setup_s"] = up - _T0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
