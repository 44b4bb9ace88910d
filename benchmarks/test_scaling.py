"""Scaling study: throughput and latency vs swarm size.

The paper's motivation: no single phone sustains the 24 FPS target
(Fig. 1), so devices must aggregate.  This bench grows the swarm one
device at a time (fastest-first, the order the planner would recruit
them) and reports when the target is reached and how latency falls.
"""

import json

import pytest

from repro import profiles
from repro.simulation import scenarios
from repro.simulation.swarm import SwarmConfig, run_swarm
from repro.simulation.workload import face_workload

#: fastest-first recruitment order (Table-I rates)
RECRUITMENT = ["H", "I", "G", "B", "F", "D", "C", "E"]


def run_suite():
    out = {}
    for count in range(1, len(RECRUITMENT) + 1):
        ids = RECRUITMENT[:count]
        config = SwarmConfig(workload=face_workload(),
                             workers=profiles.worker_profiles(ids),
                             source=profiles.device_profile("A"),
                             duration=40.0, seed=1)
        out[count] = run_swarm(config)
    return out


def test_scaling(benchmark, report):
    results = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    report.line("Scaling study — LRS throughput vs swarm size "
                "(fastest-first recruitment, 24 FPS target)")
    rows = []
    for count, result in results.items():
        steady = result.steady_state_latency(warmup=5.0)
        rows.append((str(count),
                     "+" + RECRUITMENT[count - 1],
                     "%.1f" % result.throughput,
                     "%.0f" % ((steady.mean if steady else 0) * 1000),
                     "met" if result.meets_input_rate() else "missed",
                     "%.2f" % result.energy.aggregate_w))
    report.table(["devices", "added", "thr fps", "lat ms", "target",
                  "power W"], rows, fmt="%8s")

    throughputs = [results[count].throughput for count in results]
    # Throughput grows (weakly) with swarm size until the target caps it.
    assert throughputs[0] < throughputs[1] < throughputs[2]
    # One phone is far short of the target (Fig. 1's observation)...
    assert results[1].throughput < 24.0 * 0.75
    # ... but a handful of phones reach it.
    first_met = next(count for count in results
                     if results[count].meets_input_rate())
    assert first_met <= 4
    # Adding devices beyond the target never reduces throughput much.
    assert min(throughputs[first_met - 1:]) > 21.0


# ---------------------------------------------------------------------------
# Tenant ramp: N pipelines over a fixed pool (ISSUE 7 trajectory bench).
# ---------------------------------------------------------------------------

TENANT_COUNTS = [1, 8, 32]
TENANT_POOL = ("B", "D", "G", "H")
TENANT_DURATION = 30.0


def _jain(values):
    """Jain's fairness index: 1.0 = perfectly even shares."""
    if not values or sum(values) == 0:
        return 0.0
    return (sum(values) ** 2) / (len(values) * sum(v * v for v in values))


def run_tenant_ramp():
    out = {}
    for count in TENANT_COUNTS:
        config = scenarios.tenants(duration=TENANT_DURATION, seed=1,
                                   worker_ids=TENANT_POOL,
                                   tenant_count=count)
        out[count] = run_swarm(config)
    return out


def test_tenant_ramp(benchmark, report):
    """Fan one app's 24 FPS budget out over 1 -> 8 -> 32 tenants.

    The pool is fixed and the *aggregate* offered rate is constant, so
    this isolates the cost of the multi-tenant control plane itself:
    per-tenant controllers, reorder/dedup state, fair-share bookkeeping.
    Aggregate throughput should hold and the even weights should yield
    an even split (Jain index ~= 1).
    """
    results = benchmark.pedantic(run_tenant_ramp, rounds=1, iterations=1)

    rows = []
    stats = {}
    for count, result in results.items():
        tenants = ["t%d" % index for index in range(count)]
        per_tenant = [result.tenant_throughput(t) for t in tenants]
        steady = result.steady_state_latency(warmup=5.0)
        fairness = _jain(per_tenant)
        stats[count] = {
            "aggregate_fps": round(result.throughput, 2),
            "mean_latency_ms": round((steady.mean if steady else 0.0)
                                     * 1000, 1),
            "fairness_jain": round(fairness, 4),
            "shed_total": sum(result.shed_by_reason.values()),
        }
        rows.append((str(count), "%.1f" % result.throughput,
                     "%.0f" % stats[count]["mean_latency_ms"],
                     "%.3f" % fairness,
                     str(stats[count]["shed_total"])))

    report.line("Tenant ramp — fixed pool %s, constant 24 FPS aggregate"
                % (TENANT_POOL,))
    report.table(["tenants", "thr fps", "lat ms", "jain", "shed"], rows,
                 fmt="%8s")

    bench = {
        "issue": 7,
        "pool": list(TENANT_POOL),
        "duration_s": TENANT_DURATION,
        "tenants": {str(count): stats[count] for count in TENANT_COUNTS},
        "aggregate_fps_ratio_32v1": round(
            stats[32]["aggregate_fps"] / stats[1]["aggregate_fps"], 3),
    }
    from conftest import RESULTS_DIR
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_7.json").write_text(
        json.dumps(bench, indent=2) + "\n")

    # Splitting one workload across tenants must not sink throughput.
    # (At 32 tenants each source runs at 0.75 FPS, so per-tenant batching
    # and reorder hold times approach the 2 s TTL — the ~15% loss there
    # is TTL expiry at sub-FPS rates, not fair-share overhead.)
    assert stats[8]["aggregate_fps"] >= 0.95 * stats[1]["aggregate_fps"]
    assert stats[32]["aggregate_fps"] >= 0.80 * stats[1]["aggregate_fps"]
    # ...and equal weights must get equal service.
    for count in (8, 32):
        assert stats[count]["fairness_jain"] >= 0.9