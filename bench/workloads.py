"""Workload and metric definitions: the single source of the names.

``BENCHMARK.json``, ``run.py``'s printed result and ``compare.py`` all use
the names declared here (``bench/tests/test_contract.py`` checks they are
the same sets).  This module imports neither ``repro`` nor anything else
from ``bench/`` so the parent process, the child and the tests can all
load it.

Every workload is the same job — master ``A`` hosts ``src`` and ``snk``,
pipeline ``src -> f -> snk``, ``f`` returns ``y = 3x + 1`` and forwards the
6 kB pad, policy LRS, ``control_interval=0.25`` — and differs only in the
layer it loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: bytes of seeded random pad every tuple carries (the paper's frames
#: are a few kB; BENCH_6 and the e2e smoke both use 6 kB)
PAD_BYTES = 6000
CONTROL_INTERVAL = 0.25
MASTER_ID = "A"
#: discarded warm-up before the first measured round, seconds: long
#: enough for the LRS estimator window (20 samples) and several 0.25 s
#: policy rounds to settle
WARMUP_SECONDS = 2.0
#: an open-loop window is invalid when more than LATE_SHARE_LIMIT of its
#: tuples left the generator more than LATE_LIMIT_MS behind the timetable
LATE_LIMIT_MS = 5.0
LATE_SHARE_LIMIT = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "closed": ``window`` tuples in flight, next emitted on delivery;
    #: "open": emitted on a fixed schedule at ``rate`` regardless
    loop: str
    fabric: str  # "inproc" | "tcp"
    #: worker id -> mean seconds ``f`` sleeps per tuple on that worker
    workers: Dict[str, float]
    round_tuples: int
    window: int = 0
    rate: float = 0.0
    batch: Optional[Tuple[int, float]] = None  # BatchConfig(max, delay)
    at_least_once: bool = False
    #: tuples the set-up probe pushes through before it calls the swarm
    #: "up": one full batch, so no flush timer sits on the probe's path
    probe_tuples: int = 1

    @property
    def closed(self) -> bool:
        return self.loop == "closed"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="handoff_b1",
        why="closed loop, in-proc fabric, batch 1: four fabric crossings "
            "and two ACKs per tuple, so Mailbox hand-off, worker loop and "
            "controller carry the load and the codec is small",
        loop="closed", fabric="inproc", workers={"B": 0.0, "C": 0.0},
        round_tuples=1000, window=32),
    Workload(
        name="batch_b64",
        why="same job with BatchConfig(64, 5 ms): crossings amortised 64x, "
            "so codec, unit and per-tuple accounting dominate and a "
            "hand-off fix should barely move it",
        loop="closed", fabric="inproc", workers={"B": 0.0, "C": 0.0},
        round_tuples=4096, window=512, batch=(64, 0.005), probe_tuples=64),
    Workload(
        name="tcp_b1_alo",
        why="handoff_b1 over one TcpFabric per endpoint with at-least-once "
            "delivery: Message codec, sockets, reader threads, retain/"
            "release and ingress dedup carry the load",
        loop="closed", fabric="tcp", workers={"B": 0.0, "C": 0.0},
        round_tuples=300, window=32, at_least_once=True),
    Workload(
        name="paced_hetero",
        why="open loop at 120/s over workers sleeping 9.29/12.16/46.34 ms "
            "+-25% (Table I / 10): the paper's regime, where routing, probing "
            "and idle polling decide latency and data-plane speed must not",
        loop="open", fabric="inproc",
        workers={"B": 0.00929, "C": 0.01216, "E": 0.04634},
        round_tuples=360, rate=120.0),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None  # end-to-end only


#: what a user of the swarm sees; the same five on every workload
END_TO_END: List[Metric] = [
    Metric("tuples_per_s", "1/s", "higher", 0.15),
    Metric("latency_p50_ms", "ms", "lower", 0.15),
    Metric("latency_p95_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
]


def _lower(unit: str, *names: str) -> List[Metric]:
    return [Metric(name, unit, "lower") for name in names]


#: single-layer figures, printed by ``--trace 1``; see README.md for the
#: end-to-end metric and workload each one is expected to move
PER_LAYER: List[Metric] = (
    # -- layer pass: runtime.serialization
    _lower("us", "codec.encode_us.6k", "codec.decode_us.6k",
           "codec.encode_us.64b", "codec.decode_us.64b",
           "codec.batch64_encode_us_per_tuple",
           "codec.batch64_decode_us_per_tuple")
    + _lower("B", "codec.wire_bytes.6k")
    # -- runtime.fabric / worker / dispatcher, core.controller / batching
    + _lower("us", "fabric.mailbox_put_get_us", "fabric.inproc_handoff_us",
             "worker.service_us.b1", "worker.service_us_per_tuple.b64",
             "dispatcher.dispatch_us.b1",
             "dispatcher.dispatch_us_per_tuple.b64",
             "controller.dispatch_ack_us",
             "controller.dispatch_batch64_us_per_tuple",
             "batching.append_take_us_per_tuple")
    # -- runtime.messages / channels, core.delivery
    + _lower("us", "messages.encode_us", "messages.decode_us",
             "fabric.tcp_handoff_us", "channels.tcp_roundtrip_us",
             "delivery.retain_release_us", "delivery.dedup_seen_us")
    # -- core.policies / latency / controller update round
    + _lower("us", "policy.lrs_route_us", "policy.lrs_update_us",
             "latency.estimator_observe_us", "controller.update_us")
    # -- runtime.master / app_runner: phases of the set-up probes
    + _lower("s", "setup.import_s", "setup.build_s", "setup.join_s",
             "setup.deploy_s", "setup.first_result_s", "setup.stop_s")
    # -- cross-cutting and off-path guards
    + _lower("us", "metrics.increment_us", "metrics.histogram_observe_us",
             "trace.emit_us.unsampled", "trace.emit_us.sampled",
             "reorder.offer_us", "keyed.hash_key_us", "state.snapshot_1k_us",
             "recovery.checkpoint_roundtrip_us",
             "multitenant.fair_admission_us")
    + _lower("ms", "simulation.testbed_wall_ms_per_sim_s")
    + [Metric("simulation.events_per_s", "1/s", "higher")]
    # -- baselines that size the gap
    + _lower("us", "baseline.inline_us_per_tuple")
    + [Metric("baseline.one_cpu_tuples_per_s", "1/s", "higher")]
    # -- traced run: CPU budget
    + _lower("us", "process.cpu_us_per_tuple",
             "thread.cpu_us_per_tuple.source",
             "thread.cpu_us_per_tuple.master_loop",
             "thread.cpu_us_per_tuple.workers",
             "thread.cpu_us_per_tuple.tcp_readers",
             "thread.cpu_us_per_tuple.other")
    + _lower("frac", "budget.unattributed_frac")
    # -- traced run: spans along one tuple's path
    + _lower("us", "span.source_emit_us", "span.fabric_send_us",
             "span.send_to_unit_us", "span.unit_us", "span.unit_to_sink_us",
             "span.ack_rtt_us")
    # -- traced run: counts at the layer boundaries
    + _lower("count", "fabric.sends_per_tuple")
    + _lower("B", "fabric.bytes_per_tuple")
    + [Metric("batch.fill_frac", "frac", "higher")]
    + _lower("count", "mailbox.max_depth.workers", "mailbox.max_depth.master")
    + _lower("frac", "worker.busy_frac.max")
    + [Metric("routing.share_fastest", "frac", "higher")]
    + _lower("count", "routing.selected_mean", "counters.shed",
             "counters.dropped", "counters.redelivered", "counters.deduped")
    # -- traced run: the measurement itself
    + [Metric("gen.offered_per_s", "1/s", "higher")]
    + _lower("ms", "gen.late_ms_max")
    + [Metric("machine.speed_factor", "frac", "higher")]
    + _lower("frac", "machine.speed_factor_spread", "machine.idle_cpu_frac")
    + [Metric("raw.tuples_per_s", "1/s", "higher")]
    + _lower("ms", "sink.latency_p99_ms")
    + _lower("frac", "trace.overhead_frac")
)

END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


#: measured seconds per run; a run takes about 5 s more, and the driver
#: makes 4 + 22 x 4 of them inside 3420 s
RUN_SECONDS = 26


def benchmark_json(run_seconds: int = RUN_SECONDS) -> dict:
    """The ``BENCHMARK.json`` these definitions imply."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
