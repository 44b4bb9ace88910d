"""Layer pass: one figure per layer, single-threaded, public calls only.

Every timing is the median of ``REPEATS`` repeats of a loop over one
public function (or constructor + method pair) of the layer, converted to
reference speed with the calibration kernel timed before and after the
whole pass.  Nothing here reaches into a private attribute of ``repro``;
a layer that could not be driven from outside would be listed in
``MISSING`` instead of being dropped.

README.md says which end-to-end metric, on which workload, each figure is
expected to move.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import Callable, Dict, List

from repro import metrics as metrics_mod
from repro.core import multitenant
from repro.core.batching import BatchBuffer, BatchConfig
from repro.core.controller import LrsController, PolicyConfig
from repro.core.delivery import (AT_LEAST_ONCE, DedupWindow, DeliveryConfig,
                                 ReplayBuffer)
from repro.core.function_unit import FunctionUnit
from repro.core.graph import GraphBuilder
from repro.core.keyed import KEY_SPACE, KeyRange, hash_key
from repro.core.latency import DownstreamStats, MovingAverageEstimator
from repro.core.policies import make_policy
from repro.core.recovery import (ControlPlaneCheckpoint, RetainedEntry,
                                 SessionState)
from repro.core.reorder import ReorderBuffer
from repro.core.state import (InMemoryStateStore, decode_state_snapshot,
                              encode_state_snapshot, snapshot_range)
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.channels import TcpChannel, TcpListener
from repro.runtime.dispatcher import UpstreamDispatcher
from repro.runtime.fabric import InProcFabric, Mailbox, TcpFabric
from repro.runtime.serialization import (decode_batch, decode_tuple,
                                         encode_batch, encode_tuple)
from repro.runtime.worker import WorkerRuntime
from repro.simulation import Simulator, run_swarm, scenarios
from repro.trace import PROCESS, Span
from repro.trace import Tracer as ReproTracer

import calibrate
from loadgen import expected_y
from swarm import make_pad
from workloads import CONTROL_INTERVAL, WORKLOADS

REPEATS = 5
#: layers that cannot be timed through a public call (none today)
MISSING: List[str] = []

perf = time.perf_counter


def _median_us(fn: Callable[[], int], repeats: int) -> float:
    """Median over repeats of (seconds fn() took / operations it did)."""
    samples = []
    for _ in range(repeats):
        started = perf()
        operations = fn()
        samples.append((perf() - started) / operations)
    return 1e6 * statistics.median(samples)


def _tuple(seq: int, pad: bytes) -> DataTuple:
    return DataTuple(values={"x": seq, "pad": pad}, seq=seq,
                     created_at=float(seq))


# -- runtime.serialization ---------------------------------------------------
def codec(pad: bytes, n: int, repeats: int) -> Dict[str, float]:
    out = {}
    for label, body in (("6k", pad), ("64b", pad[:64])):
        data = _tuple(7, body)
        frame = encode_tuple(data)

        def encode() -> int:
            for _ in range(n):
                encode_tuple(data)
            return n

        def decode() -> int:
            for _ in range(n):
                decode_tuple(frame)
            return n
        out["codec.encode_us.%s" % label] = _median_us(encode, repeats)
        out["codec.decode_us.%s" % label] = _median_us(decode, repeats)
    tuples = [_tuple(i, pad) for i in range(64)]
    batch = encode_batch([encode_tuple(t) for t in tuples])
    rounds = max(1, n // 64)

    def batch_encode() -> int:
        for _ in range(rounds):
            encode_batch([encode_tuple(t) for t in tuples])
        return 64 * rounds

    def batch_decode() -> int:
        for _ in range(rounds):
            decode_batch(batch)
        return 64 * rounds
    out["codec.batch64_encode_us_per_tuple"] = _median_us(batch_encode,
                                                          repeats)
    out["codec.batch64_decode_us_per_tuple"] = _median_us(batch_decode,
                                                          repeats)
    out["codec.wire_bytes.6k"] = float(len(encode_tuple(_tuple(7, pad))))
    return out


# -- runtime.fabric ----------------------------------------------------------
def _ping_pong(send_a, box_a, send_b, box_b, message, n: int) -> int:
    """``n`` round trips between this thread and an echo thread; counts
    one-way hand-offs."""
    def echo() -> None:
        for _ in range(n):
            box_b.get(timeout=10.0)
            send_b(message)
    thread = threading.Thread(target=echo, name="bench-echo", daemon=True)
    thread.start()
    with calibrate.apart(thread):
        for _ in range(n):
            send_a(message)
            box_a.get(timeout=10.0)
    thread.join(10.0)
    return 2 * n


def fabric(pad: bytes, n: int, repeats: int) -> Dict[str, float]:
    message = messages.data_message("f", encode_tuple(_tuple(1, pad)), 1, 0.0)
    box = Mailbox("solo")

    def put_get() -> int:
        for _ in range(n):
            box.put("peer", message)
            box.get()
        return n
    out = {"fabric.mailbox_put_get_us": _median_us(put_get, repeats)}
    inproc = InProcFabric()
    box_a, box_b = inproc.register("a"), inproc.register("b")
    out["fabric.inproc_handoff_us"] = _median_us(
        lambda: _ping_pong(lambda m: inproc.send("a", "b", m), box_a,
                           lambda m: inproc.send("b", "a", m), box_b,
                           message, n // 4), repeats)
    tcp_a, tcp_b = TcpFabric("a"), TcpFabric("b")
    try:
        tcp_a.learn("b", tcp_b.address)
        tcp_b.learn("a", tcp_a.address)
        out["fabric.tcp_handoff_us"] = _median_us(
            lambda: _ping_pong(lambda m: tcp_a.send("a", "b", m),
                               tcp_a.register("a"),
                               lambda m: tcp_b.send("b", "a", m),
                               tcp_b.register("b"), message, n // 10),
            repeats)
    finally:
        tcp_a.close()
        tcp_b.close()
    return out


def channels(pad: bytes, n: int, repeats: int) -> Dict[str, float]:
    """A 6 kB frame there and back over one loopback TcpChannel pair."""
    listener = TcpListener()
    client = TcpChannel.connect(*listener.address)
    server = listener.accept(timeout=5.0)
    frame = encode_tuple(_tuple(1, pad))
    count = max(10, n // 8)

    def echo() -> None:
        for _ in range(count * repeats):
            server.send(server.recv(timeout=10.0))
    thread = threading.Thread(target=echo, name="bench-echo", daemon=True)
    thread.start()

    def roundtrip() -> int:
        for _ in range(count):
            client.send(frame)
            client.recv(timeout=10.0)
        return count
    try:
        return {"channels.tcp_roundtrip_us": _median_us(roundtrip, repeats)}
    finally:
        thread.join(10.0)
        client.close()
        server.close()
        listener.close()


# -- runtime.messages --------------------------------------------------------
def envelope(pad: bytes, n: int, repeats: int) -> Dict[str, float]:
    message = messages.data_message("f", encode_tuple(_tuple(1, pad)), 1, 0.5)
    message.payload["edge"] = "src>f"
    frame = message.encode()

    def encode() -> int:
        for _ in range(n):
            message.encode()
        return n

    def decode() -> int:
        for _ in range(n):
            messages.Message.decode(frame)
        return n
    return {"messages.encode_us": _median_us(encode, repeats),
            "messages.decode_us": _median_us(decode, repeats)}


# -- runtime.worker ----------------------------------------------------------
class _CountingCompute(FunctionUnit):
    """The benchmark's ``f``, plus an event when the last tuple is done."""

    def __init__(self, total: int, done: threading.Event) -> None:
        super().__init__()
        self._left = total
        self._done = done

    def process_data(self, data: DataTuple) -> None:
        values = data.values
        self.send(data.derive({"y": expected_y(values["x"]),
                               "pad": values["pad"]}))
        self._left -= 1
        if self._left == 0:
            self._done.set()


def worker_service(pad: bytes, n: int, batch: int) -> float:
    """Seconds per tuple for one worker to serve a pre-filled mailbox:
    decode, unit, dispatch to the sink's endpoint, ACK."""
    done = threading.Event()
    count = (n // batch) * batch
    graph = (GraphBuilder("layer")
             .source("src", lambda: None)
             .unit("f", lambda: _CountingCompute(count, done))
             .sink("snk", lambda: None)
             .chain("src", "f", "snk").build())
    config = PolicyConfig(policy="LRS", seed=1,
                          control_interval=CONTROL_INTERVAL,
                          batching=BatchConfig(batch, 0.005)
                          if batch > 1 else None)
    inproc = InProcFabric()
    inproc.register("A")  # receives the results and the ACKs; never read
    worker = WorkerRuntime("B", inproc, graph, policy_config=config,
                           control_interval=CONTROL_INTERVAL)
    inproc.send("A", "B", messages.deploy_message(
        "B", ["f"], {"f>snk": ["snk@A"]}))
    frames = [encode_tuple(_tuple(i, pad)) for i in range(count)]
    for start in range(0, count, batch):
        if batch == 1:
            message = messages.data_message("f", frames[start], start, 0.0)
        else:
            message = messages.batch_message(
                "f", encode_batch(frames[start:start + batch]),
                list(range(start, start + batch)), 0.0)
        message.payload["edge"] = "src>f"
        inproc.send("A", "B", message)
    started = perf()
    worker.start()
    try:
        if not done.wait(60.0):
            raise RuntimeError("worker never served its mailbox")
        return (perf() - started) / count
    finally:
        worker.stop()


# -- runtime.dispatcher, core.controller, core.batching -----------------------
def dispatch(pad: bytes, n: int, repeats: int) -> Dict[str, float]:
    out = {}
    tuples = [_tuple(i, pad) for i in range(n)]
    for label, batch in (("dispatch_us.b1", 1),
                         ("dispatch_us_per_tuple.b64", 64)):
        def run() -> int:
            dispatcher = UpstreamDispatcher(
                "src", send=lambda target, message: None, edge="src>f",
                config=PolicyConfig(
                    policy="LRS", seed=1, control_interval=CONTROL_INTERVAL,
                    batching=BatchConfig(batch, 0.005) if batch > 1
                    else None))
            dispatcher.set_downstreams(["f@B", "f@C"])
            started = perf()
            for data in tuples:
                dispatcher.dispatch(data)
            run.elapsed = perf() - started
            return n
        samples = []
        for _ in range(repeats):
            run()
            samples.append(run.elapsed / n)
        out["dispatcher." + label] = 1e6 * statistics.median(samples)
    controller = LrsController(PolicyConfig(
        policy="LRS", seed=1, control_interval=CONTROL_INTERVAL))
    for name in ("f@B", "f@C"):
        controller.add_downstream(name)
    context = b"frame"
    seqs = iter(range(10 ** 9))

    def dispatch_ack() -> int:
        for _ in range(n):
            seq = next(seqs)
            controller.dispatch(seq, context=context)
            controller.on_ack(seq, processing_delay=1e-4)
        return n

    def dispatch_batch() -> int:
        for _ in range(n // 64):
            members = [next(seqs) for _ in range(64)]
            controller.dispatch_batch(members, context=context)
            controller.on_ack_batch(members, processing_delay=1e-4)
        return 64 * (n // 64)
    out["controller.dispatch_ack_us"] = _median_us(dispatch_ack, repeats)
    out["controller.dispatch_batch64_us_per_tuple"] = _median_us(
        dispatch_batch, repeats)
    out["controller.update_us"] = _median_us(
        lambda: [controller.update() for _ in range(200)] and 200, repeats)
    buffer = BatchBuffer(BatchConfig(64, 0.005))

    def append_take() -> int:
        for _ in range(n // 64):
            for index in range(64):
                buffer.append((index, context, None), 0.0)
            buffer.take()
        return 64 * (n // 64)
    out["batching.append_take_us_per_tuple"] = _median_us(append_take,
                                                          repeats)
    return out


# -- core.delivery -------------------------------------------------------------
def delivery(pad: bytes, n: int, repeats: int) -> Dict[str, float]:
    replay = ReplayBuffer(DeliveryConfig(mode=AT_LEAST_ONCE))
    frame = encode_tuple(_tuple(1, pad))
    window = DedupWindow(1024)
    keys = iter(range(10 ** 9))

    def retain_release() -> int:
        for seq in range(n):
            replay.retain(seq, "f@B", frame, now=0.0)
            replay.release(seq)
        return n

    def seen() -> int:
        for _ in range(n):
            window.seen(("src>f", next(keys)))
        return n
    return {"delivery.retain_release_us": _median_us(retain_release, repeats),
            "delivery.dedup_seen_us": _median_us(seen, repeats)}


# -- core.policies, core.routing, core.latency --------------------------------
def policy(n: int, repeats: int) -> Dict[str, float]:
    lrs = make_policy("LRS", seed=1)
    names = ["f@B", "f@C", "f@E"]
    for name in names:
        lrs.on_downstream_added(name)
    stats = {name: DownstreamStats(name, latency=0.01 * (i + 1),
                                   processing_delay=0.005, acked_count=50,
                                   sent_count=50)
             for i, name in enumerate(names)}
    lrs.update(stats, 120.0)
    estimator = MovingAverageEstimator(window=20)

    def route() -> int:
        for _ in range(n):
            lrs.route()
        return n

    def update() -> int:
        for _ in range(n // 10):
            lrs.update(stats, 120.0)
        return n // 10

    def observe() -> int:
        for _ in range(n):
            estimator.observe(0.004)
        return n
    return {"policy.lrs_route_us": _median_us(route, repeats),
            "policy.lrs_update_us": _median_us(update, repeats),
            "latency.estimator_observe_us": _median_us(observe, repeats)}


# -- cross-cutting and off-path guards -----------------------------------------
def cross_cutting(n: int, repeats: int) -> Dict[str, float]:
    out = {}
    registry = metrics_mod.MetricsRegistry()

    def increment() -> int:
        for _ in range(n):
            registry.increment(metrics_mod.SHED_TOTAL, reason="expired",
                               queue="worker:B")
        return n

    def observe() -> int:
        for _ in range(n):
            registry.observe_histogram(metrics_mod.ACK_RTT_SECONDS, 0.003,
                                       downstream="f@B")
        return n
    out["metrics.increment_us"] = _median_us(increment, repeats)
    out["metrics.histogram_observe_us"] = _median_us(observe, repeats)
    for label, rate in (("unsampled", 0.0), ("sampled", 1.0)):
        tracer = ReproTracer(sample_rate=rate, registry=registry)

        def emit() -> int:
            for seq in range(n):
                tracer.emit(Span(PROCESS, seq, 0.0, 0.001, device_id="B",
                                 hop="worker:B", detail="f"))
            return n
        out["trace.emit_us.%s" % label] = _median_us(emit, repeats)

    def reorder() -> int:
        buffer = ReorderBuffer.for_rate(120.0)
        for seq in range(0, n, 2):  # pairs arrive swapped
            buffer.offer(seq + 1, 0.0)
            buffer.offer(seq, 0.0)
        return n
    out["reorder.offer_us"] = _median_us(reorder, repeats)
    keys = ["sensor-%d" % i for i in range(1000)]

    def hashing() -> int:
        for _ in range(max(1, n // 1000)):
            for key in keys:
                hash_key(key)
        return 1000 * max(1, n // 1000)
    out["keyed.hash_key_us"] = _median_us(hashing, repeats)
    everything = KeyRange(0, KEY_SPACE)

    def snapshot() -> int:
        store = InMemoryStateStore()
        for key in keys:
            store.store(key, {"count": 3, "total": 1.5})
        started = perf()
        decode_state_snapshot(encode_state_snapshot(
            snapshot_range(store, "", "f", everything)))
        snapshot.elapsed = perf() - started
        return 1
    samples = []
    for _ in range(repeats):
        snapshot()
        samples.append(snapshot.elapsed)
    out["state.snapshot_1k_us"] = 1e6 * statistics.median(samples)
    checkpoint = ControlPlaneCheckpoint(
        epoch=1, workers=("B", "C"),
        sessions=(SessionState("", True, (("f", ("B", "C")),
                                          ("snk", ("A",)), ("src", ("A",)))),),
        retention=(("src>f", tuple(
            RetainedEntry(seq=i, attempt=1, deadline=None, frame=b"x" * 600)
            for i in range(32))),),
        dedup=tuple(("f>snk", i) for i in range(256)))

    def roundtrip() -> int:
        for _ in range(20):
            ControlPlaneCheckpoint.decode(checkpoint.encode())
        return 20
    out["recovery.checkpoint_roundtrip_us"] = _median_us(roundtrip, repeats)
    specs = [multitenant.TenantSpec("t%d" % i, weight=i + 1)
             for i in range(4)]
    budgets = multitenant.tenant_budgets(specs, 64)
    depths = {"t0": 30, "t1": 10, "t2": 14, "t3": 10}

    def admission() -> int:
        for _ in range(n):
            multitenant.fair_admission("t1", depths, budgets, 64)
        return n
    out["multitenant.fair_admission_us"] = _median_us(admission, repeats)
    return out


def simulation(seed: int, quick: bool) -> Dict[str, float]:
    sim_seconds = 2.0 if quick else 10.0
    started = perf()
    run_swarm(scenarios.testbed(duration=sim_seconds, seed=seed))
    wall_ms = 1e3 * (perf() - started) / sim_seconds
    # the bare engine: 20 processes, each sleeping 1 ms of simulated time
    fired = [0]

    def ticker(sim: Simulator):
        while True:
            yield sim.timeout(0.001)
            fired[0] += 1
    engine = Simulator()
    for index in range(20):
        engine.process(ticker(engine), name="tick%d" % index)
    started = perf()
    engine.run(until=0.2 if quick else 2.0)
    return {"simulation.testbed_wall_ms_per_sim_s": wall_ms,
            "simulation.events_per_s": fired[0] / (perf() - started)}


# -- baselines -----------------------------------------------------------------
def inline_baseline(pad: bytes, n: int, repeats: int) -> float:
    """The benchmark's job in one thread with no fabric: build, encode,
    decode, compute, encode, decode, check."""
    def run() -> int:
        for seq in range(n):
            data = decode_tuple(encode_tuple(_tuple(seq, pad)))
            values = data.values
            out = decode_tuple(encode_tuple(data.derive(
                {"y": expected_y(values["x"]), "pad": values["pad"]})))
            if out.values["y"] != expected_y(seq) \
                    or out.values["pad"] != pad:
                raise RuntimeError("inline baseline computed a wrong result")
        return n
    return _median_us(run, repeats)


def one_cpu_rounds(seed: int, seconds: float, quick: bool) -> float:
    """``handoff_b1`` rounds with this process confined to one CPU."""
    from child import Phase, summarize  # late: child imports this module
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        phase = Phase(WORKLOADS["handoff_b1"], seed, quick, warm_up_s=0.5)
        phase.run(seconds)
        return summarize(phase.workload, phase.rounds)["tuples_per_s"]
    finally:
        os.sched_setaffinity(0, allowed)


#: seconds of one-CPU ``handoff_b1`` rounds (after a 0.5 s warm-up)
ONE_CPU_SECONDS = 2.5


def layer_pass(seed: int, quick: bool) -> Dict[str, float]:
    """Every layer figure, at reference speed (about 12 s)."""
    pad = make_pad(seed)
    n = 400 if quick else 4000
    repeats = 2 if quick else REPEATS
    before = calibrate.calibrate()
    timed: Dict[str, float] = {}
    timed.update(codec(pad, n, repeats))
    timed.update(fabric(pad, n, repeats))
    timed.update(channels(pad, n, repeats))
    timed.update(envelope(pad, n, repeats))
    for label, batch in (("worker.service_us.b1", 1),
                         ("worker.service_us_per_tuple.b64", 64)):
        timed[label] = 1e6 * statistics.median(
            worker_service(pad, n, batch) for _ in range(repeats))
    timed.update(dispatch(pad, n, repeats))
    timed.update(delivery(pad, 5 * n, repeats))
    timed.update(policy(10 * n, repeats))
    timed.update(cross_cutting(n, repeats))
    timed["baseline.inline_us_per_tuple"] = inline_baseline(pad, n // 2,
                                                            repeats)
    sim = simulation(seed, quick)
    after = calibrate.calibrate()
    factor = calibrate.speed_factor(before, after)
    out = {}
    for name, value in timed.items():
        out[name] = value if name == "codec.wire_bytes.6k" else value * factor
    out["simulation.testbed_wall_ms_per_sim_s"] = \
        sim["simulation.testbed_wall_ms_per_sim_s"] * factor
    out["simulation.events_per_s"] = sim["simulation.events_per_s"] / factor
    out["baseline.one_cpu_tuples_per_s"] = one_cpu_rounds(
        seed, ONE_CPU_SECONDS, quick)
    return out
