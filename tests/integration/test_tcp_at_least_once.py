"""One second of closed-loop, at-least-once traffic over ``TcpFabric``.

The path that would ship (one TCP fabric per endpoint, batch 1, retain
per send, release per ACK, ingress dedup) must deliver every tuple once
*without* the replay machinery ever firing: on a healthy loopback link a
redelivery or a dedup hit means an ACK overtook its own send's
bookkeeping and left an orphan behind (the ACK-before-retain race).
CI runs this file by name so a reappearance fails under that name.
"""

import threading
import time

from repro import metrics as metrics_mod
from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.function_unit import LambdaUnit, SinkUnit, SourceUnit
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime.fabric import TcpFabric
from repro.runtime.master import Master
from repro.runtime.worker import WorkerRuntime

from tests.integration.waiting import wait_until

WINDOW = 32
RUN_SECONDS = 1.0
PAD = bytes(range(256)) * 24  # 6 kB, like the benchmark's tuples


class _Loop:
    """Closed loop: at most ``WINDOW`` tuples between source and sink."""

    def __init__(self) -> None:
        self.window = threading.Semaphore(WINDOW)
        self.deadline = time.monotonic() + RUN_SECONDS
        self.emitted = 0
        self.delivered = []


class _Source(SourceUnit):
    def __init__(self, loop: _Loop) -> None:
        super().__init__()
        self._loop = loop

    def generate(self):
        loop = self._loop
        while time.monotonic() < loop.deadline:
            if loop.window.acquire(timeout=0.05):
                seq = loop.emitted
                loop.emitted = seq + 1
                return DataTuple(values={"x": seq, "pad": PAD}, seq=seq)
        return None


class _Sink(SinkUnit):
    def __init__(self, loop: _Loop) -> None:
        super().__init__()
        self._loop = loop

    def process_data(self, data: DataTuple) -> None:
        self._loop.delivered.append((data.seq, data.get_value("y")))
        self._loop.window.release()


def test_closed_loop_delivers_once_and_replay_never_fires():
    loop = _Loop()
    graph = (GraphBuilder("tcp-alo")
             .source("src", lambda: _Source(loop))
             .unit("f", lambda: LambdaUnit(
                 lambda v: {"y": 3 * v["x"] + 1, "pad": v["pad"]}))
             .sink("snk", lambda: _Sink(loop))
             .chain("src", "f", "snk")
             .build())
    registry = metrics_mod.MetricsRegistry()
    config = PolicyConfig(policy="LRS", seed=1, control_interval=0.25,
                          delivery=DeliveryConfig(mode=AT_LEAST_ONCE))
    ids = ["A", "B", "C"]
    fabrics = {i: TcpFabric(i, registry=registry) for i in ids}
    for fabric in fabrics.values():
        for other_id, other in fabrics.items():
            if other is not fabric:
                fabric.learn(other_id, other.address)
    master = Master("A", fabrics["A"], graph, source_rate=0, seed=1,
                    control_interval=0.25, registry=registry,
                    delivery=config.delivery, policy_config=config)
    workers = [WorkerRuntime(i, fabrics[i], graph, seed=1,
                             control_interval=0.25, policy_config=config,
                             registry=registry, delivery=config.delivery)
               for i in ids[1:]]
    runtimes = [master.runtime] + workers
    try:
        master.runtime.start()
        for worker in workers:
            worker.start()
            worker.join_master("A")
        wait_until(lambda: {"B", "C"} <= set(master.worker_ids),
                   message="workers joined")
        master.deploy()
        wait_until(lambda: all(r.deployed.is_set() for r in runtimes),
                   message="deployment")
        master.start()
        wait_until(lambda: time.monotonic() >= loop.deadline
                   and len(loop.delivered) >= loop.emitted
                   and not any(r.busy() for r in runtimes),
                   timeout=RUN_SECONDS + 10.0, message="the loop to drain")

        assert loop.emitted > WINDOW
        assert sorted(loop.delivered) == [(seq, 3 * seq + 1)
                                          for seq in range(loop.emitted)]

        def total(name):
            return sum(counter.value for counter in registry.counters()
                       if counter.name == name)

        assert total(metrics_mod.REDELIVERED_TOTAL) == 0
        assert total(metrics_mod.DEDUPED_TOTAL) == 0
        assert total(metrics_mod.LOST_TOTAL) == 0
        assert total(metrics_mod.DROPPED_TOTAL) == 0
        # Every ACK found what its send registered: nothing is left
        # retained or pending that a later sweep would redeliver or
        # charge as lost.
        edges = [runtime.dispatcher(unit).controller
                 for runtime, unit in [(master.runtime, "src")]
                 + [(worker, "f") for worker in workers]]
        wait_until(lambda: all(c.tracker.pending_count() == 0
                               for c in edges), message="the last ACKs")
        assert [c.replay_depth() for c in edges] == [0, 0, 0]
        assert sum(c.ack_count for c in edges) == 2 * loop.emitted
    finally:
        master.stop()
        for worker in workers:
            worker.stop()
        master.runtime.stop()
        for fabric in fabrics.values():
            fabric.close()
