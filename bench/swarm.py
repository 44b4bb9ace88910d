"""The benchmark's job on the real runtime: units, graph, swarm.

Imported only in processes that already have ``repro`` on their path
(the child, the set-up probe).  The swarm is assembled from ``Master`` /
``WorkerRuntime`` / ``PolicyConfig`` directly because ``SwingRuntime``
cannot select a fabric or batching.  Nothing here is handed to ``repro``
except through its public constructor arguments and the function-unit
API.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.core.batching import BatchConfig
from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.function_unit import FunctionUnit, SinkUnit, SourceUnit
from repro.core.graph import AppGraph, GraphBuilder
from repro.core.tuples import DataTuple
from repro.metrics import MetricsRegistry
from repro.runtime.fabric import Fabric, InProcFabric, TcpFabric
from repro.runtime.master import Master
from repro.runtime.worker import WorkerRuntime

from loadgen import Arrival, ClosedLoop, Emitted, OpenLoop
from workloads import CONTROL_INTERVAL, MASTER_ID, PAD_BYTES, Workload

clock = time.monotonic


def make_pad(seed: int) -> bytes:
    return random.Random(seed).randbytes(PAD_BYTES)


class Job:
    """State shared between the generator, the sink and the main thread."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.pad = make_pad(seed)
        self.schedule = (ClosedLoop(workload.window, clock) if workload.closed
                         else OpenLoop(workload.rate, clock))
        self._rng = random.Random(seed ^ 0x5EED)
        self._seq = 0
        #: tuples emitted in the current round, in order
        self.emitted: List[Emitted] = []
        #: what the sink saw in the current round, in arrival order
        self.arrivals: List[Arrival] = []
        self.expected = 0
        self.done = threading.Event()
        #: optional hooks the traced run installs
        self.on_unit: Optional[Callable[[str, int, float, float], None]] = None
        self.on_emit: Optional[Callable[[tuple], None]] = None

    def next_tuple(self) -> Optional[DataTuple]:
        entered = clock()
        stamp = self.schedule.next_emit()
        if stamp is None:
            return None
        seq = self._seq
        self._seq = seq + 1
        x = self._rng.getrandbits(30)
        self.emitted.append(Emitted(seq, x, stamp))
        if self.on_emit is not None:
            self.on_emit((seq, entered, clock()))
        return DataTuple(values={"x": x, "pad": self.pad}, seq=seq,
                         created_at=stamp)

    def begin_round(self, count: int) -> None:
        self.expected = count
        self.done.clear()
        self.schedule.begin_round(count)

    def take_round(self):
        """Hand the finished round's records to the checker."""
        emitted, arrivals = self.emitted, self.arrivals
        self.emitted, self.arrivals = [], []
        return emitted, arrivals


class BenchSource(SourceUnit):
    """The one generator thread: the runtime's pump calls ``generate``
    back to back (``source_rate=0``); pacing lives in the schedule."""

    def __init__(self, job: Job) -> None:
        super().__init__()
        self._job = job

    def generate(self) -> Optional[DataTuple]:
        return self._job.next_tuple()


#: a worker's service time is its mean x uniform(1 - J, 1 + J): with
#: fixed sleeps every latency is a sum of 9.29 / 12.16 / 46.34 ms steps,
#: and p95 hops between two of those levels from run to run
SERVICE_JITTER = 0.25


class BenchCompute(FunctionUnit):
    """``y = 3x + 1``; forwards the pad; sleeps the worker's service time."""

    def __init__(self, job: Job, service: Dict[str, float]) -> None:
        super().__init__()
        self._job = job
        self._service = service
        self._sleep = 0.0
        self._worker = ""
        self._rng = random.Random()

    def on_start(self) -> None:
        self._worker = self.context.instance_id.partition("@")[2]
        self._sleep = self._service.get(self._worker, 0.0)
        self._rng = random.Random("%d:%s" % (self._job.seed, self._worker))

    def process_data(self, data: DataTuple) -> None:
        hook = self._job.on_unit
        started = clock() if hook is not None else 0.0
        if self._sleep:
            time.sleep(self._sleep * (1.0 - SERVICE_JITTER + 2.0
                                      * SERVICE_JITTER * self._rng.random()))
        values = data.values
        out = data.derive({"y": 3 * values["x"] + 1, "pad": values["pad"]})
        if hook is not None:
            hook(self._worker, data.seq, started, clock())
        self.send(out)


class BenchSink(SinkUnit):
    """Stamps the arrival and keeps the fields the checker needs.

    The pad is compared here (a 6 kB memcmp) and only the verdict kept:
    holding a round's pads until the gap would add tens of MB to the
    peak RSS the run reports.
    """

    def __init__(self, job: Job) -> None:
        super().__init__()
        self._job = job

    def process_data(self, data: DataTuple) -> None:
        values = data.values
        pad = values.get("pad")
        if type(pad) is memoryview:  # zero-copy batch decode; == is slow
            pad = bytes(pad)
        self._job.arrivals.append(Arrival(
            data.seq, clock(), data.created_at, values.get("y"),
            pad == self._job.pad))
        self._job.schedule.delivered()
        if len(self._job.arrivals) >= self._job.expected:
            self._job.done.set()


def build_graph(job: Job, service: Dict[str, float]) -> AppGraph:
    return (GraphBuilder("bench")
            .source("src", lambda: BenchSource(job))
            .unit("f", lambda: BenchCompute(job, service))
            .sink("snk", lambda: BenchSink(job))
            .chain("src", "f", "snk")
            .build())


def policy_config(workload: Workload, seed: int) -> PolicyConfig:
    return PolicyConfig(
        policy="LRS", seed=seed, control_interval=CONTROL_INTERVAL,
        delivery=(DeliveryConfig(mode=AT_LEAST_ONCE)
                  if workload.at_least_once else None),
        batching=(BatchConfig(*workload.batch) if workload.batch else None))


class Swarm:
    """Master ``A`` plus the workload's workers, on the chosen fabric."""

    def __init__(self, job: Job, service: Optional[Dict[str, float]] = None,
                 wrap_fabric: Optional[Callable[[Fabric], Fabric]] = None
                 ) -> None:
        workload = job.workload
        self.job = job
        self.registry = MetricsRegistry()
        service = workload.workers if service is None else service
        graph = build_graph(job, service)
        config = policy_config(workload, job.seed)
        ids = [MASTER_ID] + sorted(workload.workers)
        wrap = wrap_fabric or (lambda fabric: fabric)
        if workload.fabric == "tcp":
            raw = {i: TcpFabric(i, registry=self.registry) for i in ids}
            for fabric in raw.values():
                for other_id, other in raw.items():
                    if other is not fabric:
                        fabric.learn(other_id, other.address)
            self.fabrics: Dict[str, Fabric] = {i: wrap(f)
                                               for i, f in raw.items()}
        else:
            shared = wrap(InProcFabric(registry=self.registry))
            self.fabrics = {i: shared for i in ids}
        self.master = Master(
            MASTER_ID, self.fabrics[MASTER_ID], graph, policy="LRS",
            source_rate=0, seed=job.seed, control_interval=CONTROL_INTERVAL,
            registry=self.registry, delivery=config.delivery,
            policy_config=config)
        self.workers: Dict[str, WorkerRuntime] = {
            i: WorkerRuntime(i, self.fabrics[i], graph, policy="LRS",
                             seed=job.seed, control_interval=CONTROL_INTERVAL,
                             policy_config=config, registry=self.registry,
                             delivery=config.delivery)
            for i in ids[1:]}

    def runtimes(self) -> List[WorkerRuntime]:
        return [self.master.runtime] + list(self.workers.values())

    # -- lifecycle (the steps the set-up probe times one by one) -----------
    def join(self, timeout: float = 10.0) -> None:
        self.master.runtime.start()
        for worker in self.workers.values():
            worker.start()
            worker.join_master(MASTER_ID)
        deadline = clock() + timeout
        while set(self.workers) - set(self.master.worker_ids):
            if clock() > deadline:
                raise RuntimeError("workers never joined")
            time.sleep(0.001)

    def deploy(self, timeout: float = 10.0) -> None:
        self.master.deploy()
        for runtime in self.runtimes():
            if not runtime.deployed.wait(timeout):
                raise RuntimeError("deployment timed out on %s"
                                   % runtime.worker_id)

    def start(self) -> None:
        self.join()
        self.deploy()
        self.master.start()

    def idle(self) -> bool:
        """No message is queued in any mailbox."""
        return all(len(runtime.mailbox) == 0 for runtime in self.runtimes())

    def stop(self) -> None:
        self.job.schedule.stop()
        self.master.stop()
        for worker in self.workers.values():
            worker.stop()
        self.master.runtime.stop()
        for fabric in set(self.fabrics.values()):
            fabric.close()
