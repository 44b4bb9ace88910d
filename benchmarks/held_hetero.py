"""Held vs unheld results on an edge with two unequal downstreams.

A worker's loop thread holds the result tuples of an unbatched edge and
sends one frame per chosen downstream at each flush (DESIGN.md §15).  A
held frame yields one L_i sample, and its size follows the share LRS
gives that downstream; this script measures what that does to the
shares and to end-to-end latency.  The pipeline is

    feeder -> g@D (pass-through) -> f@B (1 ms) | f@C (3 ms) -> snk@A

with service times jittered by +-25 %, LRS at ``control_interval=0.25``,
1 kB tuples fed to D in bursts at a fixed rate, on the in-process
fabric.  Each seed runs once held and once with holding turned off
(every other line of the runtime is the same).  The first 20 % of each
run's tuples are discarded as warm-up.

Run from the repository root::

    PYTHONPATH=src python benchmarks/held_hetero.py SECONDS RATE BURST SEED...

One line per (seed, arm): the fast downstream's share, p50/p95 latency,
and the frames D sent per tuple.
"""

import random
import sys
import threading
import time

from repro import metrics as metrics_mod
from repro.core.controller import PolicyConfig
from repro.core.function_unit import FunctionUnit, IterableSource, SinkUnit
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime import messages
from repro.runtime.fabric import InProcFabric
from repro.runtime.serialization import encode_tuple
from repro.runtime.worker import WorkerRuntime

SERVICE = {"B": 0.001, "C": 0.003}
JITTER = 0.25
PAD = bytes(1000)


class Pass(FunctionUnit):
    def process_data(self, data):
        self.send(data.derive(dict(data.values)))


class Work(FunctionUnit):
    """Sleeps its worker's service time and stamps the worker."""

    def on_start(self):
        self.worker = self.context.instance_id.partition("@")[2]
        self.rng = random.Random(self.worker)

    def process_data(self, data):
        time.sleep(SERVICE[self.worker]
                   * (1.0 - JITTER + 2.0 * JITTER * self.rng.random()))
        values = dict(data.values)
        values["w"] = self.worker
        self.send(data.derive(values))


class Sink(SinkUnit):
    def __init__(self, out):
        super().__init__()
        self.out = out

    def process_data(self, data):
        self.out.append((data.seq, time.monotonic() - data.created_at,
                         data.values["w"]))


class UnheldWorker(WorkerRuntime):
    """The same runtime with result tuples never held."""

    def _hold(self, dispatcher):
        return False


class CountingFabric(InProcFabric):
    """Counts the result frames D writes, whatever their size."""

    def __init__(self):
        super().__init__()
        self.frames = 0

    def _count(self, sender_id, burst):
        if sender_id == "D":
            self.frames += sum(1 for message in burst
                               if message.kind != messages.ACK)

    def send(self, sender_id, target_id, message):
        self._count(sender_id, [message])
        super().send(sender_id, target_id, message)

    def send_many(self, sender_id, target_id, burst):
        self._count(sender_id, burst)
        super().send_many(sender_id, target_id, burst)


def run(seconds, rate, burst, seed, held):
    out = []
    graph = (GraphBuilder("held_hetero")
             .source("src", lambda: IterableSource([]))
             .unit("g", Pass)
             .unit("f", Work)
             .sink("snk", lambda: Sink(out))
             .chain("src", "g", "f", "snk")
             .build())
    fabric = CountingFabric()
    inbox = fabric.register("S")
    config = PolicyConfig(policy="LRS", seed=seed, control_interval=0.25)
    runtime = WorkerRuntime if held else UnheldWorker
    workers = [runtime(worker_id, fabric, graph, policy="LRS", seed=seed,
                       control_interval=0.25, policy_config=config,
                       registry=metrics_mod.MetricsRegistry())
               for worker_id in "ABCD"]
    fabric.send("S", "A", messages.deploy_message("A", ["snk"], {}))
    for worker_id in "BC":
        fabric.send("S", worker_id, messages.deploy_message(
            worker_id, ["f"], {"f>snk": ["snk@A"]}))
    fabric.send("S", "D", messages.deploy_message(
        "D", ["g"], {"g>f": ["f@B", "f@C"]}))
    stop = threading.Event()

    def drain_acks():
        while not stop.is_set():
            try:
                inbox.get(timeout=0.1)
            except TimeoutError:
                pass

    drainer = threading.Thread(target=drain_acks, daemon=True)
    drainer.start()
    for worker in workers:
        worker.start()
    seq = 0
    start = next_burst = time.monotonic()
    while time.monotonic() - start < seconds:
        for _ in range(burst):
            now = time.monotonic()
            message = messages.data_message("g", encode_tuple(DataTuple(
                values={"x": seq, "pad": PAD}, seq=seq, created_at=now)),
                seq, now)
            message.payload["edge"] = "src>g"
            fabric.send("S", "D", message)
            seq += 1
        next_burst += burst / rate
        time.sleep(max(0.0, next_burst - time.monotonic()))
    time.sleep(1.0)
    stop.set()
    for worker in workers:
        worker.stop()
    drainer.join()
    kept = [row for row in out if row[0] >= seq // 5]
    latencies = sorted(row[1] * 1000.0 for row in kept)

    def quantile(q):
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {"sent": seq, "got": len(out),
            "share_fast": sum(row[2] == "B" for row in kept) / len(kept),
            "p50": quantile(0.5), "p95": quantile(0.95),
            "frames_per_tuple": fabric.frames / seq}


def main(argv):
    seconds, rate, burst = float(argv[0]), float(argv[1]), int(argv[2])
    for seed in map(int, argv[3:]):
        for held in (True, False):
            row = run(seconds, rate, burst, seed, held)
            print("rate %4g burst %2d seed %d %-6s sent %5d got %5d "
                  "share_B %.3f p50 %6.2f ms p95 %6.2f ms "
                  "D frames/tuple %.2f"
                  % (rate, burst, seed, "held" if held else "unheld",
                     row["sent"], row["got"], row["share_fast"], row["p50"],
                     row["p95"], row["frames_per_tuple"]), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
