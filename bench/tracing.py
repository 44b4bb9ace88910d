"""Bench-side tracing for ``--trace 1``: wrappers around the calls into
each layer, nothing inside ``repro``.

* :class:`TimingFabric` decorates the fabric: one record per send (kind,
  seqs, start, end, payload bytes);
* the bench's own units report when ``f`` ran each tuple and when the
  generator handed each tuple to the runtime;
* ``Mailbox.get`` is wrapped per instance to split each runtime loop's
  time into waiting and busy;
* per-thread CPU clocks, ``Mailbox.max_depth``, ``processed_count``, the
  registry's counters and its ack-RTT / batch-size histograms are read at
  the round boundaries.

Spans are keyed by tuple ``seq``, kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List, Tuple

from repro import metrics as metrics_mod
from repro.runtime import messages
from repro.runtime.fabric import Fabric

import calibrate
from workloads import MASTER_ID, Workload

perf = time.monotonic  # the clock the units and the runtime stamp with
#: tuples whose spans are written to the trace file (the last ones traced)
TRACE_FILE_TUPLES = 2000
_DATA_KINDS = (messages.DATA, messages.BATCH)
THREAD_CLASSES = ("source", "master_loop", "workers", "tcp_readers", "other")


class TimingFabric(Fabric):
    """Times every ``send`` through the fabric it decorates.

    A record is ``(kind, seqs, edge, sender, start, end, payload bytes)``;
    the message itself is not kept (a 6 kB pad per record would not fit).
    """

    def __init__(self, inner: Fabric, sends: list) -> None:
        self._inner = inner
        self._sends = sends

    def register(self, endpoint_id: str):
        return self._inner.register(endpoint_id)

    def unregister(self, endpoint_id: str) -> None:
        self._inner.unregister(endpoint_id)

    def send(self, sender_id: str, target_id: str, message) -> None:
        started = perf()
        try:
            self._inner.send(sender_id, target_id, message)
        finally:
            ended = perf()
            payload = message.payload
            kind = message.kind
            if kind == messages.DATA:
                seqs, size = (payload["seq"],), len(payload["tuple"])
            elif kind == messages.BATCH:
                seqs, size = payload["seqs"], len(payload["batch"])
            elif kind == messages.ACK:
                seqs, size = (payload["seq"],), 0
            else:
                seqs, size = (), 0
            self._sends.append((kind, seqs, payload.get("edge", ""),
                                sender_id, started, ended, size))

    def close(self) -> None:
        self._inner.close()


def thread_class(name: str) -> str:
    if name.startswith("source:"):
        return "source"
    if name == "worker:%s" % MASTER_ID:
        return "master_loop"
    if name.startswith("worker:"):
        return "workers"
    if name.startswith("fabric-read:"):
        return "tcp_readers"
    return "other"


def thread_cpu() -> Dict[str, float]:
    """CPU seconds of every live Python thread, summed by class."""
    totals = dict.fromkeys(THREAD_CLASSES, 0.0)
    for name, used in calibrate.thread_cpu().items():
        totals[thread_class(name)] += used
    return totals


class Tracer:
    """Collects the traced phase's records and turns them into metrics."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.sends: list = []
        #: seq -> (worker, started, ended) of f.process_data
        self.units: Dict[int, Tuple[str, float, float]] = {}
        #: (seq, generate() entered, generate() returned): the runtime's
        #: emit of tuple k runs from returned[k] to entered[k + 1]
        self.emits: List[Tuple[int, float, float]] = []
        #: seq -> (stamp, arrival) for checked deliveries
        self.deliveries: Dict[int, Tuple[float, float]] = {}
        #: owner -> (start, end) of every blocking ``Mailbox.get``
        self._waits: Dict[str, List[Tuple[float, float]]] = {}
        #: (first stamp, last delivery) of every traced round
        self._windows: List[Tuple[float, float]] = []
        self._phase = None
        self._mark: dict = {}
        self.cpu = dict.fromkeys(THREAD_CLASSES, 0.0)
        self.process_cpu = 0.0
        self.wall = 0.0
        self.tuples = 0
        self.budget: dict = {}
        self._final: dict = {}

    # -- wiring ------------------------------------------------------------
    def wrap_fabric(self, fabric: Fabric) -> Fabric:
        return TimingFabric(fabric, self.sends)

    def attach(self, phase) -> None:
        """Install the unit hooks and the per-mailbox wait timers."""
        self._phase = phase
        job = phase.job
        job.on_unit = self._on_unit
        job.on_emit = self.emits.append
        for runtime in phase.swarm.runtimes():
            self._time_mailbox(runtime.worker_id, runtime.mailbox)

    def _on_unit(self, worker: str, seq: int, started: float,
                 ended: float) -> None:
        self.units[seq] = (worker, started, ended)

    def _time_mailbox(self, owner: str, mailbox) -> None:
        waits = self._waits.setdefault(owner, [])
        inner = mailbox.get

        def get(timeout=None):
            started = perf()
            try:
                return inner(timeout=timeout)
            finally:
                waits.append((started, perf()))
        mailbox.get = get

    # -- round boundaries --------------------------------------------------
    def round_begin(self) -> None:
        self._mark = {
            "cpu": thread_cpu(), "process": time.process_time(),
        }

    def round_end(self, result: dict) -> None:
        mark = self._mark
        now = thread_cpu()
        for name in THREAD_CLASSES:
            self.cpu[name] += now[name] - mark["cpu"][name]
        self.process_cpu += time.process_time() - mark["process"]
        self.wall += result["raw_round_s"]
        self._windows.append((result["first_stamp"],
                              result["first_stamp"] + result["raw_round_s"]))
        self.tuples += result["tuples"]

    def deliveries_of(self, emitted, arrivals) -> None:
        """Remember when each checked tuple was stamped and delivered."""
        stamps = {e.seq: e.stamp for e in emitted}
        for arrival in arrivals:
            self.deliveries[arrival.seq] = (stamps[arrival.seq], arrival.at)

    def collect(self) -> None:
        """Read the counters that live inside the swarm, before it stops."""
        swarm = self._phase.swarm
        registry = swarm.registry
        totals: Dict[str, int] = {}
        for counter in registry.counters():
            totals[counter.name] = totals.get(counter.name, 0) + counter.value
        rtt = [h for h in registry.histograms()
               if h.name == metrics_mod.ACK_RTT_SECONDS and h.count]
        sizes = [h for h in registry.histograms()
                 if h.name == metrics_mod.BATCH_SIZE and h.count]
        processed = {i: w.processed_count for i, w in swarm.workers.items()}
        decisions = [len(decision.selected) for _at, decision in
                     swarm.master.runtime.dispatcher("src").controller
                     .decisions]
        self._final = {
            "counters": totals,
            "ack_rtt_s": (sum(h.total for h in rtt)
                          / sum(h.count for h in rtt)) if rtt else 0.0,
            "batch_mean": (sum(h.total for h in sizes)
                           / sum(h.count for h in sizes)) if sizes else 1.0,
            "processed": processed,
            "selected": decisions,
            "depth_workers": max(w.mailbox.max_depth
                                 for w in swarm.workers.values()),
            "depth_master": swarm.master.runtime.mailbox.max_depth,
        }

    # -- results -----------------------------------------------------------
    def _spans(self) -> Dict[str, List[float]]:
        """Per-tuple span durations (seconds) along the path of a tuple."""
        spans: Dict[str, List[float]] = {
            "source_emit": [], "fabric_send": [], "send_to_unit": [],
            "unit": [], "unit_to_sink": []}
        traced = self.deliveries
        for index in range(len(self.emits) - 1):
            seq, _entered, returned = self.emits[index]
            next_seq, next_entered, _ = self.emits[index + 1]
            if seq in traced and next_seq in traced:
                spans["source_emit"].append(next_entered - returned)
        for kind, seqs, edge, _sender, started, ended, _size in self.sends:
            spans["fabric_send"].append(ended - started)
            if kind not in _DATA_KINDS or not edge.startswith("src>"):
                continue
            for seq in seqs:
                unit = self.units.get(seq)
                if unit is not None and seq in traced:
                    spans["send_to_unit"].append(unit[1] - started)
        for seq, (_stamp, arrival) in traced.items():
            unit = self.units.get(seq)
            if unit is not None:
                spans["unit"].append(unit[2] - unit[1])
                spans["unit_to_sink"].append(arrival - unit[2])
        return spans

    def _busy_fractions(self) -> Dict[str, float]:
        """Per runtime loop: share of the traced rounds' time (first stamp
        to last delivery) not spent blocked in ``Mailbox.get``."""
        busy = {}
        for owner, waits in self._waits.items():
            waited = 0.0
            index = 0
            for begin, end in self._windows:
                while index < len(waits) and waits[index][1] <= begin:
                    index += 1
                scan = index
                while scan < len(waits) and waits[scan][0] < end:
                    waited += (min(end, waits[scan][1])
                               - max(begin, waits[scan][0]))
                    scan += 1
            busy[owner] = 1.0 - waited / self.wall if self.wall else 0.0
        return busy

    def metrics(self) -> Dict[str, float]:
        tuples = max(1, self.tuples)
        final = self._final
        out: Dict[str, float] = {}
        out["process.cpu_us_per_tuple"] = 1e6 * self.process_cpu / tuples
        attributed = 0.0
        for name in THREAD_CLASSES:
            out["thread.cpu_us_per_tuple.%s" % name] = \
                1e6 * self.cpu[name] / tuples
            attributed += self.cpu[name]
        out["budget.unattributed_frac"] = \
            abs(1.0 - attributed / self.process_cpu) if self.process_cpu \
            else 0.0
        spans = self._spans()
        for name, values in spans.items():
            out["span.%s_us" % name] = \
                1e6 * statistics.fmean(values) if values else 0.0
        out["span.ack_rtt_us"] = 1e6 * final["ack_rtt_s"]
        # sends and bytes are counted over the whole traced phase, warm-up
        # included, so they are divided by every tuple that phase carried
        carried = max(1, self._phase.attempted)
        data_bytes = sum(record[6] for record in self.sends)
        data_plane = sum(1 for record in self.sends if record[1])
        out["fabric.sends_per_tuple"] = data_plane / carried
        out["fabric.bytes_per_tuple"] = data_bytes / carried
        limit = self.workload.batch[0] if self.workload.batch else 1
        out["batch.fill_frac"] = final["batch_mean"] / limit
        out["mailbox.max_depth.workers"] = final["depth_workers"]
        out["mailbox.max_depth.master"] = final["depth_master"]
        busy = self._busy_fractions()
        out["worker.busy_frac.max"] = max(busy.values()) if busy else 0.0
        processed = final["processed"]
        fastest = min(processed, key=lambda i: (self.workload.workers[i],
                                                -processed[i]))
        out["routing.share_fastest"] = \
            processed[fastest] / max(1, sum(processed.values()))
        out["routing.selected_mean"] = \
            statistics.fmean(final["selected"]) if final["selected"] else 0.0
        counters = final["counters"]
        out["counters.shed"] = counters.get(metrics_mod.SHED_TOTAL, 0)
        out["counters.dropped"] = counters.get(metrics_mod.DROPPED_TOTAL, 0)
        out["counters.redelivered"] = \
            counters.get(metrics_mod.REDELIVERED_TOTAL, 0)
        out["counters.deduped"] = counters.get(metrics_mod.DEDUPED_TOTAL, 0)
        out["gen.offered_per_s"] = self.tuples / self.wall if self.wall else 0
        self.budget = {
            "tuples": self.tuples, "wall_s": self.wall,
            "process_cpu_s": self.process_cpu, "thread_cpu_s": dict(self.cpu),
            "busy_frac": busy, "processed": processed,
            "span_means_us": {k: out["span.%s_us" % k] for k in spans},
        }
        return out

    def write(self, directory: str, seed: int) -> str:
        """Write the kept spans and the budget; returns the file's path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "%s-seed%d.json"
                            % (self.workload.name, seed))
        keep = sorted(self.deliveries)[-TRACE_FILE_TUPLES:]
        kept = set(keep)
        sends: Dict[int, list] = {}
        for kind, seqs, edge, sender, started, ended, _size in self.sends:
            if seqs and seqs[0] in kept:
                sends.setdefault(seqs[0], []).append({
                    "name": "fabric.send", "kind": kind, "from": sender,
                    "edge": edge, "tuples": len(seqs),
                    "start": started, "end": ended})
        rows = []
        for seq in keep:
            stamp, arrival = self.deliveries[seq]
            row = {"seq": seq, "stamp": stamp, "sink": arrival,
                   "spans": sends.get(seq, [])}
            unit = self.units.get(seq)
            if unit is not None:
                row["spans"].append({"name": "unit", "worker": unit[0],
                                     "start": unit[1], "end": unit[2]})
            rows.append(row)
        with open(path, "w") as handle:
            json.dump({"workload": self.workload.name, "seed": seed,
                       "budget": self.budget, "tuples": rows}, handle)
        return path
