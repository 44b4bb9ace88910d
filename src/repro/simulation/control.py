"""Engine-side adapter for the shared LRS control plane.

The simulator drives the same :class:`~repro.core.controller.LrsController`
as the live runtime; only the three ports differ.  On the discrete-event
engine the Clock is ``sim.now`` and the Egress always succeeds
instantly: a send in the simulator is a fire-and-forget handoff to the
network model, and failure only ever manifests later as loss (an
expired in-flight entry), exactly like a silent device departure in the
paper's testbed.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro import metrics as metrics_mod
from repro.core.batching import BatchConfig
from repro.core.controller import LrsController, PolicyConfig
from repro.simulation.engine import Simulator, Store
from repro.trace import TraceSink


class EngineEgress:
    """Egress port on the engine: every send succeeds at ``sim.now``.

    Delivery, loss, and delay are modeled downstream of the controller
    by the network/device processes, so the controller never observes a
    synchronous send failure here — dead-marking happens through the
    tracker's loss accounting instead.  A first send is only booked: the
    hosting source process transmits the frame the controller routed.
    A redelivery has no such process behind it, so *on_air*, when given,
    puts the replayed frame on the air: ``on_air(downstream_id, seq,
    context)``.
    """

    def __init__(self, sim: Simulator,
                 on_air: Optional[Callable[[str, int, object], None]] = None
                 ) -> None:
        self._sim = sim
        self._on_air = on_air

    def send(self, downstream_id: str, seq: int, context: Optional[object],
             attempt: int) -> float:
        if attempt > 1 and self._on_air is not None:
            self._on_air(downstream_id, seq, context)
        return self._sim.now


def engine_controller(
        sim: Simulator, config: PolicyConfig,
        registry: Optional[metrics_mod.MetricsRegistry] = None,
        name: str = "",
        trace: Optional[TraceSink] = None,
        egress: Optional[EngineEgress] = None,
        tenant: str = "",
) -> LrsController:
    """Build an :class:`LrsController` wired to the engine's ports.

    *egress* defaults to an :class:`EngineEgress` that models no
    redelivery on the air.  *tenant* labels the controller's metrics and
    spans when a shared swarm runs several tenant pipelines.
    """
    return LrsController(config, clock=lambda: sim.now,
                         egress=egress if egress is not None
                         else EngineEgress(sim),
                         registry=registry, name=name, trace=trace,
                         tenant=tenant)


def spend(sim: Simulator, steps):
    """Spend a sans-IO step sequence (``repro.core.migration``: it yields
    the delays it wants to wait) on the engine clock; returns its result.
    ``Process.kill`` closes *steps* too, so its ``finally`` runs."""
    try:
        while True:
            yield sim.timeout(next(steps))
    except StopIteration as done:
        return done.value
    finally:
        steps.close()


def collect_batch(sim: Simulator, store: Store,
                  config: BatchConfig) -> List[object]:
    """Collect one flush worth of items from *store* (engine generator).

    The engine-side mirror of the runtime dispatcher's flush policy:
    block for the first item, drain greedily up to ``max_tuples``, and
    when the batch is still short wait once for ``max_delay`` before a
    final greedy drain — so a batch closes as soon as it fills, and no
    item ever waits longer than the flush delay.

    Consume it with ``items = yield from collect_batch(...)``.
    """
    first = yield store.get()
    items = [first]
    limit = config.max_tuples
    while len(items) < limit:
        extra = store.try_get()
        if extra is None:
            break
        items.append(extra)
    if len(items) < limit and config.max_delay > 0.0:
        yield sim.timeout(config.max_delay)
        while len(items) < limit:
            extra = store.try_get()
            if extra is None:
                break
            items.append(extra)
    return items
