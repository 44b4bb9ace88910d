"""Chaos tooling: link-level fault injection + the churn harness.

Two layers share this module:

:class:`ChaosFabric`
    A wrapper over any :class:`~repro.runtime.fabric.Fabric` that
    injects seeded drop / delay / duplicate / corrupt / partition
    faults per *directed* link.  Determinism matters more than realism
    here: each link owns a private RNG seeded from a CRC of its
    ``sender>target`` name (never ``hash()``, which moves under
    ``PYTHONHASHSEED``), so a seed reproduces the same fault story
    regardless of thread interleaving on other links.

:class:`ChurnHarness`
    Replays a :class:`~repro.core.faults.FaultSchedule` — the same
    object the simulator consumes — against a live
    :class:`SwingRuntime`, through one action → handler table
    (:attr:`ChurnHarness.FAULT_HANDLERS`); link partitions and chaos
    windows need the runtime's fabric to be a :class:`ChaosFabric`.

Because both substrates consume the schedule identically, a seeded
churn trace produces the same membership timeline in simulation and on
the live runtime — the parity the churn integration tests assert.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import metrics as metrics_mod
from repro.core import faults
from repro.core.exceptions import RuntimeStateError, SerializationError
from repro.core.faults import FaultEvent, FaultSchedule
from repro.runtime.app_runner import SwingRuntime
from repro.runtime.channels import ChannelClosed
from repro.runtime.fabric import SEND_ERRORS, Fabric, Mailbox
from repro.runtime.messages import BATCH, Message
from repro.runtime.serialization import decode_batch


@dataclass(frozen=True)
class LinkChaos:
    """Fault probabilities of one directed link (all default to off).

    ``drop`` / ``duplicate`` / ``corrupt`` / ``delay`` are independent
    per-send probabilities; ``delay_seconds`` is how long a delayed
    frame is held before delivery.  A corrupted frame has one random
    bit flipped in its encoding — when the hardened codec rejects the
    mangled frame it is lost at the transport (counted), otherwise the
    mangled-but-decodable message is delivered as-is.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise RuntimeStateError("%s must be a probability" % name)
        if self.delay_seconds < 0:
            raise RuntimeStateError("delay_seconds must be >= 0")

    @property
    def active(self) -> bool:
        return bool(self.drop or self.duplicate or self.corrupt
                    or self.delay)


class ChaosFabric(Fabric):
    """Deterministic link-fault injection over any inner fabric.

    Faults are configured per directed link (:meth:`set_link`) on top
    of an optional default applied to every link; partitions are
    imposed and lifted at runtime (:meth:`partition` / :meth:`heal`).
    Injected losses are counted into
    ``swing_frames_dropped_total{reason=chaos_*, link=...}`` — chaos is
    observable, never silent — and non-loss injections (duplicates,
    delays) are tallied in :attr:`injected`.
    """

    def __init__(self, inner: Fabric, seed: int = 0,
                 default: Optional[LinkChaos] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None
                 ) -> None:
        self.inner = inner
        self.seed = seed
        self._default = default if default is not None else LinkChaos()
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        self._lock = threading.Lock()
        self._links: Dict[Tuple[str, str], LinkChaos] = {}
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        self._partitioned: Set[Tuple[str, str]] = set()
        #: injected-event tallies keyed by (reason, "sender>target")
        self.injected: Dict[Tuple[str, str], int] = {}
        self._timers: List[threading.Timer] = []

    # -- configuration ---------------------------------------------------
    def set_link(self, sender_id: str, target_id: str,
                 chaos: LinkChaos) -> None:
        """Override the fault profile of one directed link."""
        with self._lock:
            self._links[(sender_id, target_id)] = chaos

    def partition(self, sender_id: str, target_id: str,
                  symmetric: bool = True) -> None:
        """Sever a link: sends raise :class:`ChannelClosed` until healed."""
        with self._lock:
            self._partitioned.add((sender_id, target_id))
            if symmetric:
                self._partitioned.add((target_id, sender_id))

    def heal(self, sender_id: str, target_id: str,
             symmetric: bool = True) -> None:
        with self._lock:
            self._partitioned.discard((sender_id, target_id))
            if symmetric:
                self._partitioned.discard((target_id, sender_id))

    def partitioned_links(self) -> List[Tuple[str, str]]:
        with self._lock:
            return sorted(self._partitioned)

    # -- fabric API ------------------------------------------------------
    def register(self, endpoint_id: str) -> Mailbox:
        return self.inner.register(endpoint_id)

    def unregister(self, endpoint_id: str) -> None:
        self.inner.unregister(endpoint_id)

    def close(self) -> None:
        with self._lock:
            timers = list(self._timers)
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        self.inner.close()

    def send(self, sender_id: str, target_id: str, message: Message) -> None:
        link = (sender_id, target_id)
        with self._lock:
            severed = link in self._partitioned
            chaos = self._links.get(link, self._default)
            rng = (self._rng_locked(link)
                   if chaos.active and not severed else None)
            rolls = {}
            if rng is not None:
                # One locked pass draws every roll, so concurrent sends
                # on other links cannot perturb this link's fault story.
                for name in ("drop", "duplicate", "corrupt", "delay"):
                    probability = getattr(chaos, name)
                    rolls[name] = (probability > 0.0
                                   and rng.random() < probability)
                if rolls.get("corrupt"):
                    rolls["corrupt_at"] = rng.randrange(1 << 30)
        if severed:
            self._count_loss("chaos_partition", link)
            raise ChannelClosed("link %s>%s partitioned" % link)
        if not rolls:
            self.inner.send(sender_id, target_id, message)
            return
        if rolls.get("drop"):
            self._count_loss("chaos_drop", link)
            return  # silent loss: the sender believes it went out
        if rolls.get("corrupt"):
            message = self._corrupt(message, rolls["corrupt_at"])
            if message is None:
                self._count_loss("chaos_corrupt", link)
                return  # the codec rejected the mangled frame
            self._count_injection("chaos_corrupt", link)
        if rolls.get("delay"):
            self._count_injection("chaos_delay", link)
            timer = threading.Timer(
                chaos.delay_seconds, self._deliver_late,
                args=(sender_id, target_id, message))
            timer.daemon = True
            with self._lock:
                self._timers = [t for t in self._timers if t.is_alive()]
                self._timers.append(timer)
            timer.start()
            return
        self.inner.send(sender_id, target_id, message)
        if rolls.get("duplicate"):
            self._count_injection("chaos_duplicate", link)
            try:
                self.inner.send(sender_id, target_id, message)
            except ChannelClosed:
                pass  # the duplicate raced an endpoint teardown

    # -- internals -------------------------------------------------------
    def _rng_locked(self, link: Tuple[str, str]) -> random.Random:
        rng = self._rngs.get(link)
        if rng is None:
            # CRC-derived, not hash(): stable across processes and
            # PYTHONHASHSEED, so one seed = one reproducible story.
            rng = random.Random(
                zlib.crc32(("%s>%s" % link).encode("utf-8")) ^ self.seed)
            self._rngs[link] = rng
        return rng

    @staticmethod
    def _corrupt(message: Message, entropy: int) -> Optional[Message]:
        frame = bytearray(message.encode())
        if not frame:
            return None
        index = entropy % len(frame)
        frame[index] ^= 1 << ((entropy >> 8) % 8)
        try:
            mangled = Message.decode(bytes(frame))
        except SerializationError:
            return None
        if mangled.kind == BATCH:
            # The outer codec treats the nested batch frame as an opaque
            # byte string, so a flip inside it survives Message.decode.
            # Validate the inner framing here too: a corrupted batch is
            # dropped loudly at the fabric (chaos_corrupt), never handed
            # downstream to be partially decoded.
            try:
                decode_batch(mangled.payload["batch"], zero_copy=False)
            except (KeyError, TypeError, SerializationError):
                return None
        return mangled

    def _deliver_late(self, sender_id: str, target_id: str,
                      message: Message) -> None:
        try:
            self.inner.send(sender_id, target_id, message)
        except SEND_ERRORS:
            # The target vanished while the frame was held: the sender
            # saw it leave, so this is where it is lost.
            self._count_loss("chaos_delay_lost", (sender_id, target_id))

    def _count_loss(self, reason: str, link: Tuple[str, str]) -> None:
        self._registry.increment(metrics_mod.DROPPED_TOTAL, reason=reason,
                                 link="%s>%s" % link)
        self._count_injection(reason, link)

    def _count_injection(self, reason: str, link: Tuple[str, str]) -> None:
        key = (reason, "%s>%s" % link)
        with self._lock:
            self.injected[key] = self.injected.get(key, 0) + 1


#: the link profile a message-chaos window of intensity *value* imposes
#: (a delay window holds every frame, for *value* compressed like the
#: rest of the timeline)
_LINK_CHAOS = {
    faults.CHAOS_DROP: lambda value, scale: LinkChaos(drop=value),
    faults.CHAOS_DELAY: lambda value, scale: LinkChaos(
        delay=1.0, delay_seconds=value * scale),
    faults.CHAOS_DUPLICATE: lambda value, scale: LinkChaos(duplicate=value),
    faults.CHAOS_CORRUPT: lambda value, scale: LinkChaos(corrupt=value),
}


class ChurnHarness:
    """Applies one fault schedule to a started :class:`SwingRuntime`.

    *time_scale* stretches (>1) or compresses (<1) the schedule's event
    times — soak tests compress a long simulated schedule into a short
    wall-clock run.  Steps are applied strictly in schedule order, a
    window as two steps (impose at its start, lift at its end); a drain
    blocks until the leaver is empty, which is the point (the next
    step must observe the post-drain swarm, as it would on the engine).
    """

    def __init__(self, runtime: SwingRuntime, schedule: FaultSchedule,
                 time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise RuntimeStateError("time scale must be positive")
        self.runtime = runtime
        self.schedule = schedule
        self.time_scale = time_scale
        #: (event, wall-clock offset it actually fired at) — in order; a
        #: window appears twice, imposed and lifted
        self.applied: List[Tuple[FaultEvent, float]] = []
        #: measured drain duration per gracefully departed worker
        self.drain_seconds: Dict[str, float] = {}
        self._steps: List[Tuple[float, Callable[[FaultEvent], None],
                                FaultEvent]] = []
        for event in schedule:
            if event.action not in self.FAULT_HANDLERS:
                continue  # the caller reports schedule.unapplied(...)
            if event.action in faults.LINK_ACTIONS:
                # Only a ChaosFabric can impose these, on an explicit link.
                if not isinstance(runtime.fabric, ChaosFabric):
                    raise RuntimeStateError(
                        "fabric %r cannot impose %s; wrap it in a "
                        "ChaosFabric" % (type(runtime.fabric).__name__,
                                         event.action))
                faults.split_link(event.target)  # explicit links only
            self._steps.append((event.time, self._apply, event))
            if event.duration:
                self._steps.append((event.end, self._lift, event))
        self._steps.sort(key=lambda step: step[0])

    def run(self, deadline: Optional[float] = None) -> None:
        """Blockingly replay the schedule against the running swarm."""
        started = time.monotonic()
        for when, step, event in self._steps:
            target = started + when * self.time_scale
            if deadline is not None and target > started + deadline:
                break
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            step(event)
            self.applied.append((event, time.monotonic() - started))

    def _apply(self, event: FaultEvent) -> None:
        self.FAULT_HANDLERS[event.action](self, event)

    def _drain(self, event: FaultEvent) -> None:
        self.drain_seconds[event.target] = self.runtime.drain_worker(
            event.target)

    def _impose(self, event: FaultEvent) -> None:
        """Open a message-chaos window on the event's directed link."""
        self.runtime.fabric.set_link(
            *faults.split_link(event.target),
            _LINK_CHAOS[event.action](event.value, self.time_scale))

    def _lift(self, event: FaultEvent) -> None:
        self.runtime.fabric.set_link(*faults.split_link(event.target),
                                     LinkChaos())

    #: action → handler: the single statement of what this substrate
    #: applies.  A schedule's remaining actions (``disconnect`` — an
    #: in-process endpoint has no connection to break — and the
    #: CPU-model ``load_burst``) are reported by
    #: ``FaultSchedule.unapplied``, never skipped silently.
    FAULT_HANDLERS = {
        faults.KILL: lambda self, event: self.runtime.crash_worker(
            event.target),
        faults.LEAVE: _drain,
        faults.JOIN: lambda self, event: self.runtime.spawn_worker(
            event.target),
        faults.REJOIN: lambda self, event: self.runtime.spawn_worker(
            event.target),
        faults.KILL_MASTER: lambda self, event: self.runtime.crash_master(),
        faults.RESTART_MASTER: lambda self, event:
            self.runtime.restart_master(),
        faults.PARTITION: lambda self, event: self.runtime.fabric.partition(
            *faults.split_link(event.target)),
        faults.HEAL: lambda self, event: self.runtime.fabric.heal(
            *faults.split_link(event.target)),
        **dict.fromkeys(_LINK_CHAOS, _impose),
    }

