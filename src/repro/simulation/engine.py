"""Discrete-event simulation engine.

A small process-based simulator in the style of SimPy: *processes* are
Python generators that yield :class:`Event` objects and are resumed when
those events fire.  The engine provides timeouts, FIFO stores with
capacity (queues with blocking put/get) and counted resources — enough to
model radios, sockets with backpressure, and device processors.

Implemented from scratch so the whole substrate is self-contained.
"""

from __future__ import annotations

import heapq
import itertools
from typing import (Any, Callable, Deque, Generator, List, Optional, Sequence,
                    Tuple)

from collections import deque

from repro.core import overload
from repro.core.admission import AdmissionQueue, Entry
from repro.core.exceptions import SimulationError


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("sim", "callbacks", "triggered", "value", "_label")

    def __init__(self, sim: "Simulator", label: str = "") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.value: Any = None
        self._label = label

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event now, resuming everything waiting on it."""
        if self.triggered:
            raise SimulationError("event %r triggered twice" % self._label)
        self.triggered = True
        self.value = value
        self.sim._queue_callbacks(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            self.sim._queue_immediate(callback, self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.triggered else "pending"
        return "<Event %s %s>" % (self._label or hex(id(self)), state)


class Process:
    """A running generator; itself an event that fires on completion."""

    def __init__(self, sim: "Simulator",
                 generator: Generator[Event, Any, None], name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self.completion = Event(sim, label="%s.done" % self.name)
        self.alive = True
        sim._queue_immediate(self._step, None)

    def _step(self, event: Optional[Event]) -> None:
        if not self.alive:
            return
        value = event.value if event is not None else None
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self.alive = False
            self.completion.succeed(getattr(stop, "value", None))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                "process %r yielded %r; processes must yield Event objects"
                % (self.name, target))
        target.add_callback(self._step)

    def kill(self) -> None:
        """Stop resuming this process.  Its generator is abandoned."""
        self.alive = False
        self._generator.close()


class Simulator:
    """Event loop: schedules timed events and runs processes."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._immediate: Deque[Tuple[Callable, Any]] = deque()

    @property
    def now(self) -> float:
        return self._now

    # -- primitives ------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run *fn()* after *delay* seconds of simulated time."""
        if delay < 0:
            raise SimulationError("cannot schedule into the past (delay=%r)" % delay)
        heapq.heappush(self._heap, (self._now + delay, next(self._counter), fn))

    def timeout(self, delay: float, value: Any = None) -> Event:
        """Event that fires *delay* seconds from now."""
        event = Event(self, label="timeout(%g)" % delay)
        self.schedule(delay, lambda: event.succeed(value))
        return event

    def event(self, label: str = "") -> Event:
        return Event(self, label=label)

    def process(self, generator: Generator[Event, Any, None],
                name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> Event:
        """Event firing once every event in *events* has fired."""
        gate = Event(self, label="all_of(%d)" % len(events))
        remaining = {"count": len(events)}
        if not events:
            gate.succeed([])
            return gate
        results: List[Any] = [None] * len(events)

        def _make(index: int):
            def _on_fire(event: Event) -> None:
                results[index] = event.value
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    gate.succeed(results)
            return _on_fire

        for index, event in enumerate(events):
            event.add_callback(_make(index))
        return gate

    # -- run loop --------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance simulated time to *until*, firing everything due."""
        if until < self._now:
            raise SimulationError("cannot run backwards to t=%r" % until)
        self._drain_immediate()
        while self._heap and self._heap[0][0] <= until:
            when, _seq, fn = heapq.heappop(self._heap)
            self._now = when
            fn()
            self._drain_immediate()
        self._now = until

    def run_all(self, limit: float = 1e9) -> None:
        """Run until no events remain (bounded by *limit* for safety)."""
        self._drain_immediate()
        while self._heap:
            when, _seq, fn = heapq.heappop(self._heap)
            if when > limit:
                self._now = limit
                return
            self._now = when
            fn()
            self._drain_immediate()

    # -- internals -------------------------------------------------------
    def _queue_callbacks(self, event: Event) -> None:
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            self._immediate.append((callback, event))

    def _queue_immediate(self, callback: Callable, event: Optional[Event]) -> None:
        self._immediate.append((callback, event))

    def _drain_immediate(self) -> None:
        while self._immediate:
            callback, event = self._immediate.popleft()
            callback(event)


class Store:
    """FIFO queue with optional capacity; put/get block via events.

    The contents live in an :class:`~repro.core.admission.AdmissionQueue`
    (``store.queue``), so a bounded store sheds exactly as a runtime
    mailbox does; the store adds the engine's way of waiting.  The
    default policy is the classic blocking store: :meth:`put` parks the
    producer until a get frees a slot, :meth:`try_put` refuses.  Every
    stored item weighs one tuple, so ``queue.depth`` is the store's length.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = "store",
                 drop_policy: str = overload.BLOCK) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError("store capacity must be >= 1 or None")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.queue = AdmissionQueue(capacity, drop_policy)
        #: high-water mark of the queue depth over the store's lifetime
        #: (bounded-memory invariant checks read this after a run)
        self.max_len = 0
        self._getters: Deque[Event] = deque()
        #: arrivals told to wait: (item, tenant, event to fire once stored)
        self._putters: Deque[Tuple[Any, str, Optional[Event]]] = deque()

    def __len__(self) -> int:
        return len(self.queue)

    def items(self) -> Tuple[Any, ...]:
        """Current contents, oldest first — stored items plus parked
        putters (end-of-run conservation audits walk these)."""
        return self.queue.items() + tuple(
            item for item, _tenant, _stored in self._putters)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and self.queue.depth >= self.capacity

    def offer(self, item: Any, tenant: str = "",
              stored: Optional[Event] = None) -> Sequence[Entry]:
        """Admit *item* per the queue's policy; returns the
        ``(item, tenant, tuples)`` entries shed — the one evicted to make
        room, or the arrival itself when refused.

        A waiting getter takes the item directly (it never queues); an
        arrival the queue tells to wait is parked until a get makes
        room.  *stored* fires once the item is stored or handed over.
        """
        shed: Sequence[Entry] = ()
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            action, shed = self.queue.offer(item, tenant)
            if action == overload.WAIT:
                self._putters.append((item, tenant, stored))
                return shed
            if self.queue.depth > self.max_len:
                self.max_len = self.queue.depth
        if stored is not None:
            stored.succeed()
        return shed

    def put(self, item: Any) -> Event:
        """Blocking put: the returned event fires once *item* is stored."""
        event = Event(self.sim, label="%s.put" % self.name)
        self.offer(item, stored=event)
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: False when the store is full."""
        if self.is_full:
            return False
        self.offer(item)
        return True

    def get(self) -> Event:
        """Blocking get: the returned event fires with the next item."""
        event = Event(self.sim, label="%s.get" % self.name)
        if self.queue.depth:
            event.succeed(self.try_get())
        else:
            self._getters.append(event)
        return event

    def try_get(self):
        """Non-blocking get: the next item, or ``None`` when empty."""
        if not self.queue.depth:
            return None
        item = self.queue.pop()
        if self._putters and not self.is_full:
            self.offer(*self._putters.popleft())
        return item

    def drain(self) -> List[Any]:
        """Remove and return all queued items (e.g. a device vanishing)."""
        items = self.queue.drain()
        while self._putters:
            item, _tenant, stored = self._putters.popleft()
            items.append(item)
            if stored is not None:
                stored.succeed()
        return items


class Resource:
    """Counted resource with FIFO acquisition (a semaphore)."""

    def __init__(self, sim: Simulator, capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def acquire(self) -> Event:
        event = Event(self.sim, label="%s.acquire" % self.name)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release of idle resource %r" % self.name)
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1
