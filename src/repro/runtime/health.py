"""The send gate of the threaded runtime.

The paper's Background Service keeps Swing serving through churn:
devices join, leave abruptly, and drop off weak links.  Its two
liveness jobs each have one rule, and neither lives here: an edge's
controller marks a downstream instance dead when a send to it fails or
its ACKs expire, and the master's pool evicts a worker whose heartbeats
stop.

:class:`HealthMonitor` only decides whether a send toward a peer is
worth attempting.  Each failed send opens a backoff window — doubling
with every consecutive failure up to ``max_backoff`` and jittered — in
which :meth:`HealthMonitor.should_attempt` refuses further sends, so a
dead link is not hammered with blocking connects.  Any success closes
the window.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.core.exceptions import RuntimeStateError


class HealthMonitor:
    """Per-peer backoff windows opened by failed sends."""

    def __init__(self, base_backoff: float = 0.1, max_backoff: float = 5.0,
                 jitter: float = 0.1,
                 rng: Optional[random.Random] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if base_backoff < 0 or max_backoff < base_backoff:
            raise RuntimeStateError("need 0 <= base_backoff <= max_backoff")
        if not 0.0 <= jitter < 1.0:
            raise RuntimeStateError("jitter must be in [0, 1)")
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        #: fractional randomization of each backoff window, so peers that
        #: failed together don't retry in lockstep (thundering herd)
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self._lock = threading.Lock()
        #: peer -> (time of its last failure, nominal backoff window);
        #: a peer with no open window has no entry
        self._windows: Dict[str, Tuple[float, float]] = {}

    def record_success(self, peer_id: str) -> None:
        """Close the peer's window: a send reached it.  A new incarnation
        of a peer (a rejoin, a recovered master) is closed the same way,
        so its predecessor's failure streak cannot gate it."""
        with self._lock:
            self._windows.pop(peer_id, None)

    def record_failure(self, peer_id: str) -> None:
        """A send toward the peer failed: open its window, or double it."""
        with self._lock:
            window = self._windows.get(peer_id)
            backoff = (self.base_backoff if window is None
                       else min(self.max_backoff, window[1] * 2.0))
            self._windows[peer_id] = (self._clock(), backoff)

    def should_attempt(self, peer_id: str) -> bool:
        """False while the peer sits inside its current backoff window."""
        with self._lock:
            window = self._windows.get(peer_id)
            if window is None:
                return True
            failed_at, backoff = window
            return self._clock() - failed_at >= backoff

    def backoff_for(self, peer_id: str) -> float:
        """Current backoff in seconds (0 when the window is closed).

        The nominal exponential window is scaled by a random factor in
        ``[1 - jitter, 1 + jitter]`` so a fleet of peers backing off
        from the same outage desynchronizes instead of hammering the
        recovered endpoint in lockstep.
        """
        with self._lock:
            window = self._windows.get(peer_id)
            backoff = window[1] if window is not None else 0.0
            if backoff <= 0.0 or self.jitter <= 0.0:
                return backoff
            return backoff * self._rng.uniform(1.0 - self.jitter,
                                               1.0 + self.jitter)
