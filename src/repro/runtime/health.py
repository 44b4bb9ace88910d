"""Peer health monitoring for the threaded runtime.

The paper's Background Service keeps Swing serving through churn: devices
join, leave abruptly, and drop off weak links.  :class:`HealthMonitor`
is the runtime's shared view of peer liveness, fed from three signals:

* **send outcomes** — the fabrics and dispatchers report every
  successful or failed send toward a peer;
* **heartbeats** — workers beacon the master; the master folds arrivals
  into the monitor and evicts peers whose beacons stop;
* **ACK age** — dispatchers report ACK arrivals, so a peer that accepts
  sends but never acknowledges still ages out.

Consecutive failures mark a peer dead after ``max_failures`` strikes,
and each failure opens an exponentially growing backoff window during
which :meth:`HealthMonitor.should_attempt` tells callers not to waste a
blocking connect on the peer.  Any success fully resets the peer — the
reconnect path starts fresh rather than inheriting a saturated backoff.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import metrics as metrics_mod
from repro.core.exceptions import RuntimeStateError


@dataclass
class PeerHealth:
    """Mutable health record of one peer endpoint."""

    peer_id: str
    consecutive_failures: int = 0
    last_success: Optional[float] = None
    last_failure: Optional[float] = None
    backoff: float = 0.0
    dead: bool = False
    #: when the monitor first saw this peer; the timeout clock starts
    #: here, so a peer that never produces a positive signal still ages
    #: out instead of lingering forever
    first_seen: float = 0.0

    def ack_age(self, now: float) -> Optional[float]:
        """Seconds since the last positive signal; None before the first."""
        if self.last_success is None:
            return None
        return max(0.0, now - self.last_success)


class HealthMonitor:
    """Tracks per-peer liveness with timeouts and exponential backoff."""

    def __init__(self, timeout: float = 10.0, max_failures: int = 3,
                 base_backoff: float = 0.1, max_backoff: float = 5.0,
                 jitter: float = 0.1,
                 rng: Optional[random.Random] = None,
                 clock: Callable[[], float] = time.monotonic,
                 registry: Optional[metrics_mod.MetricsRegistry] = None) -> None:
        if timeout < 0:
            raise RuntimeStateError("health timeout must be >= 0")
        if max_failures < 1:
            raise RuntimeStateError("max_failures must be >= 1")
        if base_backoff < 0 or max_backoff < base_backoff:
            raise RuntimeStateError("need 0 <= base_backoff <= max_backoff")
        if not 0.0 <= jitter < 1.0:
            raise RuntimeStateError("jitter must be in [0, 1)")
        self.timeout = timeout
        self.max_failures = max_failures
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        #: fractional randomization of each backoff window, so peers that
        #: failed together don't retry in lockstep (thundering herd)
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        self._lock = threading.Lock()
        self._peers: Dict[str, PeerHealth] = {}

    # -- recording -------------------------------------------------------
    def _peer(self, peer_id: str) -> PeerHealth:
        peer = self._peers.get(peer_id)
        if peer is None:
            peer = PeerHealth(peer_id=peer_id, first_seen=self._clock())
            self._peers[peer_id] = peer
        return peer

    def record_success(self, peer_id: str) -> None:
        """A send/ACK/heartbeat reached us: the peer is provably alive."""
        with self._lock:
            peer = self._peer(peer_id)
            was_dead = peer.dead
            peer.last_success = self._clock()
            peer.consecutive_failures = 0
            peer.backoff = 0.0
            peer.dead = False
        if was_dead:
            self._registry.increment(metrics_mod.RESURRECTED_TOTAL,
                                     downstream=peer_id)

    #: heartbeats and ACKs are just named success signals
    record_heartbeat = record_success
    record_ack = record_success

    def record_failure(self, peer_id: str) -> bool:
        """A send toward the peer failed; returns True when now dead."""
        with self._lock:
            peer = self._peer(peer_id)
            peer.last_failure = self._clock()
            peer.consecutive_failures += 1
            if peer.backoff <= 0.0:
                peer.backoff = self.base_backoff
            else:
                peer.backoff = min(self.max_backoff, peer.backoff * 2.0)
            newly_dead = (not peer.dead
                          and peer.consecutive_failures >= self.max_failures)
            if newly_dead:
                peer.dead = True
        if newly_dead:
            self._registry.increment(metrics_mod.MARKED_DEAD_TOTAL,
                                     downstream=peer_id)
        return self.is_dead(peer_id)

    def forget(self, peer_id: str) -> None:
        with self._lock:
            self._peers.pop(peer_id, None)

    def reset_peer(self, peer_id: str) -> None:
        """Wipe a peer's failure history: a rejoin is a fresh start.

        Unlike :meth:`record_success`, this does not fabricate a
        positive signal — the rejoined peer has proven nothing yet —
        but it guarantees a pre-departure failure streak (saturated
        backoff, dead mark) cannot instantly re-kill the new
        incarnation.
        """
        with self._lock:
            self._peers.pop(peer_id, None)

    # -- queries ---------------------------------------------------------
    def is_dead(self, peer_id: str) -> bool:
        with self._lock:
            peer = self._peers.get(peer_id)
            return peer.dead if peer is not None else False

    def should_attempt(self, peer_id: str) -> bool:
        """False while the peer sits inside its current backoff window."""
        with self._lock:
            peer = self._peers.get(peer_id)
            if peer is None or peer.last_failure is None or peer.backoff <= 0:
                return True
            return self._clock() - peer.last_failure >= peer.backoff

    def backoff_for(self, peer_id: str) -> float:
        """Current reconnect backoff in seconds (0 when healthy).

        The nominal exponential window is scaled by a random factor in
        ``[1 - jitter, 1 + jitter]`` so a fleet of peers backing off
        from the same outage desynchronizes instead of hammering the
        recovered endpoint in lockstep.
        """
        with self._lock:
            peer = self._peers.get(peer_id)
            backoff = peer.backoff if peer is not None else 0.0
            if backoff <= 0.0 or self.jitter <= 0.0:
                return backoff
            factor = self._rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
            return backoff * factor

    def ack_age(self, peer_id: str) -> Optional[float]:
        with self._lock:
            peer = self._peers.get(peer_id)
            if peer is None:
                return None
            return peer.ack_age(self._clock())

    def dead_peers(self) -> List[str]:
        with self._lock:
            return sorted(p.peer_id for p in self._peers.values() if p.dead)

    def known_peers(self) -> List[str]:
        with self._lock:
            return sorted(self._peers)

    # -- timeout sweep ---------------------------------------------------
    def check_timeouts(self, now: Optional[float] = None) -> List[str]:
        """Mark peers whose positive signals aged past the timeout.

        Returns the peers *newly* marked dead by this sweep, so callers
        (the master's failure detector) can evict exactly those.
        """
        if self.timeout <= 0:
            return []
        if now is None:
            now = self._clock()
        newly_dead = []
        with self._lock:
            for peer in self._peers.values():
                if peer.dead:
                    continue
                # A registered peer with no positive signal yet is still
                # on the clock from first sight — silent-from-birth
                # workers must age out like any other.
                reference = (peer.last_success
                             if peer.last_success is not None
                             else peer.first_seen)
                if now - reference > self.timeout:
                    peer.dead = True
                    newly_dead.append(peer.peer_id)
        for peer_id in newly_dead:
            self._registry.increment(metrics_mod.HEARTBEAT_MISS_TOTAL,
                                     downstream=peer_id)
            self._registry.increment(metrics_mod.MARKED_DEAD_TOTAL,
                                     downstream=peer_id)
        return sorted(newly_dead)

    def snapshot(self) -> Dict[str, PeerHealth]:
        with self._lock:
            return {peer_id: PeerHealth(
                        peer_id=peer.peer_id,
                        consecutive_failures=peer.consecutive_failures,
                        last_success=peer.last_success,
                        last_failure=peer.last_failure,
                        backoff=peer.backoff,
                        dead=peer.dead,
                        first_seen=peer.first_seen)
                    for peer_id, peer in self._peers.items()}
