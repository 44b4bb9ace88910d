"""The fault vocabulary: one event type, one schedule, both substrates.

Every injected event in the repo — the paper's dynamics experiments
(Sec. VI-C: a device joins, or is killed, mid-run), silent crashes,
graceful drains, master outages, link partitions, message chaos and
background-load bursts — is a :class:`FaultEvent`, and every experiment
carries them in one :class:`FaultSchedule`.  The discrete-event
simulator (``SwarmConfig.schedule``) and the threaded runtime's
:class:`~repro.runtime.chaos.ChurnHarness` consume the *same object*
through one action → handler table each, so a schedule found on one
substrate replays unchanged on the other.  DESIGN.md ("Fault schedule")
tabulates, per action, the target form and each substrate's handler.

Events come in two shapes:

- **point events** (``duration == 0``) happen at ``time``;
- **window events** (``duration > 0``) hold from ``time`` to ``end``
  with intensity ``value`` and lift themselves when the window closes.

``atom`` names the smallest unit that can be removed while the schedule
stays coherent (a departure travels with its rejoin, a partition with
its heal); :mod:`repro.verify` delta-debugs over atoms.

Substrate-neutral: no engine, no threads, time is always an argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (Collection, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.exceptions import RuntimeStateError

#: membership — the target is a worker device id
JOIN = "join"              # a device new to the swarm launches Swing
LEAVE = "leave"            # graceful: LEAVING handshake, drain, depart
KILL = "kill"              # silent crash: found only by loss accounting
DISCONNECT = "disconnect"  # abrupt exit; the upstream sees the broken
#                            connection after its detection delay
REJOIN = "rejoin"          # a previously departed device comes back
#: control plane — the target is the master's device id
KILL_MASTER = "kill_master"        # abrupt master crash
RESTART_MASTER = "restart_master"  # successor master, next epoch
#: links — the target is a directed ``"a>b"`` link
PARTITION = "partition"
HEAL = "heal"
#: windows; ``value`` is the intensity.  Message chaos targets an
#: ``"a>b"`` link (or :data:`EVERY_LINK`), a load burst a worker device.
CHAOS_DROP = "chaos_drop"            # drop probability
CHAOS_DELAY = "chaos_delay"          # extra per-message delay (seconds)
CHAOS_DUPLICATE = "chaos_duplicate"  # duplicate probability
CHAOS_CORRUPT = "chaos_corrupt"      # bit-flip probability
LOAD_BURST = "load_burst"            # background CPU load in [0, 1]; the
#                                      device's configured load returns
#                                      when the window ends

#: wildcard target of a message-chaos window: every link of the swarm
EVERY_LINK = "*"

WINDOW_ACTIONS = frozenset({CHAOS_DROP, CHAOS_DELAY, CHAOS_DUPLICATE,
                            CHAOS_CORRUPT, LOAD_BURST})
ACTIONS = WINDOW_ACTIONS | {JOIN, LEAVE, KILL, DISCONNECT, REJOIN,
                            KILL_MASTER, RESTART_MASTER, PARTITION, HEAL}
#: actions whose target is a link, not a device
LINK_ACTIONS = (WINDOW_ACTIONS - {LOAD_BURST}) | {PARTITION, HEAL}
_DEPARTURES = frozenset({LEAVE, KILL, DISCONNECT})
#: window intensities that are probabilities (bounded to [0, 1])
_PROBABILITIES = WINDOW_ACTIONS - {CHAOS_DELAY}


def split_link(target: str) -> Tuple[str, str]:
    """``(sender, receiver)`` of a directed ``"a>b"`` link target."""
    sender_id, sep, receiver_id = target.partition(">")
    if not sep or not sender_id or not receiver_id:
        raise RuntimeStateError("link faults need a 'sender>target' link "
                                "id, got %r" % target)
    return sender_id, receiver_id


@dataclass(frozen=True)
class FaultEvent:
    """One fault at a point (or over a window) of scenario time."""

    time: float
    action: str
    target: str          # device id, master id, "a>b" link or EVERY_LINK
    duration: float = 0.0
    value: float = 0.0
    atom: int = 0        # shrink unit this event belongs to

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise RuntimeStateError("unknown fault action %r (want one "
                                    "of %s)" % (self.action,
                                                sorted(ACTIONS)))
        if self.time < 0:
            raise RuntimeStateError("fault event time must be >= 0")
        if not self.target:
            raise RuntimeStateError("fault event needs a target")
        if self.action in WINDOW_ACTIONS:
            if self.duration <= 0:
                raise RuntimeStateError("%s window needs a positive "
                                        "duration" % self.action)
        elif self.duration:
            raise RuntimeStateError("%s is a point event; duration must "
                                    "be 0" % self.action)
        if self.action in _PROBABILITIES \
                and not 0.0 <= self.value <= 1.0:
            raise RuntimeStateError("%s intensity must be in [0, 1], got "
                                    "%r" % (self.action, self.value))
        if self.action == CHAOS_DELAY and self.value < 0:
            raise RuntimeStateError("chaos_delay needs a non-negative "
                                    "extra delay")

    @property
    def end(self) -> float:
        return self.time + self.duration

    def to_dict(self) -> Dict[str, object]:
        return {"time": self.time, "action": self.action,
                "target": self.target, "duration": self.duration,
                "value": self.value, "atom": self.atom}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        return cls(time=float(data["time"]), action=str(data["action"]),
                   target=str(data["target"]),
                   duration=float(data.get("duration", 0.0)),
                   value=float(data.get("value", 0.0)),
                   atom=int(data.get("atom", 0)))


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, replayable sequence of fault events.

    Events are kept sorted by ``(time, action, target)`` — the one
    order both substrates apply them in, so two events at the same
    timestamp fire alphabetically by action, then by target.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events,
                               key=lambda e: (e.time, e.action, e.target)))
        object.__setattr__(self, "events", ordered)

    @classmethod
    def churn(cls, seed: int, device_ids: Sequence[str],
              duration: float, start_after: float = 5.0,
              settle: float = 8.0) -> "FaultSchedule":
        """Deterministic kill/leave + rejoin story for *device_ids*.

        Each device departs once — abruptly (kill) or gracefully
        (leave), a seeded coin flip — and rejoins after a seeded 3–6 s
        gap.  All events land inside ``[start_after, duration - settle]``
        so the tail of the run can recover and be measured.
        """
        if duration <= start_after + settle:
            raise RuntimeStateError("duration too short for churn window "
                                    "(need > start_after + settle)")
        rng = random.Random(seed)
        window_end = duration - settle
        events: List[FaultEvent] = []
        for device_id in sorted(device_ids):
            depart_at = rng.uniform(start_after,
                                    max(start_after + 0.1,
                                        window_end - 6.0))
            action = KILL if rng.random() < 0.5 else LEAVE
            gap = rng.uniform(3.0, 6.0)
            rejoin_at = min(window_end, depart_at + gap)
            events.append(FaultEvent(round(depart_at, 3), action, device_id))
            events.append(FaultEvent(round(rejoin_at, 3), REJOIN, device_id))
        return cls(events=tuple(events), seed=seed)

    def validate(self, initial_ids: Iterable[str]) -> None:
        """Check the schedule is coherent against *initial_ids*.

        Departures must target a present device, rejoins an absent one
        that was a member before, and a fresh ``join`` must not collide
        with a present device.  A graceful ``leave`` needs a survivor to
        hand its work to (crashes may hit the last device — that is the
        all-downstreams-dead scenario).  Link faults must name an
        ``"a>b"`` link (message chaos may also name :data:`EVERY_LINK`)
        and a load burst a device that is a member at some point.
        """
        present = set(initial_ids)
        known = set(present)
        for event in self.events:
            action, target = event.action, event.target
            where = "%s of %r at t=%.3f" % (action, target, event.time)
            if action in _DEPARTURES:
                if target not in present:
                    raise RuntimeStateError("%s: device not present" % where)
                present.discard(target)
                if action == LEAVE and not present:
                    raise RuntimeStateError(
                        "%s empties the swarm: a drain needs a survivor"
                        % where)
            elif action == REJOIN:
                if target in present:
                    raise RuntimeStateError("%s: device still present"
                                            % where)
                if target not in known:
                    raise RuntimeStateError("%s: device never joined"
                                            % where)
                present.add(target)
            elif action == JOIN:
                if target in present:
                    raise RuntimeStateError("%s: device already present"
                                            % where)
                present.add(target)
                known.add(target)
            elif action in LINK_ACTIONS and not (
                    target == EVERY_LINK and action in WINDOW_ACTIONS):
                split_link(target)
        for event in self.events:
            if event.action == LOAD_BURST and event.target not in known:
                raise RuntimeStateError("load burst targets %r, which is "
                                        "never a member" % event.target)

    def window_events(self) -> Tuple[FaultEvent, ...]:
        return tuple(event for event in self.events
                     if event.action in WINDOW_ACTIONS)

    def unapplied(self, actions: Collection[str]) -> Tuple[FaultEvent, ...]:
        """Events a substrate whose handler table covers *actions* skips.

        Coverage notes are computed from this — never hand-listed — so
        they cannot drift from what the table really applies.
        """
        return tuple(event for event in self.events
                     if event.action not in actions)

    def end_time(self) -> float:
        """When the last fault (or fault window) is over."""
        return max((event.end for event in self.events), default=0.0)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
