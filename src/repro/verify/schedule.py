"""Seeded fault compositions: the verification extension of the vocabulary.

The fault vocabulary itself — action constants, :class:`FaultEvent`, the
membership/target validation — lives in :mod:`repro.core.faults`.  This
module keeps only what verification needs on top: a :class:`FaultSchedule`
that extends the core type with the :class:`ScheduleSpec` its faults
were drawn from and the :class:`RunProfile` (plain / keyed /
multi-tenant workload shape) they compose against, the seeded generator,
the spec-bound composition rules, atoms for shrinking, and a canonical
serialization.

Every event belongs to an **atom** — the smallest unit that can be
removed while keeping the schedule coherent (a departure travels with
its rejoin, a partition with its heal, a master kill with its restart).
The shrinker in :mod:`repro.verify.explorer` delta-debugs over atoms so
each candidate subset still validates.

Serialization (:meth:`to_json` / :meth:`from_json`) is canonical —
sorted keys, fixed separators, times rounded at generation — so the
same seed yields byte-identical schedule documents run after run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core import faults
from repro.core.exceptions import RuntimeStateError
from repro.core.faults import (CHAOS_CORRUPT, CHAOS_DELAY, CHAOS_DROP,
                               CHAOS_DUPLICATE, HEAL, KILL, KILL_MASTER,
                               LEAVE, LOAD_BURST, PARTITION, REJOIN,
                               RESTART_MASTER, FaultEvent)

_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScheduleSpec:
    """Shape and feature toggles the generator draws schedules from."""

    workers: Tuple[str, ...] = ("B", "D", "G", "H")
    source_id: str = "A"
    duration: float = 36.0
    start_after: float = 6.0
    settle: float = 12.0
    master_faults: bool = True
    partitions: bool = True
    link_chaos: bool = True
    load_bursts: bool = True
    keyed: bool = True
    max_tenants: int = 3

    def __post_init__(self) -> None:
        if len(self.workers) < 3:
            raise RuntimeStateError("schedules need >= 3 workers so a "
                                    "survivor always remains")
        if self.duration <= self.start_after + self.settle:
            raise RuntimeStateError("duration too short for a fault "
                                    "window (need > start_after + settle)")
        if self.max_tenants < 1:
            raise RuntimeStateError("max_tenants must be >= 1")

    @property
    def window_end(self) -> float:
        """Faults stop here so the tail of the run can recover."""
        return self.duration - self.settle

    def to_dict(self) -> Dict[str, object]:
        return {"workers": list(self.workers), "source_id": self.source_id,
                "duration": self.duration, "start_after": self.start_after,
                "settle": self.settle, "master_faults": self.master_faults,
                "partitions": self.partitions, "link_chaos": self.link_chaos,
                "load_bursts": self.load_bursts, "keyed": self.keyed,
                "max_tenants": self.max_tenants}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScheduleSpec":
        return cls(workers=tuple(str(w) for w in data["workers"]),
                   source_id=str(data["source_id"]),
                   duration=float(data["duration"]),
                   start_after=float(data["start_after"]),
                   settle=float(data["settle"]),
                   master_faults=bool(data["master_faults"]),
                   partitions=bool(data["partitions"]),
                   link_chaos=bool(data["link_chaos"]),
                   load_bursts=bool(data["load_bursts"]),
                   keyed=bool(data["keyed"]),
                   max_tenants=int(data["max_tenants"]))


@dataclass(frozen=True)
class RunProfile:
    """Workload shape the schedule's faults compose against."""

    keyed: bool = False
    tenant_count: int = 1
    hot_tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tenant_count < 1:
            raise RuntimeStateError("tenant_count must be >= 1")
        if self.keyed and self.tenant_count > 1:
            raise RuntimeStateError("keyed and multi-tenant profiles do "
                                    "not compose (per-tenant key tables "
                                    "are a future PR)")
        if self.hot_tenant is not None and self.tenant_count < 2:
            raise RuntimeStateError("a hot tenant needs >= 2 tenants")

    def to_dict(self) -> Dict[str, object]:
        return {"keyed": self.keyed, "tenant_count": self.tenant_count,
                "hot_tenant": self.hot_tenant}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunProfile":
        hot = data.get("hot_tenant")
        return cls(keyed=bool(data["keyed"]),
                   tenant_count=int(data["tenant_count"]),
                   hot_tenant=None if hot is None else str(hot))


@dataclass(frozen=True)
class FaultSchedule(faults.FaultSchedule):
    """A seeded, validated composition of faults over one run: the core
    schedule plus the spec it was drawn from and its workload profile."""

    spec: ScheduleSpec = field(default_factory=ScheduleSpec)
    profile: RunProfile = field(default_factory=RunProfile)

    # -- generation --------------------------------------------------------
    @classmethod
    def generate(cls, seed: int,
                 spec: Optional[ScheduleSpec] = None) -> "FaultSchedule":
        """One deterministic fault composition for *seed*.

        The generator draws a workload profile (plain / keyed /
        multi-tenant) and then composes nemeses that are legal against
        it, each under the rules :meth:`validate` re-checks:

        - worker churn (kill / graceful leave, each paired with a
          rejoin) over a strict subset of the pool;
        - at most one master outage (kill + restart), never composed
          with keyed or multi-tenant profiles and never overlapping
          other faults — the outage itself is the nemesis there;
        - link partitions, each paired with a heal on the same link;
        - seeded drop / delay / duplicate / corrupt windows on
          source->worker links;
        - background-load bursts (overload shedding territory), only
          alongside bounded queues.
        """
        spec = spec or ScheduleSpec()
        rng = random.Random(seed)
        builder = _Builder(spec, rng)
        builder.build()
        return cls(events=tuple(builder.events), seed=seed, spec=spec,
                   profile=builder.profile)

    # -- views -------------------------------------------------------------
    def atoms(self) -> Tuple[int, ...]:
        """Distinct shrink units, in first-appearance order."""
        seen: List[int] = []
        for event in self.events:
            if event.atom not in seen:
                seen.append(event.atom)
        return tuple(seen)

    def subset(self, atoms: Iterable[int]) -> "FaultSchedule":
        """The schedule restricted to the given shrink units."""
        keep = set(atoms)
        return replace(self, events=tuple(e for e in self.events
                                          if e.atom in keep))

    # -- validation --------------------------------------------------------
    def validate(self, initial_ids: Optional[Iterable[str]] = None) -> None:
        """The core coherence checks (against the spec's worker pool
        unless *initial_ids* says otherwise) plus the composition rules;
        raises RuntimeStateError."""
        super().validate(self.spec.workers if initial_ids is None
                         else initial_ids)
        self._validate_master_outages()
        self._validate_partitions()
        self._validate_windows()
        self._validate_survivor()

    def _paired(self, opener: str, closer: str) -> List[Tuple[float, float]]:
        """``(opened_at, closed_at)`` of every *opener* … *closer* pair on
        one target; raises unless each opener meets exactly one closer."""
        open_at: Dict[str, float] = {}
        pairs: List[Tuple[float, float]] = []
        for event in self.events:
            if event.action == opener:
                if event.target in open_at:
                    raise RuntimeStateError(
                        "%s of %r twice without a %s in between"
                        % (opener, event.target, closer))
                open_at[event.target] = event.time
            elif event.action == closer:
                if event.target not in open_at:
                    raise RuntimeStateError(
                        "%s of %r without a preceding %s"
                        % (closer, event.target, opener))
                pairs.append((open_at.pop(event.target), event.time))
        if open_at:
            raise RuntimeStateError("%s never followed by a %s: %s"
                                    % (opener, closer, sorted(open_at)))
        return pairs

    def _validate_master_outages(self) -> None:
        outages = self._paired(KILL_MASTER, RESTART_MASTER)
        for kill_at, restart_at in outages:
            if restart_at <= kill_at:
                raise RuntimeStateError("master restart must come after "
                                        "the kill")
            if restart_at > self.spec.window_end:
                raise RuntimeStateError("the master outage must end by "
                                        "t=%.1f so recovery can be "
                                        "judged" % self.spec.window_end)
            for event in self.events:
                if event.action in (KILL_MASTER, RESTART_MASTER):
                    continue
                if event.end > kill_at and event.time < restart_at:
                    raise RuntimeStateError(
                        "%s of %r at t=%.1f overlaps the master outage "
                        "[%.1f, %.1f] — the control plane must be up to "
                        "coordinate it" % (event.action, event.target,
                                           event.time, kill_at,
                                           restart_at))
        if outages and (self.profile.keyed
                        or self.profile.tenant_count > 1):
            raise RuntimeStateError("master outages only compose with "
                                    "the plain single-tenant profile")

    def _validate_partitions(self) -> None:
        for _cut_at, healed_at in self._paired(PARTITION, HEAL):
            if healed_at > self.spec.window_end:
                raise RuntimeStateError("partitions must heal by t=%.1f"
                                        % self.spec.window_end)

    def _validate_windows(self) -> None:
        for event in self.window_events():
            if event.end > self.spec.window_end:
                raise RuntimeStateError(
                    "%s window on %r runs to t=%.1f, past the fault "
                    "window end t=%.1f" % (event.action, event.target,
                                           event.end, self.spec.window_end))

    def _validate_survivor(self) -> None:
        churned: Set[str] = {event.target for event in self.events
                             if event.action in (KILL, LEAVE)}
        if not set(self.spec.workers) - churned:
            raise RuntimeStateError("every worker churns at some point; "
                                    "keep at least one untouched survivor")

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"version": _SCHEMA_VERSION, "seed": self.seed,
                "spec": self.spec.to_dict(),
                "profile": self.profile.to_dict(),
                "events": [event.to_dict() for event in self.events]}

    def to_json(self) -> str:
        """Canonical (byte-deterministic) JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSchedule":
        version = int(data.get("version", 0))
        if version != _SCHEMA_VERSION:
            raise RuntimeStateError("unknown schedule schema version %r"
                                    % version)
        seed = data.get("seed")
        return cls(events=tuple(FaultEvent.from_dict(entry)
                                for entry in data["events"]),
                   seed=None if seed is None else int(seed),
                   spec=ScheduleSpec.from_dict(data["spec"]),
                   profile=RunProfile.from_dict(data["profile"]))

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))


class _Builder:
    """Stateful helper assembling one seeded composition."""

    def __init__(self, spec: ScheduleSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self.events: List[FaultEvent] = []
        self.profile = RunProfile()
        self._next_atom = 0
        self._outage: Optional[Tuple[float, float]] = None
        self._churned: Set[str] = set()

    def _atom(self) -> int:
        self._next_atom += 1
        return self._next_atom

    def build(self) -> None:
        rng, spec = self.rng, self.spec
        keyed = spec.keyed and rng.random() < 0.25
        tenant_count = 1
        hot_tenant = None
        if not keyed and spec.max_tenants > 1 and rng.random() < 0.3:
            tenant_count = rng.randint(2, spec.max_tenants)
            if rng.random() < 0.6:
                hot_tenant = "t0"
        self.profile = RunProfile(keyed=keyed, tenant_count=tenant_count,
                                  hot_tenant=hot_tenant)
        if spec.master_faults and not keyed and tenant_count == 1 \
                and rng.random() < 0.4:
            self._add_master_outage()
        self._add_membership_churn()
        if spec.partitions and rng.random() < 0.5:
            self._add_partitions()
        if spec.link_chaos and rng.random() < 0.6:
            self._add_chaos_windows()
        if spec.load_bursts and not keyed and rng.random() < 0.35:
            self._add_load_burst()

    # -- segments free of the master outage --------------------------------
    def _free_segments(self, need: float) -> List[Tuple[float, float]]:
        spec = self.spec
        if self._outage is None:
            segments = [(spec.start_after, spec.window_end)]
        else:
            kill_at, restart_at = self._outage
            segments = [(spec.start_after, kill_at - 1.0),
                        (restart_at + 1.0, spec.window_end)]
        return [(lo, hi) for lo, hi in segments if hi - lo >= need]

    def _pick_window(self, need: float) -> Optional[Tuple[float, float]]:
        segments = self._free_segments(need)
        if not segments:
            return None
        lo, hi = self.rng.choice(segments)
        start = round(self.rng.uniform(lo, hi - need), 3)
        return start, hi

    # -- nemeses -----------------------------------------------------------
    def _add_master_outage(self) -> None:
        rng, spec = self.rng, self.spec
        outage = rng.uniform(2.0, 4.0)
        latest = spec.window_end - outage
        earliest = spec.start_after + 2.0
        if latest <= earliest:
            return
        kill_at = round(rng.uniform(earliest, latest), 3)
        restart_at = round(kill_at + outage, 3)
        atom = self._atom()
        self.events.append(FaultEvent(kill_at, KILL_MASTER,
                                      spec.source_id, atom=atom))
        self.events.append(FaultEvent(restart_at, RESTART_MASTER,
                                      spec.source_id, atom=atom))
        self._outage = (kill_at, restart_at)

    def _add_membership_churn(self) -> None:
        rng, spec = self.rng, self.spec
        max_churners = len(spec.workers) - 2
        count = rng.randint(1, max(1, max_churners))
        churners = rng.sample(sorted(spec.workers), count)
        for device_id in sorted(churners):
            gap = rng.uniform(2.0, 4.0)
            window = self._pick_window(gap + 1.0)
            if window is None:
                continue
            depart_at, segment_end = window
            rejoin_at = round(min(segment_end, depart_at + gap), 3)
            action = KILL if rng.random() < 0.5 else LEAVE
            atom = self._atom()
            self.events.append(FaultEvent(depart_at, action, device_id,
                                          atom=atom))
            self.events.append(FaultEvent(rejoin_at, REJOIN,
                                          device_id, atom=atom))
            self._churned.add(device_id)

    def _add_partitions(self) -> None:
        rng, spec = self.rng, self.spec
        steady = sorted(set(spec.workers) - self._churned)
        if not steady:
            return
        for target in rng.sample(steady, min(len(steady),
                                             rng.randint(1, 2))):
            hold = rng.uniform(1.5, 3.0)
            window = self._pick_window(hold + 0.5)
            if window is None:
                continue
            start, _ = window
            link = "%s>%s" % (spec.source_id, target)
            atom = self._atom()
            self.events.append(FaultEvent(start, PARTITION, link,
                                          atom=atom))
            self.events.append(FaultEvent(round(start + hold, 3),
                                          HEAL, link, atom=atom))

    def _add_chaos_windows(self) -> None:
        rng, spec = self.rng, self.spec
        kinds = ((CHAOS_DROP, (0.05, 0.3)), (CHAOS_DELAY, (0.05, 0.25)),
                 (CHAOS_DUPLICATE, (0.05, 0.2)), (CHAOS_CORRUPT,
                                                  (0.02, 0.1)))
        for _ in range(rng.randint(1, 2)):
            action, (lo, hi) = rng.choice(kinds)
            target = "%s>%s" % (spec.source_id,
                                rng.choice(sorted(spec.workers)))
            hold = rng.uniform(2.0, 4.0)
            window = self._pick_window(hold + 0.5)
            if window is None:
                continue
            start, _ = window
            self.events.append(FaultEvent(start, action, target,
                                          duration=round(hold, 3),
                                          value=round(rng.uniform(lo, hi),
                                                      3),
                                          atom=self._atom()))

    def _add_load_burst(self) -> None:
        rng, spec = self.rng, self.spec
        target = rng.choice(sorted(spec.workers))
        hold = rng.uniform(3.0, 5.0)
        window = self._pick_window(hold + 0.5)
        if window is None:
            return
        start, _ = window
        self.events.append(FaultEvent(start, LOAD_BURST, target,
                                      duration=round(hold, 3),
                                      value=round(rng.uniform(0.5, 0.8),
                                                  3),
                                      atom=self._atom()))
