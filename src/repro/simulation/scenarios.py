"""Canned experiment scenarios matching the paper's evaluation setups.

Each function returns a ready-to-run :class:`~repro.simulation.swarm.SwarmConfig`
for one of the paper's experiments; the benchmark harness and examples
build on these so the exact testbed layouts live in one place.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import profiles
from repro.core import faults
from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, BEST_EFFORT, DeliveryConfig
from repro.core.exceptions import SimulationError
from repro.core.faults import FaultEvent, FaultSchedule
from repro.core.keyed import KeyedConfig
from repro.core.multitenant import TenantSpec
from repro.core.overload import DROP_OLDEST, OverloadConfig
from repro.simulation.mobility import MobilityPlan, MobilityTrace
from repro.simulation.network import RSSI_GOOD, RSSI_POOR
from repro.simulation.swarm import SwarmConfig, UNBOUNDED_QUEUE
from repro.simulation.workload import (FACE_APP, TRANSLATE_APP, Workload,
                                       face_workload, translation_workload)


def workload_for_app(app: str, input_rate: Optional[float] = None) -> Workload:
    """The paper's workload for *app*, optionally at a custom rate."""
    if app == FACE_APP:
        return face_workload() if input_rate is None else face_workload(input_rate)
    if app == TRANSLATE_APP:
        return (translation_workload() if input_rate is None
                else translation_workload(input_rate))
    raise SimulationError("unknown app %r" % app)


def single_device(worker_id: str, app: str = FACE_APP,
                  input_rate: float = 24.0, duration: float = 5.0,
                  rssi: float = RSSI_GOOD, background_load: float = 0.0,
                  seed: int = 0, bounded_queue: bool = False) -> SwarmConfig:
    """A sends frames to one worker — the Sec. III characterization setup.

    With ``bounded_queue=False`` the source queue is unbounded so the
    Fig. 1 delay build-up is visible.
    """
    window_bytes = 65536 if bounded_queue else 1 << 30
    return SwarmConfig(
        workload=workload_for_app(app, input_rate),
        workers=profiles.worker_profiles([worker_id]),
        source=profiles.device_profile(profiles.SOURCE_ID),
        policy_config=PolicyConfig(policy="RR"),
        duration=duration,
        seed=seed,
        rssi={worker_id: rssi},
        background_load={worker_id: background_load},
        source_queue_frames=None if bounded_queue else UNBOUNDED_QUEUE,
        socket_window_bytes=window_bytes,
        # Table I / Figs. 1-2 report the paper's measured per-frame
        # delays, which the device profiles already encode; thermal
        # drift would double-count it.
        thermal_throttling=False,
    )


def testbed(app: str = FACE_APP, policy: str = "LRS",
            duration: float = 60.0, seed: int = 0,
            worker_ids: Optional[Sequence[str]] = None,
            poor_signal_ids: Optional[Sequence[str]] = None) -> SwarmConfig:
    """The Sec. VI-B routing-comparison testbed.

    Nine devices; A is source+master, B..I run workers, and B, C, D sit at
    locations of poor Wi-Fi signal.
    """
    ids = list(worker_ids) if worker_ids is not None else list(profiles.WORKER_IDS)
    poor = list(poor_signal_ids) if poor_signal_ids is not None \
        else [device_id for device_id in profiles.POOR_SIGNAL_IDS if device_id in ids]
    rssi = {device_id: (RSSI_POOR if device_id in poor else RSSI_GOOD)
            for device_id in ids}
    return SwarmConfig(
        workload=workload_for_app(app),
        workers=profiles.worker_profiles(ids),
        source=profiles.device_profile(profiles.SOURCE_ID),
        policy_config=PolicyConfig(policy=policy),
        duration=duration,
        seed=seed,
        rssi=rssi,
    )


def cloudlet_mode(app: str = FACE_APP, policy: str = "LRS",
                  duration: float = 60.0, seed: int = 0,
                  worker_ids: Optional[Sequence[str]] = None,
                  cloudlet_id: str = "CL") -> SwarmConfig:
    """The Sec. VI-B testbed plus a wall-powered cloudlet VM.

    Models the paper's "cloudlet mode": when fixed infrastructure is
    available, Swing treats the cloudlet as one more (very fast) worker —
    the routing policies need no changes.
    """
    config = testbed(app=app, policy=policy, duration=duration, seed=seed,
                     worker_ids=worker_ids)
    workers = dict(config.workers)
    workers[cloudlet_id] = profiles.cloudlet_profile(cloudlet_id)
    rssi = dict(config.rssi)
    rssi[cloudlet_id] = RSSI_GOOD
    config.workers = workers
    config.rssi = rssi
    return config


def joining(app: str = FACE_APP, duration: float = 30.0, seed: int = 0,
            initial_ids: Sequence[str] = ("B", "D"),
            joiner_id: str = "G", join_time: float = 10.0) -> SwarmConfig:
    """Fig. 9 (left): B and D compute; G joins mid-run."""
    return SwarmConfig(
        workload=workload_for_app(app),
        workers=profiles.worker_profiles(list(initial_ids)),
        source=profiles.device_profile(profiles.SOURCE_ID),
        duration=duration,
        seed=seed,
        schedule=FaultSchedule(events=(
            FaultEvent(join_time, faults.JOIN, joiner_id),)),
    )


def leaving(app: str = FACE_APP, duration: float = 35.0, seed: int = 0,
            initial_ids: Sequence[str] = ("B", "G", "H"),
            leaver_id: str = "G", leave_time: float = 15.0) -> SwarmConfig:
    """Fig. 9 (right): B, G, H compute; G is killed mid-run."""
    return SwarmConfig(
        workload=workload_for_app(app),
        workers=profiles.worker_profiles(list(initial_ids)),
        source=profiles.device_profile(profiles.SOURCE_ID),
        duration=duration,
        seed=seed,
        schedule=FaultSchedule(events=(
            FaultEvent(leave_time, faults.DISCONNECT, leaver_id),)),
    )


def fault_injection(app: str = FACE_APP, policy: str = "LRS",
                    duration: float = 30.0, seed: int = 0,
                    worker_ids: Sequence[str] = ("B", "D", "G", "H"),
                    kill_ids: Sequence[str] = ("B", "G"),
                    kill_time: float = 10.0,
                    revive_time: Optional[float] = None,
                    ack_timeout: float = 2.0, dead_after: int = 3,
                    drop_window: Optional[float] = None,
                    delay_window: Optional[float] = None,
                    extra_delay: float = 0.25) -> SwarmConfig:
    """Failure-detection stress: kill devices *silently* mid-stream.

    Unlike :func:`leaving` the upstream is never told the connection
    broke — the killed devices must be discovered purely through lost
    tuples expiring in the ACK tracker, marked dead within the
    configured ``ack_timeout`` window, and their traffic share
    re-routed to the survivors.  Optional extras: revive the devices
    later (``revive_time``), or overlay message drop / delay windows.
    """
    kill_ids = list(kill_ids)
    unknown = [device_id for device_id in kill_ids
               if device_id not in worker_ids]
    if unknown:
        raise SimulationError("cannot kill devices not in the swarm: %s"
                              % ", ".join(unknown))
    if len(kill_ids) >= len(list(worker_ids)):
        raise SimulationError("at least one worker must survive the faults")
    events = [FaultEvent(kill_time, faults.KILL, device_id)
              for device_id in kill_ids]
    if revive_time is not None:
        events.extend(FaultEvent(revive_time, faults.REJOIN, device_id)
                      for device_id in kill_ids)
    if drop_window is not None:
        events.append(FaultEvent(kill_time, faults.CHAOS_DROP,
                                 faults.EVERY_LINK, duration=drop_window,
                                 value=0.5))
    if delay_window is not None:
        events.append(FaultEvent(kill_time, faults.CHAOS_DELAY,
                                 faults.EVERY_LINK, duration=delay_window,
                                 value=extra_delay))
    return SwarmConfig(
        workload=workload_for_app(app),
        workers=profiles.worker_profiles(list(worker_ids)),
        source=profiles.device_profile(profiles.SOURCE_ID),
        policy_config=PolicyConfig(policy=policy, ack_timeout=ack_timeout,
                                   dead_after=dead_after),
        duration=duration,
        seed=seed,
        schedule=FaultSchedule(events=tuple(events)),
    )


def overload(app: str = FACE_APP, policy: str = "LRS",
             duration: float = 30.0, seed: int = 0,
             worker_ids: Sequence[str] = ("B", "G", "H"),
             overload_until: float = 14.0,
             background: float = 0.8,
             ttl: float = 2.0,
             queue_capacity: int = 8,
             drop_policy: str = DROP_OLDEST,
             kill_id: Optional[str] = "G",
             kill_time: float = 6.0,
             revive_time: float = 12.0,
             ack_timeout: float = 2.0, dead_after: int = 2) -> SwarmConfig:
    """Chaos/soak scenario: sustained Lambda > sum(mu) plus faults.

    Every worker starts with a heavy *background* CPU load, pushing the
    swarm's aggregate service rate well below the input rate — the
    overload regime where unbounded queues would grow without limit.
    Overload protection (TTL *ttl*, bounded ingress queues of
    *queue_capacity* frames, source admission control) must degrade
    gracefully: bounded queue depths, no stale deliveries, monotone shed
    counters.  At *overload_until* the background apps stop, the
    capacity recovers above the input rate, and end-to-end latency must
    recover too.  A mid-overload silent kill/revive of *kill_id*
    stresses the failure-detection path at the same time.

    Thermal throttling is off: with it, the post-recovery service rate
    would stay below the input rate and the recovery assertion would be
    meaningless.
    """
    worker_ids = list(worker_ids)
    if not 0.0 < overload_until < duration:
        raise SimulationError("overload_until must fall inside the run")
    # The background apps stop at overload_until: a load window at 0.0
    # over the rest of the run, on top of the configured heavy load.
    events = [FaultEvent(overload_until, faults.LOAD_BURST, device_id,
                         duration=duration - overload_until, value=0.0)
              for device_id in worker_ids]
    if kill_id is not None:
        if kill_id not in worker_ids:
            raise SimulationError("cannot kill %r: not in the swarm" % kill_id)
        if not kill_time < revive_time:
            raise SimulationError("revive must come after the kill")
        events.append(FaultEvent(kill_time, faults.KILL, kill_id))
        events.append(FaultEvent(revive_time, faults.REJOIN, kill_id))
    return SwarmConfig(
        workload=workload_for_app(app),
        workers=profiles.worker_profiles(worker_ids),
        source=profiles.device_profile(profiles.SOURCE_ID),
        policy_config=PolicyConfig(
            policy=policy, ack_timeout=ack_timeout, dead_after=dead_after,
            overload=OverloadConfig(ttl=ttl, queue_capacity=queue_capacity,
                                    drop_policy=drop_policy)),
        duration=duration,
        seed=seed,
        background_load={device_id: background for device_id in worker_ids},
        thermal_throttling=False,
        schedule=FaultSchedule(events=tuple(events)),
    )


def churn(app: str = FACE_APP, policy: str = "LRS",
          duration: float = 40.0, seed: int = 7,
          worker_ids: Sequence[str] = ("B", "D", "G", "H"),
          churner_ids: Sequence[str] = ("D", "G"),
          at_least_once: bool = True,
          replay_capacity: int = 512,
          dedup_window: int = 2048,
          max_delivery_attempts: int = 4,
          start_after: float = 8.0, settle: float = 10.0,
          ack_timeout: float = 2.0, dead_after: int = 2,
          detection_delay: float = 0.25) -> SwarmConfig:
    """Churn soak: a seeded kill/leave/rejoin schedule over half the swarm.

    The *churner_ids* cycle through departures (silent kills or graceful
    LEAVING drains, chosen by the schedule's RNG) and rejoins while the
    rest of the swarm keeps computing.  With ``at_least_once=True`` the
    upstream retains every un-ACKed tuple and replays it to a survivor,
    the sink deduplicates, and the run must finish with zero end-to-end
    losses; with ``at_least_once=False`` the same schedule reproduces
    today's best-effort loss accounting — the comparison the guarantee
    matrix in DESIGN.md documents.

    The schedule stops churning *settle* seconds before the end so every
    outstanding redelivery has time to land before the run is judged.
    """
    worker_ids = list(worker_ids)
    churner_ids = list(churner_ids)
    unknown = [device_id for device_id in churner_ids
               if device_id not in worker_ids]
    if unknown:
        raise SimulationError("cannot churn devices not in the swarm: %s"
                              % ", ".join(unknown))
    if len(churner_ids) >= len(worker_ids):
        raise SimulationError("at least one worker must survive the churn")
    schedule = FaultSchedule.churn(seed=seed, device_ids=churner_ids,
                                   duration=duration,
                                   start_after=start_after, settle=settle)
    delivery = DeliveryConfig(
        mode=AT_LEAST_ONCE if at_least_once else BEST_EFFORT,
        replay_capacity=replay_capacity,
        dedup_window=dedup_window,
        max_delivery_attempts=max_delivery_attempts)
    return SwarmConfig(
        workload=workload_for_app(app),
        workers=profiles.worker_profiles(worker_ids),
        source=profiles.device_profile(profiles.SOURCE_ID),
        policy_config=PolicyConfig(policy=policy, ack_timeout=ack_timeout,
                                   dead_after=dead_after, delivery=delivery),
        duration=duration,
        seed=seed,
        detection_delay=detection_delay,
        schedule=schedule,
    )


def failover(app: str = FACE_APP, policy: str = "LRS",
             duration: float = 40.0, seed: int = 11,
             worker_ids: Sequence[str] = ("B", "D", "G", "H"),
             kill_time: float = 12.0, outage: float = 4.0,
             at_least_once: bool = True,
             replay_capacity: int = 1024,
             dedup_window: int = 4096,
             max_delivery_attempts: int = 6,
             settle: float = 10.0,
             ack_timeout: float = 2.0, dead_after: int = 2,
             detection_delay: float = 0.25) -> SwarmConfig:
    """Master failover soak: kill the master mid-run, restart it later.

    At *kill_time* the master dies (source, dispatcher, control loop
    and sink all freeze — no STOP is broadcast); workers keep draining
    their backlogs autonomously.  After *outage* seconds the successor
    master comes up, buffered results flush into its dedup window, and
    at-least-once replay sweeps whatever is still pending.  With
    ``at_least_once=True`` the run must finish with zero end-to-end
    losses and every duplicate absorbed — the recovery guarantee the
    failover CLI and the integration tests assert on both substrates.

    The outage ends at least *settle* seconds before the run does, so
    every redelivery has time to land before the run is judged.
    """
    worker_ids = list(worker_ids)
    if not 0.0 < kill_time < duration:
        raise SimulationError("kill_time must fall inside the run")
    if outage <= 0:
        raise SimulationError("outage must be positive")
    restart_time = kill_time + outage
    if restart_time > duration - settle:
        raise SimulationError("the outage must end %.1fs before the run"
                              " does, so recovery can be judged" % settle)
    master_id = profiles.SOURCE_ID
    schedule = FaultSchedule(events=(
        FaultEvent(kill_time, faults.KILL_MASTER, master_id),
        FaultEvent(restart_time, faults.RESTART_MASTER, master_id),
    ), seed=seed)
    delivery = DeliveryConfig(
        mode=AT_LEAST_ONCE if at_least_once else BEST_EFFORT,
        replay_capacity=replay_capacity,
        dedup_window=dedup_window,
        max_delivery_attempts=max_delivery_attempts)
    return SwarmConfig(
        workload=workload_for_app(app),
        workers=profiles.worker_profiles(worker_ids),
        source=profiles.device_profile(master_id),
        policy_config=PolicyConfig(policy=policy, ack_timeout=ack_timeout,
                                   dead_after=dead_after, delivery=delivery),
        duration=duration,
        seed=seed,
        detection_delay=detection_delay,
        schedule=schedule,
    )


def tenants(app: str = FACE_APP, policy: str = "LRS",
            duration: float = 30.0, seed: int = 0,
            worker_ids: Sequence[str] = ("B", "D", "G", "H"),
            tenant_count: int = 3,
            per_tenant_rate: Optional[float] = None,
            hot_tenant: Optional[str] = None,
            hot_rate_factor: float = 4.0,
            weights: Optional[Sequence[float]] = None,
            priorities: Optional[Sequence[int]] = None,
            at_least_once: bool = True,
            replay_capacity: int = 512,
            dedup_window: int = 4096,
            max_delivery_attempts: int = 4,
            ttl: float = 2.0,
            queue_capacity: int = 12,
            ack_timeout: float = 2.0) -> SwarmConfig:
    """Multi-tenant isolation soak: N pipelines share one worker pool.

    Tenants ``t0..tN-1`` each run the same app over the same devices,
    every frame tagged with its owner, and bounded worker ingress queues
    arbitrated by cross-tenant fair-share admission.  *per_tenant_rate*
    defaults to an even split of the app's nominal input rate, sized so
    the pool keeps up at baseline.  Naming a *hot_tenant* ramps that one
    tenant to ``hot_rate_factor``× its fair rate — the misbehaving
    neighbour whose overload must shed its *own* tuples while the victim
    tenants' latency and loss stay unharmed (the acceptance check the
    integration soak asserts on both substrates).
    """
    if tenant_count < 1:
        raise SimulationError("need at least one tenant")
    if weights is not None and len(list(weights)) != tenant_count:
        raise SimulationError("weights must have one entry per tenant")
    if priorities is not None and len(list(priorities)) != tenant_count:
        raise SimulationError("priorities must have one entry per tenant")
    workload = workload_for_app(app)
    rate = (per_tenant_rate if per_tenant_rate is not None
            else workload.input_rate / tenant_count)
    specs = []
    for index in range(tenant_count):
        tenant_id = "t%d" % index
        tenant_rate = rate
        if hot_tenant is not None and tenant_id == hot_tenant:
            tenant_rate = rate * hot_rate_factor
        specs.append(TenantSpec(
            tenant_id=tenant_id,
            weight=list(weights)[index] if weights is not None else 1.0,
            priority=(list(priorities)[index]
                      if priorities is not None else 0),
            input_rate=tenant_rate))
    if hot_tenant is not None \
            and hot_tenant not in {spec.tenant_id for spec in specs}:
        raise SimulationError("hot tenant %r is not one of t0..t%d"
                              % (hot_tenant, tenant_count - 1))
    delivery = (DeliveryConfig(mode=AT_LEAST_ONCE,
                               replay_capacity=replay_capacity,
                               dedup_window=dedup_window,
                               max_delivery_attempts=max_delivery_attempts)
                if at_least_once else None)
    return SwarmConfig(
        workload=workload,
        workers=profiles.worker_profiles(list(worker_ids)),
        source=profiles.device_profile(profiles.SOURCE_ID),
        policy_config=PolicyConfig(
            policy=policy, ack_timeout=ack_timeout,
            overload=OverloadConfig(ttl=ttl, queue_capacity=queue_capacity,
                                    drop_policy=DROP_OLDEST),
            delivery=delivery),
        duration=duration,
        seed=seed,
        tenants=tuple(specs),
    )


def skew(app: str = FACE_APP, duration: float = 40.0, seed: int = 3,
         worker_ids: Sequence[str] = ("B", "D", "G", "H"),
         key_count: int = 64, zipf_alpha: float = 1.2,
         input_rate: Optional[float] = None,
         split_enabled: bool = True,
         hot_ratio: float = 1.5,
         min_split_interval: float = 2.0,
         max_splits: int = 8,
         at_least_once: bool = True,
         replay_capacity: int = 4096,
         dedup_window: int = 8192,
         max_delivery_attempts: int = 8,
         ack_timeout: float = 6.0, dead_after: int = 4) -> SwarmConfig:
    """Keyed-skew soak: per-user state under a Zipf-heavy key universe.

    Every frame carries a ``user-N`` key drawn from a seeded
    Zipf(*zipf_alpha*) distribution over *key_count* users; frames route
    by key-range ownership (an even partition of the hash space over the
    initial pool) and each worker folds its keys into per-user windowed
    aggregates.  The Zipf head concentrates a large share of the stream
    on whichever worker owns the hot keys' range — the overload that
    static hash routing cannot escape.  With ``split_enabled=True`` the
    control loop detects the hot range, splits it, and live-migrates
    half (state and all) to the least-loaded worker each round; with
    ``split_enabled=False`` the same run shows the static baseline the
    acceptance test compares against.

    At-least-once delivery with a generous *ack_timeout* keeps the
    focus on routing: migration parking, not redelivery storms, is the
    mechanism under test, and a mid-run split must lose nothing.
    """
    worker_ids = list(worker_ids)
    if len(worker_ids) < 2:
        raise SimulationError("hot-range splitting needs somewhere to"
                              " move the heat: use >= 2 workers")
    if key_count < 1:
        raise SimulationError("need at least one key")
    delivery = (DeliveryConfig(mode=AT_LEAST_ONCE,
                               replay_capacity=replay_capacity,
                               dedup_window=dedup_window,
                               max_delivery_attempts=max_delivery_attempts)
                if at_least_once else None)
    return SwarmConfig(
        workload=workload_for_app(app, input_rate),
        workers=profiles.worker_profiles(worker_ids),
        source=profiles.device_profile(profiles.SOURCE_ID),
        policy_config=PolicyConfig(
            ack_timeout=ack_timeout, dead_after=dead_after, delivery=delivery,
            keyed=KeyedConfig(key_count=key_count, zipf_alpha=zipf_alpha,
                              split_enabled=split_enabled,
                              hot_ratio=hot_ratio,
                              min_split_interval=min_split_interval,
                              max_splits=max_splits)),
        duration=duration,
        seed=seed,
    )


def moving(app: str = FACE_APP, duration: float = 180.0, seed: int = 0,
           worker_ids: Sequence[str] = ("B", "G", "H"),
           mover_id: str = "G", dwell: float = 60.0,
           regions: Sequence[str] = ("good", "fair", "poor")) -> SwarmConfig:
    """Fig. 10: B, G, H compute under LRS; G walks away from the AP,
    visiting the good / fair / poor signal regions for a minute each."""
    plan = MobilityPlan()
    for device_id in worker_ids:
        if device_id == mover_id:
            plan.add(MobilityTrace.walk(device_id, list(regions), dwell))
        else:
            plan.add(MobilityTrace.stationary(device_id, RSSI_GOOD))
    return SwarmConfig(
        workload=workload_for_app(app),
        workers=profiles.worker_profiles(list(worker_ids)),
        source=profiles.device_profile(profiles.SOURCE_ID),
        duration=duration,
        seed=seed,
        mobility=plan,
    )
