"""Command-line interface for running Swing experiments.

Usage::

    python -m repro testbed --policy LRS --app face --duration 60
    python -m repro compare --app face --seeds 0 1 2
    python -m repro single --device E --rate 24
    python -m repro dynamics --mode leave
    python -m repro cloudlet --policy LRS
    python -m repro faults --kill B G --kill-time 10
    python -m repro overload --ttl 2 --queue-capacity 8
    python -m repro tenants --tenants 3 --hot-tenant t0
    python -m repro failover --kill-time 12 --outage 4
    python -m repro skew --keys 64 --alpha 1.2
    python -m repro trace --out swing.trace.json

Each subcommand runs a calibrated simulation and prints a summary table;
exit code 0 on success.  ``--metrics-json PATH`` (on single-run
subcommands) dumps the run's full metrics registry — counters, gauges
and histogram summaries, plus the trace summary when tracing was on —
as one JSON document.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import statistics
import sys
from typing import List, Optional

from repro import trace as trace_mod
from repro.core.controller import PolicyConfig
from repro.core.overload import DROP_POLICIES, DROP_OLDEST
from repro.core.policies import POLICY_NAMES
from repro.simulation import scenarios
from repro.simulation.replication import compare_policies
from repro.simulation.swarm import SwarmResult, run_swarm
from repro.simulation.workload import FACE_APP, TRANSLATE_APP
from repro.tools import format_latency, format_table, sparkline

APP_ALIASES = {"face": FACE_APP, "translation": TRANSLATE_APP,
               "translate": TRANSLATE_APP}


def _app(name: str) -> str:
    try:
        return APP_ALIASES[name]
    except KeyError:
        raise argparse.ArgumentTypeError(
            "unknown app %r (expected face|translation)" % name) from None


def _rate01(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            "sample rate must be in [0, 1], got %r" % text)
    return value


def _add_metrics_flags(parser: argparse.ArgumentParser,
                       counters: Optional[str] = None) -> None:
    """``--metrics`` (when the command has a *counters* dump to offer)
    and ``--metrics-json``."""
    if counters is not None:
        parser.add_argument("--metrics", action="store_true",
                            help="print the run's %s" % counters)
    parser.add_argument("--metrics-json", metavar="PATH", default=None,
                        help="dump the run's metrics registry (and trace "
                             "summary when tracing is on) as JSON")


def _add_scenario(sub, name: str, help: str, duration: float, seed: int,
                  policy: bool = True) -> argparse.ArgumentParser:
    """A scenario subcommand, with the flags they all share up front."""
    parser = sub.add_parser(name, help=help)
    if policy:
        parser.add_argument("--policy", default="LRS", choices=POLICY_NAMES)
    parser.add_argument("--app", type=_app, default="face")
    parser.add_argument("--duration", type=float, default=duration)
    parser.add_argument("--seed", type=int, default=seed)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Swing (ICDCS'18) reproduction: swarm experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    testbed = _add_scenario(sub, "testbed",
                            "the Sec. VI-B routing-comparison testbed",
                            duration=60.0, seed=0)
    testbed.add_argument("--csv", metavar="PATH", default=None,
                         help="write the per-frame trace to PATH")
    _add_metrics_flags(testbed, "failure/loss counters")

    compare = sub.add_parser("compare",
                             help="all five policies, replicated over seeds")
    compare.add_argument("--app", type=_app, default="face")
    compare.add_argument("--duration", type=float, default=60.0)
    compare.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])

    single = sub.add_parser("single",
                            help="stream to one device (Sec. III)")
    single.add_argument("--device", default="B")
    single.add_argument("--rate", type=float, default=24.0)
    single.add_argument("--duration", type=float, default=10.0)
    single.add_argument("--signal", default="good",
                        choices=["good", "fair", "poor"])
    _add_metrics_flags(single)

    dynamics = sub.add_parser("dynamics",
                              help="join / leave / move experiments "
                                   "(Sec. VI-C)")
    dynamics.add_argument("--mode", required=True,
                          choices=["join", "leave", "move"])
    dynamics.add_argument("--seed", type=int, default=0)
    _add_metrics_flags(dynamics, "failure/loss counters")

    faults = _add_scenario(sub, "faults",
                           "fault injection: silent kills mid-stream "
                           "discovered via loss accounting",
                           duration=30.0, seed=0)
    faults.add_argument("--kill", nargs="+", default=["B", "G"],
                        metavar="DEVICE",
                        help="devices killed silently mid-run")
    faults.add_argument("--kill-time", type=float, default=10.0)
    faults.add_argument("--revive-time", type=float, default=None,
                        help="bring the killed devices back at this time")
    # Tight ACK timeout so kills are detected within the short run; the
    # dead-marking threshold is the control plane's shared default.
    faults.add_argument("--ack-timeout", type=float, default=2.0)
    faults.add_argument("--dead-after", type=int,
                        default=PolicyConfig().dead_after)
    _add_metrics_flags(faults)

    overload = _add_scenario(sub, "overload",
                             "chaos/soak: sustained overload with bounded "
                             "queues, TTL shedding and a mid-run "
                             "kill/revive", duration=30.0, seed=0)
    overload.add_argument("--overload-until", type=float, default=14.0,
                          help="background load lifts at this time")
    overload.add_argument("--background", type=float, default=0.8,
                          help="per-worker background CPU load in [0, 1]")
    overload.add_argument("--ttl", type=float, default=2.0,
                          help="tuple time-to-live in seconds")
    overload.add_argument("--queue-capacity", type=int, default=8,
                          help="bounded worker-ingress capacity in frames")
    overload.add_argument("--drop-policy", default=DROP_OLDEST,
                          choices=sorted(DROP_POLICIES))
    overload.add_argument("--no-kill", action="store_true",
                          help="skip the mid-overload kill/revive of G")
    _add_metrics_flags(overload, "shed/loss counters and queue-depth gauges")

    churn = _add_scenario(sub, "churn",
                          "churn soak: seeded kill/leave/rejoin schedule "
                          "under at-least-once delivery",
                          duration=40.0, seed=7)
    churn.add_argument("--best-effort", action="store_true",
                       help="run the same schedule without replay/dedup "
                            "(reproduces today's loss accounting)")
    churn.add_argument("--settle", type=float, default=10.0,
                       help="churn stops this many seconds before the end "
                            "so outstanding redeliveries can land")
    _add_metrics_flags(churn, "delivery/loss counters")

    failover = _add_scenario(sub, "failover",
                             "master failover soak: kill the master "
                             "mid-run, restart it, and require zero "
                             "at-least-once loss", duration=40.0, seed=11)
    failover.add_argument("--kill-time", type=float, default=12.0,
                          help="the master dies at this time")
    failover.add_argument("--outage", type=float, default=4.0,
                          help="seconds until the successor master is up")
    failover.add_argument("--best-effort", action="store_true",
                          help="run the same outage without replay/dedup "
                               "(shows what an unguarded crash loses)")
    failover.add_argument("--settle", type=float, default=10.0,
                          help="the outage must end this many seconds "
                               "before the run does, so redeliveries land")
    _add_metrics_flags(failover, "recovery/loss counters")

    tenants = _add_scenario(sub, "tenants",
                            "multi-tenant isolation soak: N pipelines "
                            "share one swarm under fair-share admission",
                            duration=30.0, seed=3)
    tenants.add_argument("--tenants", dest="tenant_count", type=int,
                         default=3, metavar="N",
                         help="number of tenant pipelines sharing the swarm")
    tenants.add_argument("--rate", type=float, default=6.0,
                         help="per-tenant source rate in tuples/s")
    tenants.add_argument("--hot-tenant", default=None, metavar="TENANT",
                         help="ramp this tenant (t0..tN-1) past its fair "
                              "share; omit for an even baseline")
    tenants.add_argument("--hot-factor", type=float, default=4.0,
                         help="hot tenant's rate multiplier")
    tenants.add_argument("--queue-capacity", type=int, default=12,
                         help="bounded worker-ingress capacity in frames "
                              "(split into fair-share budgets)")
    tenants.add_argument("--ttl", type=float, default=2.0,
                         help="tuple time-to-live in seconds")
    tenants.add_argument("--best-effort", action="store_true",
                         help="run without at-least-once replay/dedup")
    _add_metrics_flags(tenants, "shed/loss counters")

    skew = _add_scenario(sub, "skew",
                         "keyed-skew soak: Zipf-hot keys, hot-range "
                         "splitting and live state migration",
                         duration=40.0, seed=3, policy=False)
    skew.add_argument("--keys", type=int, default=64,
                      help="size of the user/key universe")
    skew.add_argument("--alpha", type=float, default=1.2,
                      help="Zipf exponent of the key popularity")
    skew.add_argument("--rate", type=float, default=16.0,
                      help="source input rate in tuples/s")
    skew.add_argument("--static", action="store_true",
                      help="disable hot-range splitting (the static "
                           "hash-routing baseline)")
    skew.add_argument("--bound", type=float, default=1.0,
                      help="latency bound for SLO throughput in seconds")
    skew.add_argument("--best-effort", action="store_true",
                      help="run without at-least-once replay/dedup")
    _add_metrics_flags(skew, "keyed/migration counters")

    verify = sub.add_parser("verify",
                            help="chaos sweep: N seeded fault schedules "
                                 "checked against the global invariant "
                                 "catalog; violations shrink to a minimal "
                                 "JSON repro")
    verify.add_argument("--schedules", type=int, default=20, metavar="N",
                        help="number of seeded schedules to explore")
    verify.add_argument("--seed", type=int, default=1,
                        help="base seed; schedule i uses seed + i")
    verify.add_argument("--substrate", default="sim",
                        choices=["sim", "runtime", "both"],
                        help="which substrate(s) execute each schedule")
    verify.add_argument("--out", default=None, metavar="FILE",
                        help="write the first failing schedule's shrunk "
                             "repro JSON here")
    verify.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run a repro JSON written by --out "
                             "instead of sweeping")
    verify.add_argument("--no-shrink", action="store_true",
                        help="report failures without ddmin shrinking")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress per-schedule progress lines")

    cloudlet = sub.add_parser("cloudlet",
                              help="testbed plus a cloudlet VM (Sec. II)")
    cloudlet.add_argument("--policy", default="LRS", choices=POLICY_NAMES)
    cloudlet.add_argument("--app", type=_app, default="face")
    cloudlet.add_argument("--duration", type=float, default=60.0)

    trace = sub.add_parser("trace",
                           help="run a traced scenario, export spans, and "
                                "check measured vs analytic delay "
                                "decomposition")
    trace.add_argument("--scenario", default="single",
                       choices=["single", "testbed"])
    trace.add_argument("--policy", default="LRS", choices=POLICY_NAMES)
    trace.add_argument("--app", type=_app, default="face")
    trace.add_argument("--device", default="B",
                       help="worker device for --scenario single")
    trace.add_argument("--rate", type=float, default=24.0)
    trace.add_argument("--duration", type=float, default=10.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--sample-rate", type=_rate01, default=1.0,
                       help="fraction of tuples traced (deterministic "
                            "in seed and seq)")
    trace.add_argument("--out", metavar="PATH", default="swing.trace.json",
                       help="Chrome trace_event JSON (chrome://tracing / "
                            "Perfetto)")
    trace.add_argument("--jsonl", metavar="PATH", default=None,
                       help="also write raw spans as JSONL")
    _add_metrics_flags(trace)

    return parser


def _print_result(result: SwarmResult) -> None:
    latency = result.latency
    rows = [
        ("throughput", "%.1f FPS" % result.throughput),
        ("target", "%.1f FPS (%s)" % (
            result.config.workload.input_rate,
            "met" if result.meets_input_rate() else "missed")),
        ("latency mean", format_latency(latency.mean) if latency else "n/a"),
        ("latency max", format_latency(latency.maximum) if latency else "n/a"),
        ("frames lost", str(result.frames_lost)),
        ("aggregate power", "%.2f W" % result.energy.aggregate_w),
        ("efficiency", "%.2f FPS/W" % result.fps_per_watt()),
    ]
    print(format_table(["metric", "value"], rows, min_width=16))
    rates = result.input_rates()
    print()
    print(format_table(["device", "input FPS", "cpu %"],
                       [(device_id, "%.1f" % rates[device_id],
                         "%.0f" % (100 * cpu))
                        for device_id, cpu in
                        sorted(result.cpu_utilization().items())]))


def _print_registry(result: SwarmResult) -> None:
    """Dump the run's counter registry (sent/acked/lost/marked-dead…)."""
    if result.registry is None:
        return
    rendered = result.registry.render()
    print()
    print("counters:")
    print(rendered if rendered else "  (none)")


def _write_metrics_json(result: SwarmResult, args) -> None:
    """Honor ``--metrics-json PATH`` on single-run subcommands."""
    path = getattr(args, "metrics_json", None)
    if not path:
        return
    body = {"metrics": (result.registry.to_dict()
                        if result.registry is not None else {})}
    if result.trace:
        body["trace"] = trace_mod.summarize(result.trace)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle, indent=2, sort_keys=True)
    print("\nmetrics written to %s" % path)


def _report(result: SwarmResult, args, failure: Optional[str],
            rows: Optional[list] = None, min_width: int = 24) -> int:
    """The tail every scenario command shares; returns the exit code.

    Throughput sparkline and metric/value table (*rows*; ``None`` when
    the command printed its own body), the counter dump (``--metrics``;
    always for commands without the flag), ``--metrics-json``, then
    *failure* — the first guarantee the run broke — as a ``FAIL:`` line.
    """
    if rows is not None:
        series = result.throughput_series()
        print("throughput: [%s] peak %.0f FPS"
              % (sparkline(series, peak=28.0), max(series)))
        print(format_table(["metric", "value"], rows, min_width=min_width))
    if getattr(args, "metrics", True):
        _print_registry(result)
    _write_metrics_json(result, args)
    if failure:
        print("FAIL: %s" % failure)
        return 1
    return 0


def cmd_testbed(args) -> int:
    result = run_swarm(scenarios.testbed(app=args.app, policy=args.policy,
                                         duration=args.duration,
                                         seed=args.seed))
    print("testbed: %s under %s for %.0fs"
          % (args.app, args.policy, args.duration))
    _print_result(result)
    if args.metrics:
        _print_registry(result)
    if args.csv:
        result.metrics.write_csv(args.csv)
        print("\nper-frame trace written to %s" % args.csv)
    _write_metrics_json(result, args)
    return 0


def cmd_compare(args) -> int:
    outcomes = compare_policies(
        lambda policy: scenarios.testbed(app=args.app, policy=policy,
                                         duration=args.duration),
        POLICY_NAMES, args.seeds)
    rows = []
    for policy in POLICY_NAMES:
        replicated = outcomes[policy]
        throughput = replicated.throughput()
        latency = replicated.latency_mean()
        efficiency = replicated.fps_per_watt()
        rows.append((policy,
                     "%.1f ± %.1f" % (throughput.mean,
                                      throughput.ci95_halfwidth),
                     "%.2f ± %.2f" % (latency.mean, latency.ci95_halfwidth),
                     "%.2f" % efficiency.mean))
    print("policy comparison: %s, %d seeds" % (args.app, len(args.seeds)))
    print(format_table(["policy", "thr FPS", "lat s", "FPS/W"], rows))
    return 0


def cmd_single(args) -> int:
    from repro.simulation.network import rssi_for_region
    config = scenarios.single_device(args.device, input_rate=args.rate,
                                     duration=args.duration,
                                     rssi=rssi_for_region(args.signal))
    result = run_swarm(config)
    decomposition = result.metrics.delay_decomposition()
    print("single device %s at %.0f FPS (%s signal) for %.0fs"
          % (args.device, args.rate, args.signal, args.duration))
    print(format_table(
        ["metric", "value"],
        [("completed", "%d frames" % len(result.metrics.completed_frames())),
         ("throughput", "%.1f FPS" % result.throughput),
         ("transmission", format_latency(decomposition["transmission"])),
         ("queuing", format_latency(decomposition["queuing"])),
         ("processing", format_latency(decomposition["processing"]))],
        min_width=14))
    _write_metrics_json(result, args)
    return 0


def cmd_dynamics(args) -> int:
    if args.mode == "join":
        result = run_swarm(scenarios.joining(seed=args.seed))
        note = "G joins at t=10s"
    elif args.mode == "leave":
        result = run_swarm(scenarios.leaving(seed=args.seed))
        note = "G killed at t=15s"
    else:
        result = run_swarm(scenarios.moving(seed=args.seed))
        note = "G walks good->fair->poor"
    series = result.throughput_series()
    print("dynamics/%s (%s)" % (args.mode, note))
    print("throughput: [%s] peak %.0f FPS"
          % (sparkline(series, peak=28.0), max(series)))
    print("frames lost: %d" % result.frames_lost)
    if args.metrics:
        _print_registry(result)
    _write_metrics_json(result, args)
    return 0


def cmd_faults(args) -> int:
    config = scenarios.fault_injection(
        app=args.app, policy=args.policy, duration=args.duration,
        seed=args.seed, kill_ids=tuple(args.kill),
        kill_time=args.kill_time, revive_time=args.revive_time,
        ack_timeout=args.ack_timeout, dead_after=args.dead_after)
    result = run_swarm(config)
    revive_note = ("" if args.revive_time is None
                   else ", revived at t=%.0fs" % args.revive_time)
    print("fault injection: %s killed silently at t=%.0fs%s"
          % ("/".join(args.kill), args.kill_time, revive_note))
    # Guarantee: a silently-killed worker must be detected.  A kill with
    # no revive that is still undetected at the end of the run means the
    # failure detector lost it.
    undetected = [device_id for device_id in args.kill
                  if args.revive_time is None
                  and device_id not in result.dead_downstreams]
    return _report(
        result, args,
        "killed device(s) never dead-marked: %s" % ", ".join(undetected)
        if undetected else None,
        [("throughput", "%.1f FPS" % result.throughput),
         ("frames lost", str(result.frames_lost)),
         ("lost per downstream",
          ", ".join("%s=%d" % (device_id, count)
                    for device_id, count in
                    sorted(result.lost_by_downstream.items())) or "none"),
         ("dead at end", ", ".join(result.dead_downstreams) or "none")],
        min_width=20)


def cmd_overload(args) -> int:
    config = scenarios.overload(
        app=args.app, policy=args.policy, duration=args.duration,
        seed=args.seed, overload_until=args.overload_until,
        background=args.background, ttl=args.ttl,
        queue_capacity=args.queue_capacity, drop_policy=args.drop_policy,
        kill_id=None if args.no_kill else "G")
    result = run_swarm(config)
    print("overload soak: %s under %s, background %.0f%% until t=%.0fs, "
          "ttl %.1fs, ingress capacity %d (%s)"
          % (args.app, args.policy, 100 * args.background,
             args.overload_until, args.ttl, args.queue_capacity,
             args.drop_policy))
    completed = result.metrics.completed_frames()
    early = [record.total_delay for record in completed
             if record.created_at < args.overload_until]
    late = [record.total_delay for record in completed
            if record.created_at >= args.overload_until + 2.0]
    sheds = ", ".join("%s=%d" % item
                      for item in sorted(result.shed_by_reason.items()))
    depths = ", ".join("%s=%d" % item
                       for item in sorted(result.max_queue_depths.items()))
    # Guarantee: overload protection keeps every bounded ingress queue
    # at or under its configured capacity.
    over = {name: depth
            for name, depth in result.max_queue_depths.items()
            if name.startswith("ingress:")
            and depth > args.queue_capacity}
    return _report(
        result, args,
        "bounded queue(s) exceeded capacity %d: %s"
        % (args.queue_capacity,
           ", ".join("%s=%d" % item for item in sorted(over.items())))
        if over else None,
        [("throughput", "%.1f FPS" % result.throughput),
         ("shed by reason", sheds or "none"),
         ("max queue depth", depths or "none"),
         ("p50 under overload",
          format_latency(statistics.median(early)) if early else "n/a"),
         ("p50 after recovery",
          format_latency(statistics.median(late)) if late else "n/a"),
         ("frames lost", str(result.frames_lost))],
        min_width=20)


def cmd_churn(args) -> int:
    config = scenarios.churn(app=args.app, policy=args.policy,
                             duration=args.duration, seed=args.seed,
                             at_least_once=not args.best_effort,
                             settle=args.settle)
    result = run_swarm(config)
    schedule = config.schedule
    mode = "best-effort" if args.best_effort else "at-least-once"
    print("churn soak: %s under %s (%s), %d events over %.0fs"
          % (args.app, args.policy, mode, len(schedule), args.duration))
    print("schedule: %s"
          % "; ".join("t=%.1fs %s %s" % (event.time, event.action,
                                         event.target)
                      for event in schedule))
    # Judge loss on frames old enough that every redelivery had time to
    # land: the settle window at the end of the run.
    horizon = args.duration - args.settle / 2.0
    losses = result.end_to_end_losses(horizon)
    drains = ", ".join("%s=%.2fs" % item
                       for item in sorted(result.drain_seconds.items()))
    evictions = ", ".join("%s=%d" % item
                          for item in
                          sorted(result.replay_evicted_by_reason.items()))
    return _report(
        result, args,
        "%d tuple(s) lost end-to-end under at-least-once delivery: %s"
        % (len(losses), losses[:20])
        if not args.best_effort and losses else None,
        [("throughput", "%.1f FPS" % result.throughput),
         ("frames dropped", str(result.frames_lost)),
         ("end-to-end lost", str(len(losses))),
         ("redelivered", str(result.redelivered)),
         ("sink duplicates deduped", str(result.deduped)),
         ("replay evictions", evictions or "none"),
         ("retained at end", str(result.replay_depth_end)),
         ("graceful drains", drains or "none")])


def cmd_failover(args) -> int:
    config = scenarios.failover(app=args.app, policy=args.policy,
                                duration=args.duration, seed=args.seed,
                                kill_time=args.kill_time,
                                outage=args.outage,
                                at_least_once=not args.best_effort,
                                settle=args.settle)
    result = run_swarm(config)
    mode = "best-effort" if args.best_effort else "at-least-once"
    print("failover soak: %s under %s (%s), master down t=%.0fs..%.0fs "
          "of %.0fs"
          % (args.app, args.policy, mode, args.kill_time,
             args.kill_time + args.outage, args.duration))
    # Judge loss on frames old enough that every post-recovery
    # redelivery had time to land: the settle window at the end.
    horizon = args.duration - args.settle / 2.0
    losses = result.end_to_end_losses(horizon)
    failure = None
    if result.master_recoveries < 1:
        failure = "the master never recovered during the run"
    elif not args.best_effort and losses:
        failure = ("%d tuple(s) lost end-to-end across the master "
                   "kill+restart under at-least-once delivery: %s"
                   % (len(losses), losses[:20]))
    return _report(
        result, args, failure,
        [("throughput", "%.1f FPS" % result.throughput),
         ("master recoveries", str(result.master_recoveries)),
         ("frames dropped", str(result.frames_lost)),
         ("end-to-end lost", str(len(losses))),
         ("redelivered", str(result.redelivered)),
         ("sink duplicates deduped", str(result.deduped)),
         ("retained at end", str(result.replay_depth_end))])


def cmd_tenants(args) -> int:
    config = scenarios.tenants(
        app=args.app, policy=args.policy, duration=args.duration,
        seed=args.seed, tenant_count=args.tenant_count,
        per_tenant_rate=args.rate, hot_tenant=args.hot_tenant,
        hot_rate_factor=args.hot_factor,
        at_least_once=not args.best_effort,
        ttl=args.ttl, queue_capacity=args.queue_capacity)
    result = run_swarm(config)
    mode = "best-effort" if args.best_effort else "at-least-once"
    hot_note = ("" if args.hot_tenant is None
                else ", %s at %.0fx" % (args.hot_tenant, args.hot_factor))
    print("tenants: %d pipelines of %s under %s (%s)%s, %.1f tup/s each"
          % (args.tenant_count, args.app, args.policy, mode, hot_note,
             args.rate))
    # Judge loss on frames old enough for every redelivery to land.
    horizon = args.duration - 5.0
    rows = []
    victim_losses: List[int] = []
    for spec in config.tenants:
        tenant = spec.tenant_id
        latency = result.tenant_latency(tenant, after=5.0)
        losses = result.tenant_losses(tenant, horizon=horizon)
        if tenant != args.hot_tenant:
            victim_losses.extend(losses)
        rows.append((tenant,
                     "%.1f" % result.tenant_throughput(tenant),
                     format_latency(latency.mean) if latency else "n/a",
                     format_latency(latency.maximum) if latency else "n/a",
                     str(result.shed_by_tenant.get(tenant, 0)),
                     str(len(losses))))
    print(format_table(
        ["tenant", "thr FPS", "lat mean", "lat max", "shed", "lost"], rows))
    print("frames dropped: %d  |  redelivered: %d  |  deduped: %d"
          % (result.frames_lost, result.redelivered, result.deduped))
    return _report(
        result, args,
        "%d victim-tenant tuple(s) lost end-to-end under at-least-once "
        "delivery: %s" % (len(victim_losses), sorted(victim_losses)[:20])
        if not args.best_effort and victim_losses else None)


def cmd_skew(args) -> int:
    config = scenarios.skew(app=args.app, duration=args.duration,
                            seed=args.seed, key_count=args.keys,
                            zipf_alpha=args.alpha, input_rate=args.rate,
                            split_enabled=not args.static,
                            at_least_once=not args.best_effort)
    result = run_swarm(config)
    mode = "static hash routing" if args.static else "hot-range splitting"
    print("keyed skew: %s, %d keys Zipf(%.1f) at %.1f tup/s (%s)"
          % (args.app, args.keys, args.alpha, args.rate, mode))
    # Judge loss on frames old enough for every redelivery to land.
    horizon = args.duration - 5.0
    losses = result.end_to_end_losses(horizon)
    moves = ", ".join("%s=%d" % item
                      for item in sorted(result.key_moves_by_reason.items()))
    return _report(
        result, args,
        "%d tuple(s) lost end-to-end across hot-range migration under "
        "at-least-once delivery: %s" % (len(losses), losses[:20])
        if not args.best_effort and not args.static and losses else None,
        [("throughput", "%.1f FPS" % result.throughput),
         ("SLO throughput (<=%.1fs)" % args.bound,
          "%.1f FPS" % result.bounded_throughput(args.bound, warmup=5.0)),
         ("hot ranges detected", str(result.hot_ranges_detected)),
         ("range splits", str(result.key_splits)),
         ("range moves", moves or "none"),
         ("end-to-end lost", str(len(losses))),
         ("redelivered", str(result.redelivered)),
         ("sink duplicates deduped", str(result.deduped))])


def cmd_trace(args) -> int:
    if args.scenario == "single":
        from repro.simulation.network import rssi_for_region
        config = scenarios.single_device(args.device, input_rate=args.rate,
                                         duration=args.duration,
                                         seed=args.seed,
                                         rssi=rssi_for_region("good"))
        label = "single device %s" % args.device
    else:
        config = scenarios.testbed(app=args.app, policy=args.policy,
                                   duration=args.duration, seed=args.seed)
        label = "testbed under %s" % args.policy
    config = dataclasses.replace(config,
                                 trace_sample_rate=args.sample_rate)
    result = run_swarm(config)
    spans = result.trace
    summary = trace_mod.summarize(spans)
    measured = summary["delay_decomposition"]
    analytic = result.metrics.delay_decomposition()
    print("trace: %s for %.0fs at sample rate %.2f"
          % (label, args.duration, args.sample_rate))
    print(format_table(
        ["component", "measured", "analytic"],
        [(component, format_latency(measured[component]),
          format_latency(analytic[component]))
         for component in trace_mod.COMPONENTS],
        min_width=14))
    print(format_table(
        ["spans", "value"],
        [("total", str(summary["spans"])),
         ("tuples traced", str(summary["tuples"]))]
        + [("kind %s" % kind, str(count))
           for kind, count in summary["by_kind"].items()],
        min_width=14))
    trace_json = trace_mod.to_chrome_trace(spans)
    trace_mod.validate_chrome_trace(trace_json)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(trace_json, handle)
    print("chrome trace written to %s (open in chrome://tracing)" % args.out)
    if args.jsonl:
        trace_mod.write_jsonl(spans, args.jsonl)
        print("spans written to %s" % args.jsonl)
    _write_metrics_json(result, args)
    return 0


def cmd_cloudlet(args) -> int:
    baseline = run_swarm(scenarios.testbed(app=args.app, policy=args.policy,
                                           duration=args.duration))
    assisted = run_swarm(scenarios.cloudlet_mode(app=args.app,
                                                 policy=args.policy,
                                                 duration=args.duration))
    rows = []
    for label, result in (("phones only", baseline),
                          ("with cloudlet", assisted)):
        rows.append((label, "%.1f" % result.throughput,
                     format_latency(result.latency.mean),
                     "%.2f W" % result.energy.aggregate_w))
    print("cloudlet mode: %s under %s" % (args.app, args.policy))
    print(format_table(["setup", "thr FPS", "latency", "power"], rows))
    return 0


def cmd_verify(args) -> int:
    from repro.verify import adapters as verify_adapters
    from repro.verify import explorer

    progress = None if args.quiet else print
    if args.replay is not None:
        case, violations = explorer.replay(args.replay, progress=progress)
        print("replayed %d-event repro (seed=%s) on %s"
              % (len(case.shrunk), case.shrunk.seed, case.substrate))
        if violations:
            for violation in violations:
                print("FAIL: [%s] %s"
                      % (violation.invariant, violation.message))
            return 1
        print("clean: the repro no longer violates any invariant")
        return 0
    substrates = (verify_adapters.SUBSTRATES if args.substrate == "both"
                  else (args.substrate,))
    report = explorer.explore(args.schedules, seed=args.seed,
                              substrates=substrates,
                              shrink_failures=not args.no_shrink,
                              progress=progress)
    clean = sum(1 for record in report.runs if record.ok)
    print("verify: %d schedule(s) x %s -> %d/%d run(s) clean"
          % (args.schedules, "+".join(substrates), clean,
             len(report.runs)))
    # Coverage a run could not apply is a note, not a failure: say how
    # much of the sweep it touched, and what it was.
    print("coverage notes: %s" % ", ".join(
        "%s %d/%d run(s)" % (substrate,
                             sum(1 for record in report.runs
                                 if record.substrate == substrate
                                 and record.notes),
                             args.schedules)
        for substrate in substrates))
    texts = collections.Counter((record.substrate, note)
                                for record in report.runs
                                for note in set(record.notes))
    for (substrate, note), runs in sorted(texts.items()):
        print("  %s, %d run(s): %s" % (substrate, runs, note))
    if report.ok:
        return 0
    for case in report.failures:
        print("FAIL: seed=%s substrate=%s shrunk to %d event(s):"
              % (case.schedule.seed, case.substrate, len(case.shrunk)))
        for event in case.shrunk:
            print("  t=%.1fs %s %s" % (event.time, event.action,
                                       event.target))
        for violation in case.violations:
            print("  [%s] %s" % (violation.invariant, violation.message))
    if args.out is not None:
        explorer.write_repro(report.failures[0], args.out)
        print("repro written to %s (re-run: swing verify --replay %s)"
              % (args.out, args.out))
    return 1


COMMANDS = {
    "testbed": cmd_testbed,
    "compare": cmd_compare,
    "single": cmd_single,
    "dynamics": cmd_dynamics,
    "cloudlet": cmd_cloudlet,
    "faults": cmd_faults,
    "overload": cmd_overload,
    "churn": cmd_churn,
    "failover": cmd_failover,
    "tenants": cmd_tenants,
    "skew": cmd_skew,
    "trace": cmd_trace,
    "verify": cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
