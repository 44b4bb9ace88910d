"""One benchmark run, inside a fresh interpreter that can import ``repro``.

``run.py`` starts this with ``PYTHONPATH=src`` and a pinned hash seed and
reads the JSON object printed on the last line.  A run is a discarded
warm-up followed by rounds (gated on the closed loops, back-to-back
windows of one stream on the open loop); see README.md for the
measurement rules.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from typing import Dict, List, Optional

import calibrate
from loadgen import check, percentile
from swarm import Job, Swarm, clock
from workloads import (LATE_LIMIT_MS, LATE_SHARE_LIMIT, WARMUP_SECONDS,
                       WORKLOADS, Workload)

ROUND_TIMEOUT_S = 30.0
N_PROBES = 5
HERE = os.path.dirname(os.path.abspath(__file__))


class RunInvalid(RuntimeError):
    """The measurement (not the program) was defective."""


def run_probe(workload: Workload, seed: int) -> Dict[str, float]:
    """One fresh-interpreter set-up probe; returns its raw phase times."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"),
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=False)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed:\n%s" % done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


class ReferenceMismatch(RuntimeError):
    """Tuples were missing, duplicated or wrong at the sink."""


class Phase:
    """One swarm and its measurement: gated rounds on a closed-loop
    workload, one continuous stream cut into windows on the open-loop one."""

    def __init__(self, workload: Workload, seed: int, quick: bool,
                 tracer=None, warm_up_s: float = WARMUP_SECONDS) -> None:
        self.workload = workload
        self.quick = quick
        self.warm_up_s = 0.3 if quick else warm_up_s
        #: a quick (smoke) run shrinks closed-loop rounds, keeping whole
        #: batches; an open-loop window stays whole, since one stall in a
        #: quarter window would exceed the late-tuple limit
        self.round_tuples = (max(workload.probe_tuples,
                                 workload.round_tuples // 4)
                             if quick and workload.closed
                             else workload.round_tuples)
        self.job = Job(workload, seed)
        self.tracer = tracer
        self.swarm = Swarm(
            self.job,
            wrap_fabric=tracer.wrap_fabric if tracer is not None else None)
        self.rounds: List[dict] = []
        self.probes: List[Dict[str, float]] = []
        self.attempted = 0
        self.idle_cpu_max = 0.0
        #: kernel time of every calibration made, rounds' and probes' alike
        self.kernels: List[float] = []

    def run(self, seconds: float, probe_seed: Optional[int] = None,
            probes: int = 0) -> None:
        """Start the swarm, warm up, measure for *seconds*, stop; *probes*
        set-up probes are spread through the moments the swarm is idle."""
        try:
            self.swarm.start()
            if self.workload.closed:
                self._rounds(seconds, probe_seed, probes)
            else:
                self._stream(seconds, probe_seed, probes)
            if self.tracer is not None:
                self.tracer.collect()
        finally:
            self.swarm.stop()

    def _calibrate(self) -> calibrate.Calibration:
        result = calibrate.calibrate()
        self.idle_cpu_max = max(self.idle_cpu_max, result.idle_cpu_frac)
        self.kernels.append(result.kernel_s)
        return result

    def _probe(self, seed: int) -> calibrate.Calibration:
        """One set-up probe in an idle moment; returns the calibration
        that follows it."""
        self.probes.append(run_probe(self.workload, seed))
        return self._calibrate()

    def _drain(self) -> None:
        deadline = clock() + 5.0
        quiet = 0
        while quiet < 2:
            if clock() > deadline:
                raise RuntimeError("swarm did not drain")
            time.sleep(0.002)
            quiet = quiet + 1 if self.swarm.idle() else 0

    def _release(self, count: int, timeout: float):
        """Let *count* tuples out, wait for them at the sink, check them
        against the reference; any mismatch ends the run."""
        job = self.job
        job.begin_round(count)
        job.done.wait(timeout)
        self._drain()
        emitted, arrivals = job.take_round()
        checked = check(emitted, arrivals)
        self.attempted += count
        failed = checked.failed + (count - len(emitted))
        if failed:
            raise ReferenceMismatch(
                "%d of %d tuples failed the reference check (%d missing, "
                "%d duplicated, %d wrong)"
                % (failed, count, checked.missing + count - len(emitted),
                   checked.duplicated, checked.wrong))
        return emitted, arrivals, checked

    # -- closed loop: gated rounds -------------------------------------------
    def _one_round(self) -> dict:
        emitted, arrivals, checked = self._release(self.round_tuples,
                                                 ROUND_TIMEOUT_S)
        if self.tracer is not None:
            self.tracer.deliveries_of(emitted, arrivals)
        return {
            "tuples": len(emitted),
            "raw_round_s": checked.last_arrival - emitted[0].stamp,
            "latencies": array("d", checked.latencies.values()),
            "first_stamp": emitted[0].stamp,
        }

    def _rounds(self, seconds: float, probe_seed: Optional[int],
                probes: int) -> None:
        """A discarded (but still checked) warm-up, then rounds until
        *seconds* are used, with a calibration in every gap."""
        started = clock()
        while clock() - started < self.warm_up_s:
            self._one_round()
        started = clock()
        probe_at = [seconds * (i + 1) / (probes + 1) for i in range(probes)]
        before = self._calibrate()
        longest = 0.0
        min_rounds = 2 if self.quick else 3
        while len(self.rounds) < min_rounds or not (
                self.quick or clock() - started + longest > seconds):
            if self.tracer is not None:
                self.tracer.round_begin()
            t0 = clock()
            result = self._one_round()
            longest = max(longest, clock() - t0)
            if self.tracer is not None:
                self.tracer.round_end(result)
            after = self._calibrate()
            result["kernel_before_s"] = before.kernel_s
            result["kernel_after_s"] = after.kernel_s
            result["speed_factor"] = calibrate.speed_factor(before, after)
            self.rounds.append(result)
            before = after
            if probe_at and clock() - started >= probe_at[0]:
                probe_at.pop(0)
                before = self._probe(probe_seed)
        for _ in probe_at:  # the clock never reached them (quick runs)
            self._probe(probe_seed)

    # -- open loop: one continuous stream cut into windows -------------------
    def _idle_calibration(self) -> calibrate.Calibration:
        """The median of five calibrations: with no gaps to calibrate in,
        the stream's few readings are taken on a cold, idle machine and
        scatter more than the ones between closed-loop rounds."""
        readings = sorted(self._calibrate() for _ in range(5))
        return readings[2]

    def _stream(self, seconds: float, probe_seed: Optional[int],
                probes: int) -> None:
        """Gating an open loop makes LRS see a rate step at every round
        (the rounds that followed a 0.5 s probe gap showed p95 of 95-150 ms
        against 21-30 ms), so the timetable runs without a pause: a
        discarded lead-in, then back-to-back windows of ``round_tuples``.
        Probes and calibrations sit before and after the stream."""
        schedule = self.job.schedule
        per_window = self.round_tuples
        window_s = per_window * schedule.interval
        windows = max(2, 0 if self.quick else int(seconds / window_s))
        lead_in = int(round(self.warm_up_s / schedule.interval))
        total = lead_in + windows * per_window
        for _ in range(probes // 2):
            self._probe(probe_seed)
        before = self._idle_calibration()
        if self.tracer is not None:
            self.tracer.round_begin()
        emitted, arrivals, checked = self._release(
            total, total * schedule.interval + ROUND_TIMEOUT_S)
        if self.tracer is not None:
            self.tracer.deliveries_of(emitted, arrivals)
            self.tracer.round_end({
                "tuples": total, "first_stamp": emitted[0].stamp,
                "raw_round_s": total * schedule.interval})
        lates = schedule.lates
        after = self._idle_calibration()
        for _ in range(probes - probes // 2):
            self._probe(probe_seed)
        factor = calibrate.speed_factor(before, after)
        for index in range(windows):
            low = lead_in + index * per_window
            chunk = emitted[low:low + per_window]
            late = lates[low:low + per_window]
            begin = chunk[0].stamp
            latencies = array("d", (checked.latencies[e.seq] for e in chunk))
            self.rounds.append({
                "tuples": per_window,
                "raw_round_s": max(e.stamp + latency for e, latency
                                   in zip(chunk, latencies)) - begin,
                "latencies": latencies,
                "first_stamp": begin,
                "late_ms": 1e3 * max(late),
                "late_share": sum(1 for x in late
                                  if 1e3 * x > LATE_LIMIT_MS) / per_window,
                "kernel_before_s": before.kernel_s,
                "kernel_after_s": after.kernel_s,
                "speed_factor": factor,
            })


#: share of a closed-loop run's rounds, the calmest, whose tail is reported
CALM_SHARE = 0.10


def summarize(workload: Workload, rounds: List[dict]) -> Dict[str, float]:
    """One figure per metric from the per-round values.

    Closed loop, at reference speed: throughput and p50 are the median over
    rounds.  The tail is where the sandbox's stalls land — the median
    round's p95 followed the machine's regime (5.5 ms in a calm spell,
    7.2 ms in a busy one, after scaling) — so p95 is p50 times the mean
    p95/p50 ratio of the calmest tenth of the rounds (those with the
    lowest ratio), which moved half as much; likewise p99.  The ratio is
    raw over raw, so a noisy speed factor cannot pick the "calm" rounds.

    Open loop, unscaled: throughput is the median over windows; p50 and
    p95 are taken over all samples of the valid windows, because a
    window's p95 jumps between the discrete queueing levels of the
    9/12/46 ms workers and a median of eight such jumps is not steady.
    """
    valid = [r for r in rounds
             if r.get("late_share", 0.0) <= LATE_SHARE_LIMIT]
    if len(valid) * 2 < len(rounds):
        raise RunInvalid(
            "open-loop generator ran more than %.0f ms late for more than "
            "%.0f%% of the tuples in %d of %d windows"
            % (LATE_LIMIT_MS, 100 * LATE_SHARE_LIMIT,
               len(rounds) - len(valid), len(rounds)))
    scaled, raw = [], []
    for r in valid:
        factor = r["speed_factor"] if workload.closed else 1.0
        raw.append(r["tuples"] / r["raw_round_s"])
        scaled.append(r["tuples"] / (r["raw_round_s"] * factor))
    if workload.closed:
        medians = [percentile(r["latencies"], 50) for r in valid]
        calm = max(1, int(len(valid) * CALM_SHARE))

        def calm_ratio(q: float) -> float:
            ratios = sorted(percentile(r["latencies"], q) / median
                            for r, median in zip(valid, medians))
            return statistics.fmean(ratios[:calm])
        p50 = statistics.median(1e3 * r["speed_factor"] * median
                                for r, median in zip(valid, medians))
        p95 = p50 * calm_ratio(95)
        p99 = p50 * calm_ratio(99)
    else:
        pooled = array("d")
        for r in valid:
            pooled.extend(r["latencies"])
        p50, p95, p99 = (1e3 * percentile(pooled, q) for q in (50, 95, 99))
    factors = sorted(r["speed_factor"] for r in valid)
    quartiles = statistics.quantiles(factors, n=4) if len(factors) > 1 \
        else [factors[0]] * 3
    return {
        "tuples_per_s": statistics.median(scaled),
        "raw.tuples_per_s": statistics.median(raw),
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        "sink.latency_p99_ms": p99,
        "machine.speed_factor": statistics.median(factors),
        "machine.speed_factor_spread":
            (quartiles[2] - quartiles[0]) / statistics.median(factors),
        "gen.late_ms_max": max(r.get("late_ms", 0.0) for r in rounds),
        "rounds_valid": len(valid),
        "samples": sum(len(r["latencies"]) for r in valid),
    }


def slim(rounds: List[dict]) -> List[dict]:
    """Per-round raw values without the per-tuple latency lists."""
    out = []
    for r in rounds:
        row = {k: v for k, v in r.items() if k != "latencies"}
        if r["latencies"]:
            row["raw_p50_ms"] = 1e3 * percentile(r["latencies"], 50)
            row["raw_p95_ms"] = 1e3 * percentile(r["latencies"], 95)
        out.append(row)
    return out


def probe_medians(probes: List[Dict[str, float]],
                  kernels: List[float]) -> Dict[str, float]:
    """Median over the probes of every phase time, at the run's reference
    speed: a probe is CPU-bound whatever the workload's loop, and the
    median of all the run's kernel readings is steadier than the two
    around one probe."""
    factor = calibrate.REF_S / statistics.median(kernels)
    return {key: factor * statistics.median(p[key] for p in probes)
            for key in probes[0]}


def run_untraced(workload: Workload, seed: int, seconds: float,
                 quick: bool) -> dict:
    probes = [run_probe(workload, seed)]
    phase = Phase(workload, seed, quick)
    phase.run(seconds, seed, 1 if quick else N_PROBES - 1)
    probes += phase.probes
    summary = summarize(workload, phase.rounds)
    setup = probe_medians(probes, phase.kernels)
    metrics = {
        "tuples_per_s": summary["tuples_per_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p95_ms": summary["latency_p95_ms"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup["setup_s"],
    }
    return {
        "attempted": phase.attempted,
        "samples": summary["samples"], "metrics": metrics,
        "detail": {
            "summary": summary, "probes": probes,
            "idle_cpu_frac_max": phase.idle_cpu_max,
            "rounds": slim(phase.rounds),
        },
    }


#: share of ``--seconds`` each of the two phases of a traced run measures;
#: the layer pass (about 12 s) takes the rest of the same time cap
TRACED_PHASE_SHARE = 0.18


def run_traced(workload: Workload, seed: int, seconds: float,
               quick: bool) -> dict:
    """Untraced rounds, traced rounds, then the single-threaded layer
    pass, inside the time cap of an untraced run."""
    import layers
    import tracing

    share = seconds * TRACED_PHASE_SHARE
    probes = [run_probe(workload, seed)]
    plain = Phase(workload, seed, quick)
    plain.run(share, seed, 0 if quick else 2)
    tracer = tracing.Tracer(workload)
    traced = Phase(workload, seed, quick, tracer=tracer)
    tracer.attach(traced)
    traced.run(share, seed, 1 if quick else 2)
    probes += plain.probes + traced.probes
    base = summarize(workload, plain.rounds)
    summary = summarize(workload, traced.rounds)
    metrics: Dict[str, float] = {}
    metrics.update(tracer.metrics())
    for key in ("raw.tuples_per_s", "sink.latency_p99_ms", "gen.late_ms_max",
                "machine.speed_factor", "machine.speed_factor_spread"):
        metrics[key] = summary[key]
    metrics["machine.idle_cpu_frac"] = max(plain.idle_cpu_max,
                                           traced.idle_cpu_max)
    metrics["trace.overhead_frac"] = \
        1.0 - summary["tuples_per_s"] / base["tuples_per_s"]
    setup = probe_medians(probes, plain.kernels + traced.kernels)
    for key, value in setup.items():
        if key != "setup_s":
            metrics["setup." + key] = value
    metrics.update(layers.layer_pass(seed, quick))
    trace_path = tracer.write(os.path.join(HERE, "results", "traces"), seed)
    return {
        "attempted": plain.attempted + traced.attempted,
        "samples": summary["samples"], "metrics": metrics,
        "detail": {
            "untraced_tuples_per_s": base["tuples_per_s"],
            "traced_tuples_per_s": summary["tuples_per_s"],
            "probes": probes, "trace_file": os.path.relpath(trace_path),
            "rounds": slim(traced.rounds),
            "budget": tracer.budget,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    started = time.time()
    try:
        result = runner(workload, args.seed, args.seconds, args.quick)
    except ReferenceMismatch as error:
        print("incorrect run: %s" % error, file=sys.stderr)
        return 2
    except (RunInvalid, calibrate.IdleGuardError) as error:
        print("invalid run: %s" % error, file=sys.stderr)
        return 3
    # every tuple was checked and a mismatch raises, so none failed
    result.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  wall_s=time.time() - started, correct=True, failed=0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
