"""Reference-speed kernel and idle guard.

On a shared sandbox the same code runs 10-45 % slower for seconds at a
time.  The kernel below is fixed, stdlib-only and independent of the
program under test; timing it next to every round tells how fast the
machine was *then*, and ``REF_S / measured`` turns a duration measured in
that round into the duration it would have had on the reference machine.

The kernel has the two ingredients of the runtime's hot path:

* a compute part — dict traffic, ``struct.pack``, a 6 kB bytes concat, an
  uncontended lock and an integer loop;
* a hand-off part — condition-variable round trips with a second thread,
  i.e. waking a thread on another core and passing it the GIL.

A compute-only kernel tracked ``batch_b64`` but over-corrected
``handoff_b1`` (the program slowed less than the kernel did); README.md
has the A/A table that led to the two-part kernel.

Stdlib only: importable without ``repro``.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading
import time
from typing import Dict, NamedTuple, Optional

#: seconds the kernel takes at reference speed.  Fixed in the PR that
#: added the benchmark; changing it (or the kernel) rescales every
#: reference-speed figure, so neither may change afterwards.
REF_S = 0.0125

#: share of one CPU the rest of the process may burn while the swarm is
#: supposed to be idle and the kernel is being timed
IDLE_CPU_LIMIT = 0.10
#: a transient blip (the tail of a draining round, a late TCP frame) may
#: trip one interval; a busy-polling change trips every one of them
_ATTEMPTS = 8
_RETRY_PAUSE_S = 0.025
_REPEATS = 3
_COMPUTE_STEPS = 4000
_HANDOFF_TRIPS = 150

_PACK = struct.Struct(">IdQ")
_PAD = bytes(range(256)) * 23 + bytes(112)  # 6000 bytes
_LOCK = threading.Lock()


class _Partner(threading.Thread):
    """The other end of the hand-off part; parked on the condition (no
    CPU) whenever no calibration is running."""

    def __init__(self) -> None:
        super().__init__(name="bench-calibrate-partner", daemon=True)
        self.cond = threading.Condition()
        self.turn = 0

    def run(self) -> None:
        cond = self.cond
        while True:
            with cond:
                while self.turn != 1:
                    cond.wait()
                self.turn = 0
                cond.notify()


_partner: Optional[_Partner] = None


def _get_partner() -> _Partner:
    global _partner
    if _partner is None:
        _partner = _Partner()
        _partner.start()
    return _partner


@contextlib.contextmanager
def apart(thread: threading.Thread):
    """Keep the calling thread and *thread* on different CPUs where there
    are two.  Left to the scheduler, two threads handing off to each other
    sometimes share a core, where a hand-off is 5x cheaper; pinned apart
    they stay in the cross-core regime the runtime's threads are in."""
    cpus = sorted(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        yield
        return
    os.sched_setaffinity(thread.native_id, {cpus[1]})
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def kernel() -> int:
    """One pass of the fixed reference kernel (about ``REF_S`` seconds)."""
    table = {}
    pack = _PACK.pack
    lock = _LOCK
    pad = _PAD
    total = 0
    for i in range(_COMPUTE_STEPS):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0)
        frame = pack(i, 0.5, total & 0xFFFF) + pad
        with lock:
            total += len(frame) & 7
        for j in range(6):
            total += (i ^ j) & 3
    partner = _get_partner()
    cond = partner.cond
    for _ in range(_HANDOFF_TRIPS):
        with cond:
            partner.turn = 1
            cond.notify()
            while partner.turn != 0:
                cond.wait()
    return total


class Calibration(NamedTuple):
    kernel_s: float      # best-of-3 kernel time
    idle_cpu_frac: float  # CPU burnt by the *rest* of the process / wall


class IdleGuardError(RuntimeError):
    """The process was busy while it claimed to be idle."""


def _kernel_cpu() -> float:
    """CPU seconds used so far by the two threads that run the kernel."""
    partner = _get_partner()
    return time.thread_time() + time.clock_gettime(
        time.pthread_getcpuclockid(partner.ident))


def measure_once() -> Calibration:
    with apart(_get_partner()):
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        own0 = _kernel_cpu()
        best = float("inf")
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        wall = time.perf_counter() - wall0
        others = (time.process_time() - cpu0) - (_kernel_cpu() - own0)
    return Calibration(best, max(0.0, others) / wall)


def thread_cpu() -> Dict[str, float]:
    """CPU seconds of the live Python threads, summed by thread name.

    Read from each thread's POSIX CPU clock: ``/proc/self/task/*/schedstat``
    reads zero in this sandbox and ``stat`` counts in 10 ms ticks.
    """
    used: Dict[str, float] = {}
    for thread in threading.enumerate():
        try:
            cpu = time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
        except OSError:
            continue  # the thread ended under us
        used[thread.name] = used.get(thread.name, 0.0) + cpu
    return used


def calibrate() -> Calibration:
    """Time the kernel with the swarm idle; raise if it is not idle.

    A busy-polling change would slow the kernel down and so inflate its
    own speed factor.  The guard compares process CPU with the kernel's
    own two threads over the interval: anything beyond ``IDLE_CPU_LIMIT``
    of a core, ``_ATTEMPTS`` times in a row, fails the run and names the
    threads that were busy.
    """
    for attempt in range(_ATTEMPTS):
        if attempt:
            time.sleep(_RETRY_PAUSE_S)
        before = thread_cpu()
        result = measure_once()
        if result.idle_cpu_frac <= IDLE_CPU_LIMIT:
            return result
    after = thread_cpu()
    busiest = sorted(((after[name] - before.get(name, 0.0), name)
                      for name in after
                      if name not in ("MainThread", _get_partner().name)),
                     reverse=True)[:3]
    raise IdleGuardError(
        "process burnt %.0f%% of a CPU outside the calibrating threads "
        "while the swarm should be idle (limit %.0f%%); busiest: %s"
        % (100 * result.idle_cpu_frac, 100 * IDLE_CPU_LIMIT,
           ", ".join("%s %.1f ms" % (name, 1e3 * cpu)
                     for cpu, name in busiest)))


#: readings outside this range are clamped.  When a neighbour starves one
#: vCPU the kernel, pinned across both, slows 3-10x while the program,
#: whose threads float, slows 2x; uncorrected, one such run read 12.9k
#: tuples/s where its neighbours read 5.1k.
FACTOR_RANGE = (0.5, 2.0)


def speed_factor(before: Calibration, after: Calibration) -> float:
    """Multiply a duration measured between the two by this."""
    factor = REF_S / ((before.kernel_s + after.kernel_s) / 2.0)
    return min(FACTOR_RANGE[1], max(FACTOR_RANGE[0], factor))
