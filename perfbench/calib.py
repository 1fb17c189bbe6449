"""Speed calibration and the small statistics the benchmark reports.

The benchmark runs on small shared virtual machines whose CPUs slow
down, in phases lasting from under a second to minutes, each CPU on its
own schedule.  A raw wall-clock time therefore spreads 15-40% from run
to run.  Every timed region is instead bracketed by two *calibration
slices*: a fixed reference computation on the same pinned CPU, timed
just before and just after, while nothing else runs.  Experiment calls,
which run in this process, are also *sampled*: every
``SAMPLE_INTERVAL_S`` of wall time a timer runs one short reference run,
so a speed change inside a 2-second call is seen too.  Slices and
samples are *slowness* values: the reference's time over ``C_REF_S``,
its time at the reference speed, so 1.0 is the reference speed.  A
region that took ``t`` seconds is reported as ``t * mean(1 / s)`` over
its slowness values ``s``: the time it would have taken at the
reference speed.

The reference mixes the cost shapes of the program's kernels: an
interpreter loop, Python big-int arithmetic, and small uint64/float64
NumPy temporaries.  It tracks the phases that slow computation.  It does
not track everything: traced against the program, it missed a minute
in which request handling and experiments ran 2.2-2.4x slower while it
ran at full speed (socket round trips slowed 2.4x then), and for
binary64 request traffic, whose latency is mostly wake-ups, round trips
and the 2 ms coalescing window, no reference tried (this one, round
trips, a walk over scattered objects, mixes) held calibrated
throughput within 10% from run to run, so that workload is not
measured.  Nothing is sampled while a child process competes for the
CPU (cold starts, request bursts): samples would then time the
competition, not the machine.  Cold starts are bracketed by a reference
of their own kind, ``SPAWN_REFERENCE``.  The references live here,
import nothing from the program, and must never change: changing them
rescales every number the benchmark has recorded.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import subprocess
import sys
import time
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Iterations of one reference run (~0.2-0.4 ms here).
_ITERATIONS = 200
#: Reference runs per slice; the slice is their median.
_SLICE_RUNS = 60
#: Wall time between two samples taken during an experiment call.
SAMPLE_INTERVAL_S = 0.02
#: Seconds of one reference run at the reference speed: close to a
#: typical run on the machine the benchmark was written on, so
#: calibrated values read like wall times there.
C_REF_S = 3.0e-4

_MASK = (1 << 256) - 1
_MUL = 0x5851F42D4C957F2D_9E3779B97F4A7C15
_U64_MUL = np.uint64(0x5851F42D4C957F2D)
_U64_SHIFT = np.uint64(7)
#: What one reference run returns; checked so a broken reference loop
#: cannot pass silently.
_EXPECTED = None


def _mini_run() -> int:
    x = 0x243F6A8885A308D313198A2E03707344A4093822299F31D0082EFA98EC4E6C89
    acc = 0
    u = np.arange(1, 17, dtype=np.uint64)
    f = np.linspace(0.25, 0.75, 16)
    for i in range(_ITERATIONS):
        x = (x * _MUL + i) & _MASK
        acc = (acc + (x >> 190) + i) & 0xFFFFFFFF
        if not i & 7:
            u = (u * _U64_MUL + np.uint64(i)) >> _U64_SHIFT
            f = f * 0.5 + 0.125
    return acc ^ int(u.sum() & np.uint64(0xFFFF)) ^ int(f.sum() * 1e6)


#: The reference a cold start is bracketed by instead: spawning this
#: interpreter to import NumPy.  Start-up is process creation, file
#: reads and unmarshalling, whose slow phases the compute reference
#: does not track: rescaled by compute slices, groups of 5 cold starts
#: spread 12% (IQR of their medians), raw 8%, rescaled by this 1.4%.
SPAWN_REFERENCE = ("-c", "import numpy")
#: Seconds of one spawn reference at the reference speed.
SPAWN_REF_S = 0.21


def spawn_slowness(env: dict) -> float:
    """Time one spawn reference, as slowness."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *SPAWN_REFERENCE], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, env=env)
    return (time.perf_counter() - t0) / SPAWN_REF_S


def run_slowness() -> float:
    """Time one reference run, as slowness."""
    global _EXPECTED
    t0 = time.perf_counter()
    value = _mini_run()
    elapsed = time.perf_counter() - t0
    if _EXPECTED is None:
        _EXPECTED = value
    elif value != _EXPECTED:
        raise RuntimeError("calibration loop is not deterministic")
    return elapsed / C_REF_S


def slice_slowness() -> float:
    """One calibration slice: the median of many reference runs."""
    return median([run_slowness() for _ in range(_SLICE_RUNS)])


class Sampler:
    """While active, take one reference run every ``SAMPLE_INTERVAL_S``
    of wall time (on a ``SIGALRM`` timer), into ``samples``.  Use only
    around work of this process: a sample taken while another process
    competes for the pinned CPU times the competition."""

    def __init__(self):
        self.samples: List[float] = []
        self._previous = None
        self._busy = False

    def _tick(self, _signum, _frame) -> None:
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        try:
            self.samples.append(run_slowness())
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


class Timed(NamedTuple):
    raw_s: float
    factor: float  # calibrated / raw seconds, from the step's slices
    value: object  # what the step returned


def timed_window(seconds: float, step: Callable[[int], object],
                 cal: List[float], cold: Optional[Callable] = None,
                 n_cold: int = 0, group: int = 1, sample: bool = False,
                 on_step: Optional[Callable[[Timed], None]] = None
                 ) -> Tuple[List[Timed], list]:
    """Call ``step(k)`` for k = 0, 1, ... until ``seconds`` of wall time
    have passed, each call between two calibration slices (appended to
    ``cal``) and, with ``sample``, sampled while it runs.  ``n_cold``
    calls of ``cold`` are spread evenly across the window.  The window
    closes, and cold starts run, only between whole groups of ``group``
    steps.  Returns the timed steps and what the cold starts returned."""
    steps: List[Timed] = []
    colds: list = []
    before = slice_slowness()
    cal.append(before)
    start = time.perf_counter()
    cold_due = [start + seconds * i / n_cold for i in range(n_cold)]
    k = 0
    while k % group or cold_due or time.perf_counter() < start + seconds:
        if not k % group and cold_due and \
                time.perf_counter() >= cold_due[0]:
            cold_due.pop(0)
            colds.append(cold())
            before = slice_slowness()
            cal.append(before)
            continue
        sampler = Sampler() if sample else None
        with sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            value = step(k)
            raw = time.perf_counter() - t0
        after = slice_slowness()
        cal.append(after)
        samples = sampler.samples if sampler else []
        steps.append(Timed(raw, rescale(1.0, [before, *samples, after]),
                           value))
        before = after
        if on_step is not None:
            on_step(steps[-1])
        k += 1
    return steps, colds


def rescale(t: float, slowness: Sequence[float]) -> float:
    """``t`` seconds, measured while the reference ran at ``slowness``
    (before, during, after), as seconds at the reference speed: ``t``
    times the mean relative speed."""
    if not slowness or not all(s > 0 and math.isfinite(s)
                               for s in slowness):
        raise ValueError(f"calibration slowness must be positive, got "
                         f"{list(slowness)!r}")
    return t * sum(1.0 / s for s in slowness) / len(slowness)


def pin_to_one_cpu() -> int:
    """Pin this process (and every process it spawns later) to one CPU
    of the allowed set; returns the CPU.  Calibration can only track
    the CPU it runs on, because CPUs slow down independently."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile (0 < q <= 1) and the sample count.

    The count travels with the value so a tail percentile is never
    read without knowing how many samples lie beyond it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 1:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    s = sorted(values)
    rank = max(1, math.ceil(q * len(s)))
    return s[rank - 1], len(s)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) the way ``statistics.quantiles(n=4)`` gives
    them (the 'exclusive' method), for the steadiness report."""
    import statistics
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Tally:
    """Operations attempted and failed, with the first failure's
    reason: ``failed / attempted`` is the run's error rate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None

    def record(self, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = why
        return ok


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")
