"""repro.telemetry — zero-dependency tracing/metrics for the execution
plane.

The execution plane (registry + ExecPlan, batched kernels, the nd
front end, the result cache, multi-process sweeps) is instrumented
with three primitive kinds, all aggregated by a
:class:`~repro.telemetry.collector.Collector`:

* **counters** — work tallies: per-format/per-op/plane element counts
  from :mod:`repro.nd`, sweep pairs from
  :func:`repro.core.accuracy.measure_pairs`, LNS table/memo hits,
  cache hit/miss/bytes;
* **spans** — timed regions on the monotonic clock, nestable:
  app/kernel entry points, the posit decode/core/encode stages,
  per-chunk sweep workers;
* **events** — exceptional outcomes: posit NaR / saturation /
  flush-to-zero, log-space ``-inf`` underflow.

Usage::

    from repro import telemetry

    with telemetry.collect() as t:
        run_workload()
    print(t.report())           # pretty table
    payload = t.to_json()       # machine-readable aggregate

    with telemetry.collect(trace="run.jsonl") as t:
        run_workload()          # one JSONL line per closed span

**The disabled path is strictly zero-cost.**  Collection is scoped by
a :class:`contextvars.ContextVar`; with no active ``collect()`` scope,
:func:`span` returns a shared no-op singleton (no allocation),
:func:`count`/:func:`event` return after one module-level integer
check, and :func:`current` returns ``None`` without touching the
context variable.  Instrumented hot paths guard any mask/key
construction behind ``telemetry.current() is not None``, so the
batched kernels run uninstrumented-speed when nothing collects
(asserted by ``benchmarks/test_telemetry_overhead.py``: < 3% on the
batched forward benchmark).

Collectors pickle (minus their trace sink) and merge, so the parallel
sweep runner (:func:`repro.engine.runner.run_sweep_parallel`) ships
one back per chunk and folds worker timings into the parent scope.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Optional

from .collector import Collector

__all__ = ["Collector", "collect", "count", "current", "event", "span"]

#: The active collector for the current context (None outside any
#: ``collect()`` scope).
_collector_var: ContextVar[Optional[Collector]] = ContextVar(
    "repro_telemetry_collector", default=None)

#: Module-level fast check: the number of ``collect()`` scopes entered
#: process-wide.  Zero means *no* context can have a collector, so the
#: disabled path never touches the ContextVar machinery.
_active_scopes = 0


class _NoopSpan:
    """The shared do-nothing span returned while collection is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


def current() -> Optional[Collector]:
    """The active collector, or None (the disabled fast path).

    Instrumentation sites that must *compute* something before
    recording (event masks, counter keys) check this first so the
    disabled path allocates nothing.
    """
    if _active_scopes == 0:
        return None
    return _collector_var.get()


def span(name: str):
    """A timing span on the active collector, or the no-op singleton.

    Always usable as a context manager::

        with telemetry.span("posit.decode"):
            ...
    """
    if _active_scopes == 0:
        return _NOOP_SPAN
    c = _collector_var.get()
    return _NOOP_SPAN if c is None else c.span(name)


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to a counter on the active collector (no-op when
    disabled)."""
    if _active_scopes:
        c = _collector_var.get()
        if c is not None:
            c.count(name, n)


def event(name: str, n: int = 1) -> None:
    """Tally an exceptional event on the active collector (no-op when
    disabled)."""
    if _active_scopes:
        c = _collector_var.get()
        if c is not None:
            c.event(name, n)


class collect:
    """Context manager scoping a :class:`Collector` over a region.

    ``trace`` optionally names a JSONL file (or passes a file-like
    object) receiving one line per closed span plus a final summary
    line.  An existing ``collector`` may be re-entered to accumulate
    several regions into one aggregate.  Scopes nest: the innermost
    collector receives the observations, and the outer one resumes
    when the inner scope exits (the parallel sweep workers rely on
    this to collect into a fresh picklable child).
    """

    __slots__ = ("_trace", "_given", "_collector", "_token")

    def __init__(self, trace=None, collector: Optional[Collector] = None):
        if trace is not None and collector is not None:
            raise ValueError("pass trace= or collector=, not both")
        self._trace = trace
        self._given = collector
        self._collector: Optional[Collector] = None

    def __enter__(self) -> Collector:
        global _active_scopes
        c = self._given if self._given is not None \
            else Collector(trace=self._trace)
        self._collector = c
        self._token = _collector_var.set(c)
        _active_scopes += 1
        return c

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active_scopes
        _active_scopes -= 1
        _collector_var.reset(self._token)
        if self._given is None:
            self._collector._finish()
        self._collector = None
        return False
