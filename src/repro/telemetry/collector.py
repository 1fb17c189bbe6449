"""The :class:`Collector`: counters, timing spans, and event tallies.

One collector aggregates everything observed inside one
:func:`repro.telemetry.collect` scope:

* **counters** — monotonically increasing work tallies (elements
  dispatched per op/format/plane, sweep pairs measured, cache bytes);
* **spans** — named timed regions on the monotonic clock
  (``time.perf_counter``), nestable, aggregated per name into
  ``[count, total_s, min_s, max_s]``;
* **events** — exceptional-outcome tallies (posit NaR/saturation/
  flush, log-space ``-inf`` underflow).

Collectors are plain-dict state end to end, so they pickle across
process boundaries (the parallel sweep runner ships one back per
chunk) and :meth:`Collector.merge` combines any two: counters and
events add, span aggregates combine count/total and take min/max.

An optional JSONL trace sink streams one line per *closed* span (name,
depth, start offset, duration) plus a final ``summary`` line holding
the full aggregate state; merged child collectors appear only in the
summary (their spans closed in another process).
"""

from __future__ import annotations

import contextvars
import json
import time
from typing import Dict, List

#: Current span nesting depth, tracked *per execution context* rather
#: than per collector.  Concurrent asyncio tasks that share one
#: collector (a child task inherits the parent's collector through
#: ``contextvars`` at ``asyncio.create_task``) each see their own
#: depth, so interleaved spans from different tasks cannot corrupt each
#: other's nesting — with a collector-owned stack, task B's close would
#: pop task A's frame.
_SPAN_DEPTH: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro_telemetry_span_depth", default=0)


class _Span:
    """One active timed region; created by :meth:`Collector.span`."""

    __slots__ = ("_collector", "_name", "_t0", "_depth", "_token")

    def __init__(self, collector: "Collector", name: str):
        self._collector = collector
        self._name = name

    def __enter__(self) -> "_Span":
        self._depth = _SPAN_DEPTH.get()
        self._token = _SPAN_DEPTH.set(self._depth + 1)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        _SPAN_DEPTH.reset(self._token)
        self._collector._close_span(self._name, self._t0, t1, self._depth)
        return False


class Collector:
    """Aggregated observations for one ``collect()`` scope.

    Not constructed directly in most code — enter
    :func:`repro.telemetry.collect` and use the yielded instance.
    State is exposed as plain attributes for tests and exporters:
    ``counters`` / ``events`` map names to integers, ``spans`` maps
    names to ``[count, total_s, min_s, max_s]`` lists.
    """

    def __init__(self, trace=None):
        self.counters: Dict[str, int] = {}
        self.events: Dict[str, int] = {}
        self.spans: Dict[str, List] = {}
        self._epoch = time.perf_counter()
        self._sink = None
        self._sink_owned = False
        if trace is not None:
            if hasattr(trace, "write"):
                self._sink = trace
            else:
                self._sink = open(trace, "w")
                self._sink_owned = True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def event(self, name: str, n: int = 1) -> None:
        """Tally ``n`` occurrences of the exceptional event ``name``."""
        self.events[name] = self.events.get(name, 0) + int(n)

    def span(self, name: str) -> _Span:
        """A context manager timing one region under ``name``.

        Spans nest freely; each closed span feeds the per-name
        aggregate and (when tracing) one JSONL line carrying its
        nesting depth.
        """
        return _Span(self, name)

    def _close_span(self, name: str, t0: float, t1: float,
                    depth: int = 0) -> None:
        dur = t1 - t0
        agg = self.spans.get(name)
        if agg is None:
            self.spans[name] = [1, dur, dur, dur]
        else:
            agg[0] += 1
            agg[1] += dur
            if dur < agg[2]:
                agg[2] = dur
            if dur > agg[3]:
                agg[3] = dur
        if self._sink is not None:
            self._sink.write(json.dumps(
                {"type": "span", "name": name, "depth": depth,
                 "start_s": t0 - self._epoch, "duration_s": dur}) + "\n")

    # ------------------------------------------------------------------
    # Merging / pickling (multi-process sweeps)
    # ------------------------------------------------------------------
    def merge(self, other: "Collector") -> "Collector":
        """Fold another collector's aggregates into this one."""
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        for name, n in other.events.items():
            self.events[name] = self.events.get(name, 0) + n
        for name, (count, total, lo, hi) in other.spans.items():
            agg = self.spans.get(name)
            if agg is None:
                self.spans[name] = [count, total, lo, hi]
            else:
                agg[0] += count
                agg[1] += total
                agg[2] = min(agg[2], lo)
                agg[3] = max(agg[3], hi)
        return self

    def __getstate__(self):
        # The trace sink is process-local (an open file); merged-in
        # children report through the parent's summary instead.
        return {"counters": self.counters, "events": self.events,
                "spans": self.spans, "_epoch": self._epoch}

    def __setstate__(self, state):
        self.counters = state["counters"]
        self.events = state["events"]
        self.spans = state["spans"]
        self._epoch = state["_epoch"]
        self._sink = None
        self._sink_owned = False

    # ------------------------------------------------------------------
    # Export surfaces
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The aggregate state as one JSON-serializable dict."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "events": dict(sorted(self.events.items())),
            "spans": {name: {"count": agg[0], "total_s": agg[1],
                             "min_s": agg[2], "max_s": agg[3]}
                      for name, agg in sorted(self.spans.items())},
        }

    def report(self) -> str:
        """A pretty fixed-width table of everything collected."""
        lines: List[str] = []
        if self.spans:
            width = max(len(n) for n in self.spans)
            lines.append("spans (aggregated on the monotonic clock):")
            lines.append(f"  {'name':<{width}} {'calls':>8} "
                         f"{'total':>11} {'mean':>11} {'min':>11} "
                         f"{'max':>11}")
            for name, (count, total, lo, hi) in sorted(self.spans.items()):
                lines.append(
                    f"  {name:<{width}} {count:>8} {_fmt_s(total):>11} "
                    f"{_fmt_s(total / count):>11} {_fmt_s(lo):>11} "
                    f"{_fmt_s(hi):>11}")
        for title, table in (("counters", self.counters),
                             ("events", self.events)):
            if not table:
                continue
            width = max(len(n) for n in table)
            lines.append(f"{title}:")
            for name, n in sorted(table.items()):
                lines.append(f"  {name:<{width}} {n:>14}")
        return "\n".join(lines) if lines else "(nothing collected)"

    def _finish(self) -> None:
        """Flush the summary line and release an owned trace sink."""
        if self._sink is not None:
            self._sink.write(json.dumps(
                {"type": "summary", **self.to_json()}) + "\n")
            self._sink.flush()
            if self._sink_owned:
                self._sink.close()
            self._sink = None
            self._sink_owned = False

    def __repr__(self):
        return (f"<Collector {len(self.counters)} counters, "
                f"{len(self.events)} events, {len(self.spans)} spans>")


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} us"


__all__ = ["Collector"]
