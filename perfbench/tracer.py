"""Layer spans for the traced run, recorded from the benchmark's files.

The traced run wraps public calls of the program (``nd.asarray``,
``forward_models_batch``, ``ForwardHandler.run_batch``, ...) and re-reads
the program's own telemetry spans (posit decode/core/encode, ...) by
wrapping :meth:`repro.telemetry.Collector.span`.  Every span gets a
parent, per thread, so a layer's *self time* is its duration minus the
time its child spans cover, and the self times of one root add up to
the root's duration exactly.  Nothing is added inside the program: the
workload modules install the wrappers for a traced phase and
:meth:`Tracer.restore` removes them.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter

#: The per-request stage record of the request the current asyncio task
#: is serving (set when the server parses a request body).
CURRENT_REQUEST: contextvars.ContextVar[Optional[dict]] = \
    contextvars.ContextVar("perfbench_request", default=None)

#: Program telemetry span names -> layer names.
_SPAN_LAYERS = (("posit.decode", "engine.posit.decode"),
                ("posit.core.", "engine.posit.core"),
                ("posit.encode", "engine.posit.encode"))


def span_layer(name: str) -> str:
    for prefix, layer in _SPAN_LAYERS:
        if name.startswith(prefix):
            return layer
    return "span." + name


class Tracer:
    """Aggregates ``name -> [calls, total_s, self_s]`` and call counts."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.totals: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        self._patches: list = []

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append([name, _now(), 0.0])

    def exit(self) -> float:
        end = _now()
        stack = self._stack()
        name, start, child = stack.pop()
        dur = end - start
        if stack:
            stack[-1][2] += dur
        with self._lock:
            agg = self.totals.get(name)
            if agg is None:
                agg = self.totals[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
        return dur

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict:
        with self._lock:
            return {"totals": {k: list(v) for k, v in self.totals.items()},
                    "counts": dict(self.counts)}

    @staticmethod
    def delta(after: dict, before: dict, scale: float = 1.0) -> dict:
        """``after - before``, with times multiplied by ``scale``."""
        totals = {}
        for name, (calls, total, own) in after["totals"].items():
            c0, t0, s0 = before["totals"].get(name, (0, 0.0, 0.0))
            if calls != c0:
                totals[name] = [calls - c0, (total - t0) * scale,
                                (own - s0) * scale]
        counts = {name: n - before["counts"].get(name, 0)
                  for name, n in after["counts"].items()}
        return {"totals": totals, "counts": counts}

    @staticmethod
    def accumulate(into: dict, delta: dict) -> None:
        """Add a :meth:`delta` into ``into`` (the same shape)."""
        totals, counts = into["totals"], into["counts"]
        for name, (calls, total, own) in delta["totals"].items():
            agg = totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        for name, n in delta["counts"].items():
            counts[name] = counts.get(name, 0) + n

    # ------------------------------------------------------------------
    # Wrapping public calls
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def timed(self, fn: Callable, name: str,
              on_done: Optional[Callable] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.exit()
            if on_done is not None:
                on_done(args, result, dur)
            return result

        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str,
                    on_done: Optional[Callable] = None) -> None:
        """Time ``cls.attr`` (a plain or class method) under ``name``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            bound = getattr(cls, attr)
            self._patch(cls, attr,
                        staticmethod(self.timed(bound, name, on_done)))
        else:
            self._patch(cls, attr, self.timed(raw, name, on_done))

    def wrap_function(self, fn: Callable, name: str,
                      on_done: Optional[Callable] = None) -> None:
        """Time every binding of the module-level function ``fn`` in the
        program's loaded modules (callers that imported it by name
        included)."""
        wrapper = self.timed(fn, name, on_done)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def count_calls(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count(name)
            return raw(*args, **kwargs)

        self._patch(cls, attr, wrapper)

    def hook_telemetry(self) -> None:
        """Re-read the program's own telemetry: every span any collector
        opens becomes a frame, and each ``nd.*`` counter increment (one
        per nd operation) is counted as an nd op call."""
        from repro.telemetry import Collector
        span = Collector.__dict__["span"]
        count = Collector.__dict__["count"]
        tracer = self

        class _Traced:
            __slots__ = ("_inner", "_name")

            def __init__(self, inner, name):
                self._inner = inner
                self._name = name

            def __enter__(self):
                tracer.enter(self._name)
                return self._inner.__enter__()

            def __exit__(self, *exc):
                try:
                    return self._inner.__exit__(*exc)
                finally:
                    tracer.exit()

        def traced_span(collector, name):
            return _Traced(span(collector, name), span_layer(name))

        def counted(collector, name, n=1):
            if name.startswith("nd."):
                tracer.count("nd.op_calls")
            return count(collector, name, n)

        self._patch(Collector, "span", traced_span)
        self._patch(Collector, "count", counted)

    def install_common(self) -> None:
        """The layer wrappers both workload families share."""
        from repro import nd
        from repro.apps import hmm
        from repro.bigfloat import BigFloat
        from repro.engine.batch import BatchBackend, BatchLogSpace
        self.hook_telemetry()
        self.wrap_function(hmm.forward_models_batch,
                           "apps.forward_models_batch")
        self.wrap_function(nd.asarray, "nd.asarray")
        self.wrap_method(BatchBackend, "sum", "engine.batch.sum")
        self.wrap_method(BatchLogSpace, "sum", "engine.batch.sum")
        self.count_calls(BigFloat, "to_float", "bigfloat.to_float_calls")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_time_table(totals: Dict[str, List[float]], per: float,
                    unit: str, scale: float) -> List[str]:
    """Rows ``name calls total self`` (times divided by ``per`` and
    multiplied by ``scale``), heaviest self time first."""
    rows = []
    for name, (calls, total, own) in sorted(
            totals.items(), key=lambda kv: -kv[1][2]):
        rows.append(f"    {name:<34} {calls / per:>9.2f} "
                    f"{total / per * scale:>10.3f} "
                    f"{own / per * scale:>10.3f} {unit}")
    return rows
