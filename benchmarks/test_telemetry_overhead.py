"""Disabled-telemetry overhead on the batched forward benchmark.

The telemetry layer's contract is that with no active collector every
instrumentation hook is a guarded no-op — the batched forward benchmark
must regress by less than 3%.  Wall-clock A/B differencing cannot
resolve a sub-3% delta reliably (run-to-run noise on shared machines is
larger than the signal), so the gate is a *call census*: monkeypatch
the telemetry entry points with counting pass-throughs, run the B=64
T=1000 H=16 log-space forward once to count exactly how many
``span`` / ``current`` / ``count`` / ``event`` calls it issues, measure
the per-call disabled cost of each entry point in a tight loop, and
assert that (calls x per-call cost) stays under 3% of the measured
forward wall-clock.

The measurement lands in ``bench-out/BENCH_telemetry.json``
(``telemetry_overhead.forward_disabled_overhead.overhead_frac``), and
``benchmarks/check_bench_regression.py`` enforces the same ceiling on
the committed repo-root record (override with
``$REPRO_TELEMETRY_OVERHEAD_CEILING``).
"""

import os
import time

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.apps.hmm import forward_batch
from repro.arith import LogSpaceBackend
from repro.data.dirichlet import sample_hmm

#: Filled by the tests; benchmarks/conftest.py writes it to
#: bench-out/BENCH_telemetry.json once this module finishes.
_RESULTS = {}

#: Acceptance ceiling: disabled instrumentation may cost at most this
#: fraction of the batched forward run it is threaded through.
OVERHEAD_CEILING = float(
    os.environ.get("REPRO_TELEMETRY_OVERHEAD_CEILING", "0.03"))

#: The tentpole forward shape (matches test_batch_throughput's
#: acceptance workload).
B, T, H, M = 64, 1000, 16, 16


@pytest.fixture(scope="module")
def workload():
    hmm = sample_hmm(H, M, T, seed=5)
    rng = np.random.default_rng(6)
    obs = rng.integers(0, M, size=(B, T))
    return hmm, obs


def _census(fn):
    """Run ``fn`` with the telemetry entry points replaced by counting
    pass-throughs; returns {entry point: calls issued}.

    Call sites bind the *module* (``from .. import telemetry``) and look
    the functions up per call, so swapping the module attributes
    intercepts every hook without touching the instrumented code.
    """
    calls = {"span": 0, "current": 0, "count": 0, "event": 0}
    real = {kind: getattr(telemetry, kind) for kind in calls}

    def _counting(kind):
        inner = real[kind]

        def stub(*args, **kwargs):
            calls[kind] += 1
            return inner(*args, **kwargs)
        return stub

    try:
        for kind in calls:
            setattr(telemetry, kind, _counting(kind))
        fn()
    finally:
        for kind, inner in real.items():
            setattr(telemetry, kind, inner)
    return calls


def _per_call_seconds(fn, n=100_000):
    """Average disabled cost of one entry-point call (best of 3 loops)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


def _span_site():
    with telemetry.span("bench.probe"):
        pass


def test_forward_disabled_overhead(workload, report):
    hmm, obs = workload
    backend = LogSpaceBackend(sum_mode="sequential")
    assert telemetry.current() is None, "collector leaked into benchmark"

    forward_batch(hmm, backend, obs)  # warm
    forward_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        forward_batch(hmm, backend, obs)
        forward_s = min(forward_s, time.perf_counter() - t0)

    calls = _census(lambda: forward_batch(hmm, backend, obs))
    # The instrumentation must actually be threaded through this path —
    # a zero census would make the gate vacuous.
    assert calls["span"] > 0 and calls["current"] > 0

    per_call = {
        "span": _per_call_seconds(_span_site),
        "current": _per_call_seconds(telemetry.current),
        "count": _per_call_seconds(lambda: telemetry.count("bench.probe")),
        "event": _per_call_seconds(lambda: telemetry.event("bench.probe")),
    }
    overhead_s = sum(calls[kind] * per_call[kind] for kind in calls)
    overhead_frac = overhead_s / forward_s

    _RESULTS["forward_disabled_overhead"] = {
        "batch": B, "t": T, "h": H,
        "forward_s": forward_s,
        "calls": calls,
        "per_call_s": per_call,
        "overhead_s": overhead_s,
        "overhead_frac": overhead_frac,
    }
    report("Disabled-telemetry overhead",
           f"log-space forward, B={B} T={T} H={H}: "
           f"{sum(calls.values())} hook calls x disabled cost = "
           f"{overhead_s * 1e6:.0f} us over a {forward_s * 1e3:.1f} ms "
           f"run -> {overhead_frac * 100:.3f}% (ceiling "
           f"{OVERHEAD_CEILING * 100:.0f}%)")
    assert overhead_frac < OVERHEAD_CEILING
