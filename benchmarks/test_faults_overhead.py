"""Disabled-fault-plane overhead on the batched forward benchmark.

The fault subsystem's contract mirrors telemetry's: with no plan
injected, every ``faults.fire`` site is a guarded no-op (one integer
compare), and the batched forward benchmark must regress by less than
3%.  As with the telemetry gate, wall-clock A/B differencing cannot
resolve a sub-3% delta on shared machines, so the gate is the same
*call census*: monkeypatch ``faults.fire`` / ``faults.active`` with
counting pass-throughs, run the B=64 T=1000 H=16 log-space forward once
to count the site calls it issues, measure the disabled per-call cost
in a tight loop, and assert (calls x per-call cost) stays under 3% of
the forward wall-clock.

The measurement lands in ``bench-out/BENCH_faults.json``
(``faults_overhead.forward_disabled_overhead.overhead_frac``), and
``benchmarks/check_bench_regression.py`` enforces the same ceiling on
the committed repo-root record (override with
``$REPRO_FAULTS_OVERHEAD_CEILING``).
"""

import os
import time

import numpy as np
import pytest

import repro.faults as faults
from repro.data.dirichlet import sample_hmm
from repro.engine import kernels
from repro.engine.batch import BatchLogSpace

#: Filled by the tests; benchmarks/conftest.py writes it to
#: bench-out/BENCH_faults.json once this module finishes.
_RESULTS = {}

#: Acceptance ceiling: the disabled fault plane may cost at most this
#: fraction of the batched forward run it is threaded through.
OVERHEAD_CEILING = float(
    os.environ.get("REPRO_FAULTS_OVERHEAD_CEILING", "0.03"))

#: The tentpole forward shape (matches the telemetry overhead gate).
B, T, H, M = 64, 1000, 16, 16


@pytest.fixture(scope="module")
def workload():
    """The B=64 batched forward through :mod:`repro.engine.kernels`,
    whose wrappers carry the ``kernel.<name>`` injection sites.  Served
    and experiment traffic does not take this layer: the service runs
    :func:`repro.apps.hmm.forward_models_batch`, which has no fault
    site below ``service.batch``."""
    hmm = sample_hmm(H, M, T, seed=5)
    rng = np.random.default_rng(6)
    obs = rng.integers(0, M, size=(B, T))
    bb = BatchLogSpace()
    fa, fb, fpi, _obs = hmm.as_float_arrays()
    return (bb, bb.from_floats(fa), bb.from_floats(fb),
            bb.from_floats(fpi), obs)


def _census(fn):
    """Run ``fn`` with the fault entry points replaced by counting
    pass-throughs; returns {entry point: calls issued}.

    Call sites bind the *module* (``from .. import faults as _faults``)
    and look the functions up per call, so swapping the module
    attributes intercepts every site without touching the instrumented
    code.
    """
    calls = {"fire": 0, "active": 0}
    real = {kind: getattr(faults, kind) for kind in calls}

    def _counting(kind):
        inner = real[kind]

        def stub(*args, **kwargs):
            calls[kind] += 1
            return inner(*args, **kwargs)
        return stub

    try:
        for kind in calls:
            setattr(faults, kind, _counting(kind))
        fn()
    finally:
        for kind, inner in real.items():
            setattr(faults, kind, inner)
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


def test_forward_disabled_overhead(workload, report):
    bb, a, b, pi, obs = workload
    assert faults.active() is None, "fault plan leaked into benchmark"

    def run():
        return kernels.forward_batch(bb, a, b, pi, obs)

    run()  # warm
    forward_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        run()
        forward_s = min(forward_s, time.perf_counter() - t0)

    calls = _census(run)
    # The sites must actually be threaded through this path — a zero
    # census would make the gate vacuous.
    assert calls["fire"] > 0

    per_call = {
        "fire": _per_call_seconds(
            lambda: faults.fire("kernel.forward_batch")),
        "active": _per_call_seconds(faults.active),
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
    report("Disabled-fault-plane overhead",
           f"log-space forward, B={B} T={T} H={H}: "
           f"{sum(calls.values())} site calls x disabled cost = "
           f"{overhead_s * 1e6:.1f} us over a {forward_s * 1e3:.1f} ms "
           f"run -> {overhead_frac * 100:.4f}% (ceiling "
           f"{OVERHEAD_CEILING * 100:.0f}%)")
    assert overhead_frac < OVERHEAD_CEILING
