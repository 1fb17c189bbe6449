"""Scalar vs batched throughput for the newly vectorized workloads:
multi-model ViCAR forward, multi-chain MCMC, batched quire
accumulation, and batched LNS multiplication.

Measurements land in ``bench-out/BENCH_apps.json`` (the companion of
``BENCH_batch.json``).  The acceptance gate is the
multi-model log-space forward — the ViCAR/Figure 10 shape — at >= 5x
over the per-model scalar loop with bit-identical likelihoods; shared
CI runners can lower the floor via ``REPRO_APPS_SPEEDUP_FLOOR``.
"""

import math
import os
import time

import numpy as np

from repro.apps.hmm import forward, forward_models_batch
from repro.apps.mcmc import run_chain, run_chains
from repro.arith import LogSpaceBackend
from repro.arith.backends import LNSBackend
from repro.data.dirichlet import sample_hcg_like_hmm
from repro.engine import BatchLNS, BatchQuire, ExecPlan
from repro.formats.posit import PositEnv
from repro.formats.quire import Quire

#: Filled by the tests; benchmarks/conftest.py writes it to
#: bench-out/BENCH_apps.json once this module finishes.
_RESULTS = {}

#: Acceptance floor for the batched multi-model forward speedup (the
#: recorded dedicated-hardware result is far above it; CI lowers this
#: because shared runners make wall-clock asserts flaky).
APPS_SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_APPS_SPEEDUP_FLOOR", "5.0"))


def test_vicar_multi_model_forward_speedup(report):
    """The tentpole acceptance gate: batched multi-model log-space
    forward on 16 fig10-shaped instances (H=13) >= 5x the scalar
    per-model loop, bit-identical."""
    backend = LogSpaceBackend(sum_mode="sequential")
    n_models, t_len = 48, 800
    models = [sample_hcg_like_hmm(13, t_len, seed=s, bits_per_step=20.0)
              for s in range(n_models)]

    start = time.perf_counter()
    batch_values = forward_models_batch(models, backend)
    batch_per_model = (time.perf_counter() - start) / n_models

    scalar_subset = 2
    start = time.perf_counter()
    # Pin the legacy scalar recurrence: the default forward() is now
    # itself the batched kernel (B=1).
    scalar_values = [forward(m, backend, plan=ExecPlan.serial())
                     for m in models[:scalar_subset]]
    scalar_per_model = (time.perf_counter() - start) / scalar_subset

    speedup = scalar_per_model / batch_per_model
    _RESULTS[f"vicar_forward_multi{n_models}_h13"] = {
        "models": n_models, "t": t_len, "h": 13,
        "scalar_s_per_model": scalar_per_model,
        "batch_s_per_model": batch_per_model,
        "speedup": speedup,
    }
    report("Batched ViCAR forward",
           f"log-space multi-model forward, {n_models} models H=13 "
           f"T={t_len}: scalar {scalar_per_model * 1e3:.0f} ms/model, "
           f"batched {batch_per_model * 1e3:.2f} ms/model -> "
           f"{speedup:.1f}x")
    assert batch_values[:scalar_subset] == scalar_values
    assert speedup >= APPS_SPEEDUP_FLOOR


def test_mcmc_chains_speedup(report):
    """Multi-chain MH through the batched forward vs per-chain scalar
    runs, decision-for-decision identical."""
    backend = LogSpaceBackend(sum_mode="sequential")
    n_chains, steps = 16, 5
    seeds = list(range(n_chains))
    # Chains over fig10-shaped models (H=8, T=200): big enough that the
    # vectorized T-loop, not the per-proposal conversion, dominates.
    bases = [sample_hcg_like_hmm(8, 200, seed=s, bits_per_step=25.0)
             for s in seeds]

    start = time.perf_counter()
    batched = run_chains(backend, n_chains, bases=bases, steps=steps,
                         seeds=seeds)
    batch_per_chain = (time.perf_counter() - start) / n_chains

    scalar_subset = 2
    start = time.perf_counter()
    scalar = [run_chain(backend, bases[i], steps, seeds[i],
                        plan=ExecPlan.serial())
              for i in range(scalar_subset)]
    scalar_per_chain = (time.perf_counter() - start) / scalar_subset

    speedup = scalar_per_chain / batch_per_chain
    _RESULTS[f"mcmc_chains{n_chains}"] = {
        "chains": n_chains, "steps": steps,
        "scalar_s_per_chain": scalar_per_chain,
        "batch_s_per_chain": batch_per_chain,
        "speedup": speedup,
    }
    report("Batched MCMC chains",
           f"{n_chains} MH chains x {steps} steps: {speedup:.1f}x over "
           f"per-chain scalar runs")
    for got, want in zip(batched, scalar):
        assert (got.accepted, got.rejected, got.stuck, got.samples) == \
            (want.accepted, want.rejected, want.stuck, want.samples)
    assert speedup > 1.0


def test_quire_accumulation_speedup(report):
    """Batched limb-array quire accumulation vs per-element scalar
    Quire objects, element-exact."""
    env = PositEnv(16, 1)
    rng = np.random.default_rng(3)
    n_quires, terms = 8_000, 12
    bits = rng.integers(0, env.nar, size=(n_quires, terms)).astype(np.uint64)

    q = BatchQuire(env, (n_quires,))

    def accumulate():
        q.clear()
        for k in range(terms):
            q.add_posit(bits[:, k])
        return q.to_posit()

    # Best-of-3 steady state, like the batch-throughput suite: the
    # accumulator (and its scratch addend) is reused across chains.
    batch_rate, batch_out = -math.inf, None
    for _ in range(3):
        start = time.perf_counter()
        out = accumulate()
        rate = n_quires * terms / (time.perf_counter() - start)
        if rate > batch_rate:
            batch_rate, batch_out = rate, out

    subset = 150
    start = time.perf_counter()
    scalar_out = []
    for i in range(subset):
        sq = Quire(env)
        for k in range(terms):
            sq.add_posit(int(bits[i, k]))
        scalar_out.append(sq.to_posit())
    scalar_rate = subset * terms / (time.perf_counter() - start)

    speedup = batch_rate / scalar_rate
    _RESULTS["quire_accumulate_posit16_1"] = {
        "quires": n_quires, "terms": terms,
        "scalar_ops_per_s": scalar_rate, "batch_ops_per_s": batch_rate,
        "speedup": speedup,
    }
    report("Batched quire accumulation",
           f"posit(16,1) quire, {terms}-term sums: {speedup:.1f}x")
    assert [int(v) for v in batch_out[:subset]] == scalar_out
    assert speedup > 1.0


def test_lns_mul_speedup(report):
    """Batched LNS multiplication (pure fixed-point array math) vs the
    scalar env; the add path is measured but not gated (its exact
    Gaussian-log is memoized per distinct gap by design)."""
    backend = LNSBackend()
    batch = BatchLNS(scalar=backend)
    rng = np.random.default_rng(4)
    env = backend.env
    codes = rng.integers(env.min_code // 2, env.max_code // 2,
                         size=20_000).astype(np.int64)
    a, b = codes, codes[::-1].copy()

    subset = 2_000
    start = time.perf_counter()
    for x, y in zip(a[:subset].tolist(), b[:subset].tolist()):
        backend.mul(x, y)
    scalar_rate = subset / (time.perf_counter() - start)

    start = time.perf_counter()
    out = batch.mul(a, b)
    batch_rate = a.size / (time.perf_counter() - start)

    speedup = batch_rate / scalar_rate
    _RESULTS["lns_mul"] = {
        "scalar_ops_per_s": scalar_rate, "batch_ops_per_s": batch_rate,
        "speedup": speedup,
    }
    report("Batched LNS mul", f"lns(12,50) mul: {speedup:.1f}x")
    for i in range(0, subset, 97):
        assert batch.item(out, i) == backend.mul(int(a[i]), int(b[i]))
    assert not math.isinf(speedup)
    assert speedup > 1.0
