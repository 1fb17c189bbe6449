"""Batched ViCAR/MCMC/backward kernels vs the scalar apps.

The contract mirrors the forward/PBD batch kernels: bit-for-bit
equality with the scalar loops for binary64, posit, LNS and log-space
in both sum modes, on the Figure 6/Figure 10 model shapes
(H in {13, 32}, magnitude-compressed to the deep-underflow regimes).
"""

import numpy as np
import pytest

from repro.apps.hmm import forward, forward_models_batch
from repro.apps.hmm_extra import backward, backward_batch
from repro.apps.mcmc import run_chain, run_chains
from repro.apps.vicar import VicarConfig, generate_instances, run_vicar
from repro.arith.backends import (
    Binary64Backend,
    LNSBackend,
    LogSpaceBackend,
    PositBackend,
)
from repro.data.dirichlet import HMMData, sample_hcg_like_hmm, sample_hmm
from repro.engine import ExecPlan
from repro.formats.posit import PositEnv

EXACT_FORMATS = ["binary64", "log-seq", "log", "posit(64,18)", "lns"]


def _backend(fmt):
    if fmt == "binary64":
        return Binary64Backend()
    if fmt == "log-seq":
        return LogSpaceBackend(sum_mode="sequential")
    if fmt == "log":
        return LogSpaceBackend()
    if fmt == "lns":
        return LNSBackend()
    return PositBackend(PositEnv(64, 18))


@pytest.fixture(params=EXACT_FORMATS)
def backend(request):
    return _backend(request.param)


def test_forward_models_batch_fig_configs(backend):
    """Per-model batched forward on the fig6/fig10 H values (scaled-down
    T), bit-for-bit against the scalar forward per instance."""
    config = VicarConfig(length=12, h_values=(13, 32), matrices_per_h=2,
                         bits_per_step=40.0, seed=0)
    instances = generate_instances(config)
    got = forward_models_batch(instances, backend)
    want = [forward(hmm, backend) for hmm in instances]
    assert got == want


def test_forward_models_batch_mixed_shapes(backend):
    """Groups with different (H, M, T) run separately and merge back in
    input order."""
    models = [sample_hmm(3, 4, 9, seed=1), sample_hmm(5, 4, 7, seed=2),
              sample_hmm(3, 4, 9, seed=3)]
    got = forward_models_batch(models, backend)
    want = [forward(m, backend) for m in models]
    assert got == want


def test_run_vicar_batch_identical(backend):
    config = VicarConfig(length=10, h_values=(5,), matrices_per_h=3,
                         bits_per_step=60.0, seed=1, oracle_prec=192)
    serial = run_vicar(config, {"fmt": backend}, plan=ExecPlan.serial())
    batched = run_vicar(config, {"fmt": backend})
    assert serial.scores == batched.scores
    assert serial.reference_scales == batched.reference_scales


def test_run_vicar_parallel_references_identical():
    backend = LogSpaceBackend(sum_mode="sequential")
    config = VicarConfig(length=10, h_values=(4,), matrices_per_h=4,
                         bits_per_step=50.0, seed=2, oracle_prec=192)
    serial = run_vicar(config, {"log": backend}, plan=ExecPlan.serial())
    fanned = run_vicar(config, {"log": backend}, plan=ExecPlan(n_workers=2))
    assert serial.scores == fanned.scores
    assert serial.reference_scales == fanned.reference_scales


def test_backward_batch_matches_scalar(backend):
    hmm = sample_hcg_like_hmm(4, 11, seed=5, bits_per_step=150.0)
    obs = np.array([hmm.observations, hmm.observations[::-1]])
    got = backward_batch(hmm, backend, obs)
    want = []
    for row in obs:
        clone = HMMData(hmm.transition, hmm.emission, hmm.initial,
                        tuple(int(o) for o in row))
        want.append(backward(clone, backend))
    assert got == want


def test_backward_equals_forward_likelihood_batched(backend):
    """Cross-validation invariant, preserved by the batched kernels."""
    hmm = sample_hmm(4, 5, 10, seed=6)
    obs = np.array([hmm.observations])
    f = forward_models_batch([hmm], backend)[0]
    b = backward_batch(hmm, backend, obs)[0]
    if isinstance(backend, Binary64Backend):
        assert b == pytest.approx(f, rel=1e-12)
    else:
        # Exact formats accumulate differently but stay within rounding;
        # compare through the exact value view.
        fb = backend.to_bigfloat(f)
        bb = backend.to_bigfloat(b)
        assert (fb.sub(bb, 128)).abs().to_float() <= \
            abs(fb.to_float()) * 1e-9 + 1e-300


def test_run_chains_matches_run_chain(backend):
    seeds = [0, 3, 8]
    got = run_chains(backend, len(seeds), steps=5, seeds=seeds)
    want = [run_chain(backend, None, 5, s) for s in seeds]
    for g, w in zip(got, want):
        assert (g.accepted, g.rejected, g.stuck) == \
            (w.accepted, w.rejected, w.stuck)
        assert g.samples == w.samples


def test_run_chains_scalar_fallback_is_default_path():
    """The serial plan must reproduce the batched decisions too (one code
    path cannot drift from the other)."""
    backend = _backend("posit(64,18)")
    batched = run_chains(backend, 2, steps=4, seeds=[1, 2])
    scalar = run_chains(backend, 2, steps=4, seeds=[1, 2],
                        plan=ExecPlan.serial())
    for g, w in zip(batched, scalar):
        assert (g.accepted, g.rejected, g.stuck, g.samples) == \
            (w.accepted, w.rejected, w.stuck, w.samples)


def test_run_chains_underflow_pathology_preserved():
    """binary64 chains stay stuck under deep underflow — batching must
    not launder the 0/0 pathology away."""
    results = run_chains(Binary64Backend(), 2, steps=4, seeds=[0, 1],
                         bits_per_step=400.0)
    for r in results:
        assert r.stuck == 4 and r.accepted == 0


def test_fig10_experiment_plans_identical():
    from repro.experiments import fig10_vicar_cdf
    serial = fig10_vicar_cdf.run("test", seed=2, plan=ExecPlan.serial())
    batched = fig10_vicar_cdf.run("test", seed=2, plan=ExecPlan(n_workers=2))
    for panel in serial.panels:
        # posit is element-exact through the engine and log-space (in
        # the default n-ary mode) bit-identical; identical scores.
        for fmt in ("posit(64,18)", "log"):
            assert serial.panels[panel].scores[fmt] == \
                batched.panels[panel].scores[fmt], fmt
        assert serial.panels[panel].reference_scales == \
            batched.panels[panel].reference_scales


def test_fig6_software_baseline_rows():
    from repro.experiments import fig6_forward_perf
    rows = fig6_forward_perf.run(plan=ExecPlan(measure=True))
    assert [r.h for r in rows] == [13, 32, 64, 128]
    for r in rows:
        assert r.sw_scalar_mmaps > 0 and r.sw_batch_mmaps > 0
    text = fig6_forward_perf.render(rows)
    assert "sw batch MMAPS" in text
