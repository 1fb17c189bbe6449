"""VICAR-like phylogenetics workload (Section V.A): HMM forward-algorithm
likelihoods on genome-scale magnitude trajectories, scored per format.

The real VICAR computes likelihoods down to 2**-2,900,000 on 500,000-site
Human-Chimp-Gorilla alignments.  This module runs the same forward
algorithm on magnitude-compressed synthetic HMMs (see
:func:`repro.data.sample_hcg_like_hmm`) and scores each format's final
likelihood against the 256-bit oracle — producing the data behind the
paper's Figure 10 CDFs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..arith.backend import Backend
from ..arith.backends import BigFloatBackend
from ..bigfloat import BigFloat
from ..core.accuracy import OK, OpResult, score_value
from ..data.dirichlet import HMMData, sample_hcg_like_hmm
from ..engine.plan import ExecPlan, resolve_plan
from .hmm import forward, forward_models_batch


@dataclass(frozen=True)
class VicarConfig:
    """One Figure 10 experiment configuration.

    The paper runs T in {100_000, 500_000} with 128 A/B matrices for each
    H in {13, 32, 64, 128}.  ``bits_per_step`` compresses the magnitude
    axis so a scaled T reaches the same final likelihood exponent; the
    defaults target the T=100,000 magnitude regime (2**-590,000).
    """

    length: int = 500
    h_values: tuple = (13, 32)
    matrices_per_h: int = 4
    bits_per_step: float = 1180.0
    seed: int = 0
    oracle_prec: int = 256

    @property
    def target_scale(self) -> float:
        """Approximate final-likelihood base-2 exponent."""
        return -self.bits_per_step * self.length


def paper_config(t: int) -> VicarConfig:
    """The paper's own parameters (T = 100_000 or 500_000, 128 matrices
    per H) — runnable in principle, used for documentation and the
    hardware model; far too slow for per-op software arithmetic."""
    return VicarConfig(length=t, h_values=(13, 32, 64, 128),
                       matrices_per_h=128, bits_per_step=5.8)


def scaled_config(t: int, matrices_per_h: int = 4,
                  h_values: tuple = (13, 32), seed: int = 0) -> VicarConfig:
    """Magnitude-faithful scaled configuration: final likelihood exponent
    matches the paper's at sequence length ``t``."""
    scaled_len = 500
    return VicarConfig(length=scaled_len, h_values=h_values,
                       matrices_per_h=matrices_per_h,
                       bits_per_step=5.8 * t / scaled_len, seed=seed)


@dataclass
class VicarResult:
    """Accuracy results for one configuration."""

    config: VicarConfig
    #: per format: list of OpResult (one per matrix)
    scores: Dict[str, List[OpResult]] = field(default_factory=dict)
    #: oracle likelihood scales (one per matrix)
    reference_scales: List[int] = field(default_factory=list)

    def log10_errors(self, fmt: str) -> List[float]:
        return [r.log10_error for r in self.scores[fmt] if r.status == OK]

    def failure_count(self, fmt: str) -> int:
        return sum(1 for r in self.scores[fmt] if r.status != OK)

    def fraction_below(self, fmt: str, threshold_log10: float) -> float:
        """CDF readout: fraction of runs with relative error below
        10**threshold_log10 (the paper quotes e.g. 'fraction < 1e-8')."""
        scores = self.scores[fmt]
        if not scores:
            return 0.0
        good = sum(1 for r in scores
                   if r.status == OK and r.log10_error < threshold_log10)
        return good / len(scores)


def generate_instances(config: VicarConfig) -> List[HMMData]:
    """All HMM instances for a configuration (deterministic in seed)."""
    instances = []
    for hi, h in enumerate(config.h_values):
        for m in range(config.matrices_per_h):
            seed = config.seed + 7919 * hi + m
            instances.append(sample_hcg_like_hmm(
                h, config.length, seed=seed,
                bits_per_step=config.bits_per_step))
    return instances


def _oracle_forward(task) -> BigFloat:
    """Worker entry for the parallel reference pass (module-level so the
    process pool can pickle it)."""
    hmm, prec = task
    return forward(hmm, BigFloatBackend(prec))


def reference_likelihoods(instances: Sequence[HMMData], prec: int = 256,
                          plan: Optional[ExecPlan] = None) -> List[BigFloat]:
    """Oracle likelihood per instance, fanned across ``plan.n_workers``
    worker processes when the plan is parallel (the oracle pass
    dominates run time; instances are independent, and the merge
    preserves instance order)."""
    plan = resolve_plan(plan, where="reference_likelihoods")
    tasks = [(hmm, prec) for hmm in instances]
    if not plan.parallel:
        return [_oracle_forward(t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=plan.n_workers,
                             mp_context=ctx) as pool:
        return list(pool.map(_oracle_forward, tasks, chunksize=1))


def run_vicar(config: VicarConfig, backends: Dict[str, Backend],
              instances: Optional[Sequence[HMMData]] = None,
              plan: Optional[ExecPlan] = None) -> VicarResult:
    """Run every backend over every instance; score final likelihoods
    against the oracle.

    Each format's likelihoods run through the vectorized multi-model
    forward kernel: one call per distinct state count H, each model's
    lane retiring at its own sequence length, equal to the per-model
    scalar loop bit for bit (see
    :func:`repro.apps.hmm.forward_models_batch`);
    ``plan=ExecPlan.serial()`` runs the same call on the scalar plane.
    ``plan.n_workers`` fans the oracle reference pass across processes;
    the scores are order-preserving and identical for any worker count.
    """
    plan = resolve_plan(plan, where="run_vicar")
    if instances is None:
        instances = generate_instances(config)
    result = VicarResult(config)
    references = reference_likelihoods(instances, config.oracle_prec,
                                       plan=plan)
    result.reference_scales.extend(ref.scale for ref in references)
    for fmt, backend in backends.items():
        values = forward_models_batch(instances, backend, plan=plan)
        result.scores[fmt] = [score_value(backend, value, ref)
                              for value, ref in zip(values, references)]
    return result
