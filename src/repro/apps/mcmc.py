"""Metropolis-Hastings over HMM parameters — the paper's cited failure
mode for underflow in Bayesian inference ([47], [81]: "underflow to zero
prevents proper convergence ... in algorithms such as Variational
Inference and Markov Chain Monte Carlo").

The acceptance decision needs the likelihood *ratio* L(theta') / L(theta).
When both likelihoods underflow to zero the ratio is 0/0: the chain
cannot move rationally.  This module runs a small random-walk MH chain
over the transition-matrix concentration and reports acceptance
statistics per backend, making the paper's motivation measurable:

* binary64: every proposal evaluates to 0 -> the chain is **stuck**
  (or accepts blindly, depending on the 0/0 convention — we count both);
* log-space and posit: the ratio is well-defined and the chain mixes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..arith.backend import Backend
from ..bigfloat import BigFloat
from ..data.dirichlet import HMMData, sample_hcg_like_hmm
from ..engine.plan import ExecPlan, resolve_plan
from .hmm import forward_models_batch


@dataclass
class ChainResult:
    """Outcome of one Metropolis-Hastings run."""

    accepted: int
    rejected: int
    stuck: int  # proposals where the ratio was undefined (0/0)
    samples: List[float] = field(default_factory=list)  # accepted params

    @property
    def steps(self) -> int:
        return self.accepted + self.rejected + self.stuck

    @property
    def acceptance_rate(self) -> float:
        moves = self.accepted + self.rejected
        return self.accepted / moves if moves else 0.0

    @property
    def mixed(self) -> bool:
        """A healthy chain both accepts and rejects and is never stuck."""
        return self.stuck == 0 and self.accepted > 0 and self.rejected > 0


def _likelihood_ratio(backend: Backend, proposed, current) -> Optional[float]:
    """L(theta')/L(theta) as a float in [0, inf); None when undefined."""
    p_zero = backend.is_zero(proposed)
    c_zero = backend.is_zero(current)
    if p_zero and c_zero:
        return None  # 0/0: the underflow pathology
    if p_zero:
        return 0.0
    if c_zero:
        return math.inf
    ratio = backend.div(proposed, current)
    value = backend.to_bigfloat(ratio)
    f = value.to_float()
    return f if math.isfinite(f) else math.inf


def _perturbed_model(base: HMMData, scale_jitter: float,
                     seed: int) -> HMMData:
    """Propose new parameters: rescale the emission magnitudes slightly
    (a random-walk step on the magnitude parameter the synthetic HCG
    generator exposes)."""
    rng = random.Random(seed)
    factor = BigFloat.from_float(math.exp(rng.gauss(0.0, scale_jitter)))
    emission = tuple(tuple(v.mul(factor, 128) for v in row)
                     for row in base.emission)
    return HMMData(base.transition, emission, base.initial,
                   base.observations)


def run_chain(backend: Backend, base: Optional[HMMData] = None,
              steps: int = 20, seed: int = 0,
              scale_jitter: float = 0.2,
              bits_per_step: float = 150.0,
              plan: Optional[ExecPlan] = None) -> ChainResult:
    """Run one random-walk MH chain; returns acceptance statistics.

    A one-chain view over :func:`run_chains` — there is a single chain
    recurrence, shared by the scalar and batched paths.  The default
    workload's likelihood (~2**-4500 for 30 sites at 150 bits/site) is
    far below binary64's range, so the binary64 chain is stuck from the
    first proposal.
    """
    bases = None if base is None else [base]
    return run_chains(backend, 1, bases=bases, steps=steps, seeds=[seed],
                      scale_jitter=scale_jitter,
                      bits_per_step=bits_per_step, plan=plan)[0]


def run_chains(backend: Backend, n_chains: int,
               bases: Optional[List[HMMData]] = None,
               steps: int = 20, seeds: Optional[List[int]] = None,
               scale_jitter: float = 0.2,
               bits_per_step: float = 150.0,
               plan: Optional[ExecPlan] = None) -> List[ChainResult]:
    """Run ``n_chains`` independent MH chains, evaluating every step's
    likelihoods through the vectorized multi-model forward kernel.

    There is one chain recurrence: the per-step likelihood evaluation
    flows through :func:`repro.apps.hmm.forward_models_batch` —
    vectorized where the format has a batch mirror, the scalar
    reference recurrence for the BigFloat oracle — so chain ``c`` is
    decision-for-decision identical for *every* plan (the proposal and
    acceptance RNG streams depend only on ``seeds[c]``, and likelihoods
    never differ between paths).  ``plan=ExecPlan.serial()`` forces the
    scalar loop, which is the throughput baseline, not a different
    algorithm.
    """
    plan = resolve_plan(plan, where="run_chains")
    if seeds is None:
        seeds = list(range(n_chains))
    if len(seeds) != n_chains:
        raise ValueError("need one seed per chain")
    if bases is None:
        bases = [sample_hcg_like_hmm(3, 30, seed=s,
                                     bits_per_step=bits_per_step)
                 for s in seeds]
    if len(bases) != n_chains:
        raise ValueError("need one base model per chain")
    rngs = [random.Random(s) for s in seeds]
    current_models = list(bases)
    current_likes = forward_models_batch(current_models, backend, plan=plan)
    results = [ChainResult(0, 0, 0) for _ in range(n_chains)]
    for step in range(steps):
        proposals = [_perturbed_model(current_models[c], scale_jitter,
                                      seed=seeds[c] * 1000 + step)
                     for c in range(n_chains)]
        proposed_likes = forward_models_batch(proposals, backend, plan=plan)
        for c in range(n_chains):
            result = results[c]
            ratio = _likelihood_ratio(backend, proposed_likes[c],
                                      current_likes[c])
            if ratio is None:
                result.stuck += 1
                continue
            if ratio >= 1.0 or rngs[c].random() < ratio:
                result.accepted += 1
                current_models[c] = proposals[c]
                current_likes[c] = proposed_likes[c]
                result.samples.append(ratio)
            else:
                result.rejected += 1
    return results
