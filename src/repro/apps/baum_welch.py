"""Baum-Welch (EM) training of HMMs, generic over arithmetic backends.

The paper's motivation quotes a downstream consequence of underflow:
"underflow to zero prevents proper convergence and leads to incorrect
results" in inference algorithms.  Baum-Welch makes that concrete and
testable: the E step is exactly the forward-backward quantities whose
magnitudes collapse, and a backend that underflows produces degenerate
expected counts (0/0 normalizations) while log-space and posit backends
converge.

Re-estimation (Rabiner's classic formulas):

    gamma_t(i)  ~ alpha_t(i) * beta_t(i)
    xi_t(i,j)   ~ alpha_t(i) * a_ij * b_j(o_{t+1}) * beta_{t+1}(j)
    a'_ij  = sum_t xi_t(i,j) / sum_t gamma_t(i)
    b'_j(v) = sum_{t: o_t = v} gamma_t(j) / sum_t gamma_t(j)
    pi'_i  = gamma_0(i)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import nd
from ..arith.backend import Backend
from ..data.dirichlet import HMMData
from .hmm import _forward_trace_nd
from .hmm_extra import _b1_args, _backward_nd


@dataclass
class TrainingTrace:
    """Per-iteration record of one Baum-Welch run."""

    log2_likelihoods: List[float]
    converged: bool
    degenerate: bool  # a normalization hit 0/0 (underflow collapse)
    model: Optional[HMMData]

    @property
    def iterations(self) -> int:
        return len(self.log2_likelihoods)

    def monotone_increasing(self, tol: float = 1e-6) -> bool:
        """EM guarantees non-decreasing likelihood (up to rounding)."""
        pairs = zip(self.log2_likelihoods, self.log2_likelihoods[1:])
        return all(b >= a - tol for a, b in pairs)


def _fold(x: "nd.FArray") -> "nd.FArray":
    """``x`` added up over axis 0 one step at a time, in index order
    from zero: the expected counts' accumulation order.  (``FArray.sum``
    would not do: n-ary log-space folds it with the Equation-3 LSE.)"""
    acc = nd.zeros_like(x, x.shape[1:])
    for t in range(x.shape[0]):
        acc = acc + x[t]
    return acc


def _grid(x: "nd.FArray") -> tuple:
    """A 2-d FArray's exact values as rows (an HMMData parameter)."""
    values, cols = x.to_bigfloats(), x.shape[1]
    return tuple(tuple(values[i:i + cols])
                 for i in range(0, len(values), cols))


def baum_welch(hmm: HMMData, backend: Backend, iterations: int = 5) -> TrainingTrace:
    """Train ``iterations`` EM steps starting from ``hmm``'s parameters.

    Returns the per-iteration likelihood trajectory.  If any expected
    count normalizer underflows to the backend's zero, training is
    aborted and marked degenerate — the failure mode the paper's
    introduction describes for binary64.

    Each step is nd expressions over the traced forward and backward
    matrices; the ambient plan never changes a value.
    """
    current = hmm
    log2_likes: List[float] = []
    for _ in range(iterations):
        a, b, pi, rows = _b1_args(current, backend)
        alphas = _forward_trace_nd(a, b, pi, rows)[0]
        # The forward likelihood: the last alpha's fold over states.
        like = alphas[-1].sum(axis=0).item()
        if backend.is_zero(like):
            return TrainingTrace(log2_likes, False, True, None)
        log2_likes.append(_log2_of(backend, like))
        betas = _backward_nd(a, b, pi, rows, trace=True)[0]
        obs = rows[0]
        # Expected counts, each folded over t in order: gamma_t(i) over
        # t < T-1 (for A; one more step gives every t, for B) and
        # xi_t(i, j) over t < T-1.
        gamma = alphas * betas
        xi = (alphas[:-1, :, None] * a) \
            * (b[:, obs[1:]].T * betas[1:])[:, None, :]
        gamma_sum = _fold(gamma[:-1])
        gamma_total = gamma_sum + gamma[-1]
        if gamma_sum.is_zero().any() or gamma_total.is_zero().any():
            return TrainingTrace(log2_likes, False, True, None)
        emit_sum = nd.stack([_fold(gamma[np.flatnonzero(obs == v)])
                             for v in range(current.n_symbols)], axis=1)
        a_new = _fold(xi) / gamma_sum[:, None]
        b_new = emit_sum / gamma_total[:, None]
        pi_new = gamma[0] / gamma[0].sum(axis=0)
        current = HMMData(_grid(a_new), _grid(b_new),
                          tuple(pi_new.to_bigfloats()),
                          tuple(current.observations))
    converged = len(log2_likes) >= 2 and abs(
        log2_likes[-1] - log2_likes[-2]) < 1e-3 * max(1.0, abs(log2_likes[-1]))
    return TrainingTrace(log2_likes, converged, False, current)


def _log2_of(backend: Backend, value) -> float:
    from ..bigfloat import log2 as bf_log2
    return bf_log2(backend.to_bigfloat(value), 64).to_float()


def improvement_decades(trace: TrainingTrace) -> float:
    """Total likelihood improvement over training, in log2 units."""
    if len(trace.log2_likelihoods) < 2:
        return 0.0
    return trace.log2_likelihoods[-1] - trace.log2_likelihoods[0]
