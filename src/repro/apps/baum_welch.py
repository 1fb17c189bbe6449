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

from ..arith.backend import Backend
from ..data.dirichlet import HMMData
from .hmm import forward
from .hmm_extra import backward_matrix, forward_matrix


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


def _to_hmm(backend: Backend, a, b, pi, observations) -> HMMData:
    def grid(rows):
        return tuple(tuple(backend.to_bigfloat(v) for v in row)
                     for row in rows)
    return HMMData(grid(a), grid(b),
                   tuple(backend.to_bigfloat(v) for v in pi),
                   tuple(observations))


def baum_welch(hmm: HMMData, backend: Backend, iterations: int = 5) -> TrainingTrace:
    """Train ``iterations`` EM steps starting from ``hmm``'s parameters.

    Returns the per-iteration likelihood trajectory.  If any expected
    count normalizer underflows to the backend's zero, training is
    aborted and marked degenerate — the failure mode the paper's
    introduction describes for binary64.
    """
    h, m = hmm.n_states, hmm.n_symbols
    current = hmm
    log2_likes: List[float] = []
    for _ in range(iterations):
        like = forward(current, backend)
        if backend.is_zero(like):
            return TrainingTrace(log2_likes, False, True, None)
        log2_likes.append(_log2_of(backend, like))
        alphas = forward_matrix(current, backend)
        betas = backward_matrix(current, backend)
        a_vals = [[backend.from_bigfloat(x) for x in row]
                  for row in current.transition]
        b_vals = [[backend.from_bigfloat(x) for x in row]
                  for row in current.emission]
        obs = current.observations
        t_len = len(obs)
        # Expected counts (unnormalized gamma/xi sums).
        gamma_sum = [backend.zero()] * h  # over t = 0..T-2 (for A)
        gamma_total = [backend.zero()] * h  # over all t (for B)
        xi_sum = [[backend.zero()] * h for _ in range(h)]
        emit_sum = [[backend.zero()] * m for _ in range(h)]
        pi_new = [backend.mul(alphas[0][i], betas[0][i]) for i in range(h)]
        for t in range(t_len):
            for i in range(h):
                gamma = backend.mul(alphas[t][i], betas[t][i])
                gamma_total[i] = backend.add(gamma_total[i], gamma)
                emit_sum[i][obs[t]] = backend.add(emit_sum[i][obs[t]], gamma)
                if t < t_len - 1:
                    gamma_sum[i] = backend.add(gamma_sum[i], gamma)
                    for j in range(h):
                        xi = backend.mul(
                            backend.mul(alphas[t][i], a_vals[i][j]),
                            backend.mul(b_vals[j][obs[t + 1]],
                                        betas[t + 1][j]))
                        xi_sum[i][j] = backend.add(xi_sum[i][j], xi)
        if (any(backend.is_zero(g) for g in gamma_sum)
                or any(backend.is_zero(g) for g in gamma_total)):
            return TrainingTrace(log2_likes, False, True, None)
        a_new = [[backend.div(xi_sum[i][j], gamma_sum[i]) for j in range(h)]
                 for i in range(h)]
        b_new = [[backend.div(emit_sum[i][v], gamma_total[i])
                  for v in range(m)] for i in range(h)]
        pi_norm = backend.sum(pi_new)
        pi_new = [backend.div(p, pi_norm) for p in pi_new]
        current = _to_hmm(backend, a_new, b_new, pi_new, obs)
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
