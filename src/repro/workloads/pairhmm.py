"""Pair-HMM read alignment (the GATK HaplotypeCaller kernel).

The likelihood that a read was sequenced from a haplotype, summed (or
maxed) over all alignments, via the classic three-state recurrence
over match/insert/delete matrices ``M, I, D`` of shape
``(R+1, L+1)``::

    M[i,j] = prior[i,j] × (tMM×M[i-1,j-1] ⊕ tIM×I[i-1,j-1]
                           ⊕ tDM×D[i-1,j-1])
    I[i,j] = tMI×M[i-1,j] ⊕ tII×I[i-1,j]
    D[i,j] = tMD×M[i,j-1] ⊕ tDD×D[i,j-1]
    result = total_j (M[R,j] ⊕ I[R,j])

with ``tMM = 1-2δ``, ``tMI = tMD = δ``, ``tII = tDD = ε``,
``tIM = tDM = 1-ε`` and the free-gap initialization
``D[0,j] = 1/L``.  ``⊕`` is the semiring's plus: probability addition
(LSE when the *format* is log-space — the exact GATK dataflow) or the
max of :data:`~repro.workloads.semiring.PAIRHMM_MAX`, the
HaplotypeCaller hybrid that recombines with max inside the recurrence
and sums only over where the read ends.

The kernel is one nd expression, row-vectorized over a batch of reads
(every elementwise op is ``(B, L)``-shaped; only the in-row ``D`` scan
is inherently serial in ``j``), so batch and serial plans run the same
ops in the same order — bit-identical or element-exact per format.
Match priors are precomputed input-side as exact float64 and rounded
into the format once, the paper's operand methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from .. import nd
from .. import telemetry as _tele
from ..engine.plan import ExecPlan, resolve_plan
from ..nd.context import _resolve_format
from .semiring import resolve_semiring


@dataclass(frozen=True)
class PairHMMParams:
    """Alignment model: gap open/extend probabilities and the base
    miscall rate (uniform over reads — per-base qualities would make
    the prior tensor position-dependent, nothing else changes)."""

    gap_open: float = 0.1      # δ
    gap_extend: float = 0.1    # ε
    mismatch: float = 0.01     # base error rate

    def transitions(self) -> dict:
        d, e = self.gap_open, self.gap_extend
        return {"tMM": 1.0 - 2.0 * d, "tMI": d, "tMD": d,
                "tII": e, "tDD": e, "tIM": 1.0 - e, "tDM": 1.0 - e}


def match_priors(haplotype, reads: np.ndarray,
                 mismatch: float) -> np.ndarray:
    """The emission tensor ``(B, R, L)``: probability of read base
    ``i`` given haplotype base ``j`` — ``1 - mismatch`` on agreement,
    ``mismatch / 3`` otherwise (uniform miscall over the other three
    bases), as exact float64 for one rounding on format entry."""
    hap = np.asarray(haplotype, dtype=np.intp)
    reads = np.asarray(reads, dtype=np.intp)
    if reads.ndim != 2:
        raise ValueError("reads must have shape (batch, R)")
    match = reads[:, :, None] == hap[None, None, :]
    return np.where(match, 1.0 - mismatch, mismatch / 3.0)


def _pairhmm_nd(priors, semiring, trans: dict, d_row):
    """The recurrence over an already-encoded prior tensor
    ``priors (B, R, L)`` (FArray); returns the ``(B,)`` likelihood
    FArray.  ``trans`` holds the seven transition FArrays (0-d) and
    ``d_row`` the free-gap row ``D[0] (B, L+1)``."""
    n_batch, n_reads, n_hap = priors.shape
    with _tele.span("workload.pairhmm"):
        m_row = nd.zeros_like(priors, (n_batch, n_hap + 1))
        i_row = nd.zeros_like(priors, (n_batch, n_hap + 1))
        zero_col = nd.zeros_like(priors, (n_batch, 1))
        for i in range(n_reads):
            rec = semiring.plus(
                semiring.plus(trans["tMM"] * m_row[:, :-1],
                              trans["tIM"] * i_row[:, :-1]),
                trans["tDM"] * d_row[:, :-1])
            m_new = nd.concatenate(
                [zero_col, priors[:, i, :] * rec], axis=1)
            i_new = semiring.plus(trans["tMI"] * m_row,
                                  trans["tII"] * i_row)
            # In-row delete scan: D[i, j] depends on D[i, j-1].
            src = trans["tMD"] * m_new
            d_cols = [zero_col[:, 0]]
            for j in range(1, n_hap + 1):
                d_cols.append(semiring.plus(
                    src[:, j - 1], trans["tDD"] * d_cols[j - 1]))
            m_row, i_row = m_new, i_new
            d_row = nd.stack(d_cols, axis=1)
        ends = semiring.plus(m_row, i_row)[:, 1:]
        return semiring.reduce(ends, axis=1)


def pairhmm_batch(haplotype, reads, backend=None,
                  params: Optional[PairHMMParams] = None,
                  plan: Optional[ExecPlan] = None,
                  semiring="pairhmm-max") -> List[Any]:
    """Alignment likelihoods for a batch of reads against one
    haplotype.

    ``haplotype`` is a length-``L`` symbol sequence, ``reads`` a
    ``(B, R)`` integer array over the same alphabet.  Returns one
    backend value per read.  ``semiring`` defaults to the
    HaplotypeCaller max/sum hybrid; pass ``"sum-product"`` for the
    full-sum likelihood (the LSE dataflow when the format is
    log-space).  The batch runs as one vectorized pass.
    """
    backend = _resolve_format(backend)
    plan = resolve_plan(plan, where="pairhmm_batch")
    params = params or PairHMMParams()
    sr = resolve_semiring(semiring)
    reads = np.asarray(reads, dtype=np.intp)
    hap = np.asarray(haplotype, dtype=np.intp)
    priors_f64 = match_priors(hap, reads, params.mismatch)
    trans = {k: nd.asarray(v, backend, plan=plan)
             for k, v in params.transitions().items()}
    priors = nd.asarray(priors_f64, backend, plan=plan)
    # Free gap before the read starts: D[0, j>=1] = 1/L.
    d_init = np.concatenate(
        [np.zeros((reads.shape[0], 1)),
         np.full((reads.shape[0], hap.size), 1.0 / hap.size)], axis=1)
    d_row = nd.asarray(d_init, backend, plan=plan)
    out = _pairhmm_nd(priors, sr, trans, d_row)
    return [out.item(i) for i in range(out.shape[0])]


__all__ = ["PairHMMParams", "match_priors", "pairhmm_batch"]
