"""Poisson Binomial Distribution PMF and p-value (Section V.A, Listing 2).

Given N independent Bernoulli trials with success probabilities ``p_n``
and an observed success count K, the kernel iterates the PMF recurrence

    ``pr[k] = pr_prev[k] * (1 - p_n) + pr_prev[k-1] * p_n``

and accumulates the p-value ``P(X >= K)`` as the probability that the
K-th success arrives at trial n:

    ``pvalue += pr_prev[K-1] * p_n``   (for n > K ... N)

which is exactly Listing 2.  The generic implementation is parameterized
by an arithmetic backend; ``1 - p_n`` is computed exactly on the input
side (LoFreq precomputes ``ln(1 - p_n)`` the same way) so log-space never
needs a subtraction.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import faults as _faults
from .. import nd
from .. import telemetry as _tele
from ..arith.backend import Backend
from ..bigfloat import BigFloat
from ..engine.plan import ExecPlan, resolve_plan


def complement(p: BigFloat, prec: int = 256) -> BigFloat:
    """Exactly-rounded ``1 - p`` for a probability input.

    Validates the probability domain: a success probability outside
    [0, 1] is a workload-generation bug, and letting it through would
    silently break every downstream recurrence.
    """
    if p.is_negative() or p > BigFloat.from_int(1):
        raise ValueError("success probability must lie in [0, 1]")
    return BigFloat.from_int(1).sub(p, prec)


def _pbd_nd(pn: "nd.FArray", qn: "nd.FArray", k: int) -> "nd.FArray":
    """Listing 2 over a batch of sites, written once as an nd
    expression: ``pn``/``qn`` are ``(S, N)`` success probabilities and
    their exact complements; returns the ``(S,)`` p-values.

    The per-``j`` recurrence is vectorized over sites *and* PMF
    entries, which is value-preserving because ``add(x, 0)`` and
    ``mul(0, p)`` are exact in every backend.  Built from ``add`` and
    ``mul`` alone (no reductions), so the elementwise certification
    tier suffices — log-space qualifies in *both* sum modes
    (``np.logaddexp`` is bit-identical to ``lse2``).
    """
    if k < 1:
        raise ValueError("k must be >= 1 (a variant needs a success)")
    n_sites, n_trials = pn.shape
    if n_trials < k:
        raise ValueError("need at least k trials")
    with _tele.span("app.pbd"):
        _faults.fire("app.pbd")
        # pr[s, j] = P(j successes in the first n trials), tracked for
        # j < k.
        pr = nd.concatenate([nd.ones_like(pn, (n_sites, 1)),
                             nd.zeros_like(pn, (n_sites, k - 1))], axis=1)
        pvalue = nd.zeros_like(pn, (n_sites,))
        zero_col = nd.zeros_like(pn, (n_sites, 1))
        for n in range(n_trials):
            if n >= k - 1:
                pvalue = nd.multiply_add(pr[:, k - 1], pn[:, n], pvalue)
            shifted = nd.concatenate([zero_col, pr[:, :-1]], axis=1)
            pr = nd.multiply_add(shifted, pn[:, n:n + 1],
                                 pr * qn[:, n:n + 1])
        return pvalue


def _site_arrays(sites: Sequence[Sequence[BigFloat]], backend, plan):
    """(pn, qn) FArrays for a group of equal-length sites; complements
    are formed exactly on the input side (LoFreq precomputes
    ``ln(1 - p_n)`` the same way) so log-space never subtracts."""
    flat = [p for row in sites for p in row]
    flat_q = [complement(p) for row in sites for p in row]
    shape = (len(sites), len(sites[0]))
    pn = nd.asarray(flat, backend, plan=plan).reshape(shape)
    qn = nd.asarray(flat_q, backend, plan=plan).reshape(shape)
    return pn, qn


def pbd_pvalue(success_probs: Sequence[BigFloat], k: int,
               backend: Optional[Backend] = None,
               plan: Optional[ExecPlan] = None):
    """P(X >= k) over the given trials, as a backend value.

    Follows Listing 2: the PMF array ``pr`` only needs entries 0..k-1
    because trials beyond the k-th success contribute through the
    accumulation term.  A one-site view over :func:`_pbd_nd`;
    ``plan=ExecPlan.serial()`` forces the scalar representation.
    Results are identical either way.
    """
    plan = resolve_plan(plan, where="pbd_pvalue")
    if k < 1:
        raise ValueError("k must be >= 1 (a variant needs a success)")
    if len(success_probs) < k:
        raise ValueError("need at least k trials")
    pn, qn = _site_arrays([list(success_probs)], backend, plan)
    return _pbd_nd(pn, qn, k).item(0)


def pbd_pmf(success_probs: Sequence[BigFloat], max_k: int, backend: Backend) -> list:
    """The full PMF row P(X = j) for j = 0..max_k after all trials."""
    pn_vals = [backend.from_bigfloat(p) for p in success_probs]
    qn_vals = [backend.from_bigfloat(complement(p)) for p in success_probs]
    zero = backend.zero()
    pr_prev: List = [backend.one()] + [zero] * max_k
    for n in range(len(success_probs)):
        pn, qn = pn_vals[n], qn_vals[n]
        pr = [backend.mul(pr_prev[0], qn)]
        for j in range(1, max_k + 1):
            pr.append(backend.add(backend.mul(pr_prev[j], qn),
                                  backend.mul(pr_prev[j - 1], pn)))
        pr_prev = pr
    return pr_prev


def reference_pvalue(success_probs: Sequence[BigFloat], k: int,
                     prec: int = 256) -> BigFloat:
    """Oracle p-value at the given precision (the paper's 256-bit MPFR
    baseline)."""
    from ..arith.backends import BigFloatBackend
    return pbd_pvalue(success_probs, k, BigFloatBackend(prec))


def pbd_pvalue_batch(sites: Sequence[Sequence[BigFloat]], k: int,
                     backend: Optional[Backend] = None,
                     plan: Optional[ExecPlan] = None) -> list:
    """P(X >= k) for a batch of sites sharing trial count and ``k``.

    ``sites`` is a list of equal-length success-probability rows.
    Returns one backend value per site, equal element-for-element to
    calling :func:`pbd_pvalue` per site.  Formats with an array backend
    in :mod:`repro.engine` run the recurrence vectorized in one pass;
    others (the BigFloat oracle) run the same expression through the
    scalar representation.
    """
    plan = resolve_plan(plan, where="pbd_pvalue_batch")
    sites = list(sites)
    if not sites:
        return []
    n_trials = len(sites[0])
    if any(len(row) != n_trials for row in sites):
        raise ValueError("batched sites must share a trial count; "
                         "group by (depth, k) first")
    pn, qn = _site_arrays(sites, backend, plan)
    out = _pbd_nd(pn, qn, k)
    return [out.item(i) for i in range(len(sites))]


# ----------------------------------------------------------------------
# Vectorized fast paths
# ----------------------------------------------------------------------
def pbd_pvalue_float(success_probs: np.ndarray, k: int) -> float:
    """Vectorized binary64 PBD p-value (underflows for deep tails)."""
    p = np.asarray(success_probs, dtype=float)
    pr = np.zeros(k, dtype=float)
    pr[0] = 1.0
    pvalue = 0.0
    for n in range(p.shape[0]):
        pn = p[n]
        shifted = np.empty_like(pr)
        shifted[0] = 0.0
        shifted[1:] = pr[:-1]
        if n >= k - 1:
            pvalue += pr[k - 1] * pn
        pr = pr * (1.0 - pn) + shifted * pn
    return float(pvalue)


def pbd_pvalue_log(success_probs: np.ndarray, k: int) -> float:
    """Vectorized log-space PBD p-value (returns the natural log).

    ``np.logaddexp`` performs the binary LSE of Equation (2); this is the
    software structure of the paper's log-based column unit.
    """
    p = np.asarray(success_probs, dtype=float)
    with np.errstate(divide="ignore"):
        ln_p = np.log(p)
        ln_q = np.log1p(-p)
    neg_inf = -np.inf
    pr = np.full(k, neg_inf)
    pr[0] = 0.0
    ln_pvalue = neg_inf
    for n in range(p.shape[0]):
        lpn, lqn = ln_p[n], ln_q[n]
        shifted = np.empty_like(pr)
        shifted[0] = neg_inf
        shifted[1:] = pr[:-1]
        if n >= k - 1:
            ln_pvalue = np.logaddexp(ln_pvalue, pr[k - 1] + lpn)
        pr = np.logaddexp(pr + lqn, shifted + lpn)
    return float(ln_pvalue)
