"""Poisson Binomial Distribution PMF and p-value (Section V.A, Listing 2).

Given N independent Bernoulli trials with success probabilities ``p_n``
and an observed success count K, the kernel iterates the PMF recurrence

    ``pr[k] = pr_prev[k] * (1 - p_n) + pr_prev[k-1] * p_n``

and accumulates the p-value ``P(X >= K)`` as the probability that the
K-th success arrives at trial n:

    ``pvalue += pr_prev[K-1] * p_n``   (for n > K ... N)

which is exactly Listing 2.  The PMF and the p-value are one recurrence
(:func:`_pmf_nd`): the p-value is an extra PMF entry K whose "no
success" factor is the exact 1, so it absorbs the mass that reaches it.
The generic implementation is parameterized by an arithmetic backend;
``1 - p_n`` is computed exactly on the input side (LoFreq precomputes
``ln(1 - p_n)`` the same way) so log-space never needs a subtraction.
"""

from __future__ import annotations

from typing import Optional, Sequence

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


def _pmf_nd(pn: "nd.FArray", q, width: int, start=0) -> "nd.FArray":
    """The PMF recurrence over a batch of sites, written once as an nd
    expression: per trial ``n``,

        ``pr[j] = pr[j-1] * p_n + pr[j] * q(n)[j]``  (``pr[-1] = 0``)

    from ``pr`` of ``width`` entries, 0 but for a 1 at column ``start``
    (one per site, or one for all).  ``pn`` is the ``(S, N)`` success
    probabilities; ``q(n)`` yields trial ``n``'s factors, broadcastable
    to ``(S, width)``: the exact complement ``1 - p_n`` in a PMF column,
    or the exact 1 in an *absorbing* column, which then keeps every bit
    of mass that ever reached it.  Returns the ``(S, width)`` entries
    after the last trial.

    Vectorizing over sites *and* entries is value-preserving because
    ``add(x, 0)``, ``mul(0, p)`` and ``mul(x, 1)`` are exact in every
    backend.  Built from ``add`` and ``mul`` alone (no reductions), so
    log-space's ``sum_mode`` plays no part (``np.logaddexp`` is
    bit-identical to ``lse2``).
    """
    n_sites, n_trials = pn.shape
    one_hot = np.equal.outer(np.broadcast_to(start, (n_sites,)),
                             np.arange(width))
    pr = nd.concatenate([nd.zeros_like(pn, (1,)),
                         nd.ones_like(pn, (1,))])[one_hot.astype(np.intp)]
    zero_col = nd.zeros_like(pn, (n_sites, 1))
    for n in range(n_trials):
        shifted = nd.concatenate([zero_col, pr[:, :-1]], axis=1)
        pr = nd.multiply_add(shifted, pn[:, n:n + 1], pr * q(n))
    return pr


def _pbd_nd(pn: "nd.FArray", qn: "nd.FArray", k) -> "nd.FArray":
    """Listing 2 over a batch of sites: ``pn``/``qn`` are the ``(S, D)``
    right-aligned rows of :func:`_site_arrays`, ``k`` one success count
    per site (or one for all); returns the ``(S,)`` ``P(X >= k_s)``.

    The p-values are column K of a ``K+1``-wide :func:`_pmf_nd`, K the
    largest ``k``, whose column K is absorbing (factor exactly 1): its
    update ``pr[K-1] * p_n + pr[K] * 1`` is Listing 2's
    ``pvalue += pr[k-1] * p_n`` op for op.  Lane ``s`` starts at column
    ``K - k_s``, so its column ``K - k_s + j`` repeats the unpadded
    column ``j`` op for op: columns left of the start stay exact zeros
    and a pad trial leaves every entry exactly unchanged
    (``x * 0 + y * 1 = y``); exact ops fire no event.  With the
    absorbing column at ``k_s`` instead, live columns above it would
    keep accumulating and fire spurious events.
    """
    k = np.asarray(k)
    if (k < 1).any():
        raise ValueError("k must be >= 1 (a variant needs a success)")
    n_sites, n_trials = pn.shape
    width = int(k.max()) + 1
    with _tele.span("app.pbd"):
        _faults.fire("app.pbd")
        # Column n of q is trial n's complement and column D the exact 1,
        # so a trial's factors are one gather: K complements, then the 1.
        q = nd.concatenate([qn, nd.ones_like(qn, (n_sites, 1))], axis=1)
        absorbing = np.arange(width) == width - 1
        return _pmf_nd(pn, lambda n: q[:, np.where(absorbing, n_trials, n)],
                       width, width - 1 - k)[:, width - 1]


def _site_arrays(sites: Sequence[Sequence[BigFloat]], backend, plan):
    """Right-aligned ``(S, D)`` (pn, qn) for sites of any depths, D the
    deepest: site ``s``'s ``N_s`` trials end its row, after ``D - N_s``
    pad trials ``(p, q) = (0, 1)``.  Only real probabilities are
    converted, then each array is one gather from ``[values | pad]``;
    complements are formed exactly on the input side (LoFreq precomputes
    ``ln(1 - p_n)`` the same way) so log-space never subtracts."""
    flat = [p for row in sites for p in row]
    depths = np.array([len(row) for row in sites])
    ends = np.cumsum(depths)[:, None]
    # Site s's trial t is flat entry ends[s] - D + t; pads read entry -1.
    index = ends - depths.max() + np.arange(depths.max())
    index[index < ends - depths[:, None]] = -1
    pn = nd.asarray(flat, backend, plan=plan)
    qn = nd.asarray([complement(p) for p in flat], backend, plan=plan)
    return (nd.concatenate([pn, nd.zeros_like(pn, (1,))])[index],
            nd.concatenate([qn, nd.ones_like(qn, (1,))])[index])


def pbd_pvalue(success_probs: Sequence[BigFloat], k: int,
               backend: Optional[Backend] = None,
               plan: Optional[ExecPlan] = None):
    """P(X >= k) over the given trials, as a backend value.

    Follows Listing 2: the PMF array ``pr`` only needs entries 0..k-1,
    plus the absorbing entry k that accumulates ``P(X >= k)``.  A
    one-site view over :func:`pbd_pvalue_batch`;
    ``plan=ExecPlan.serial()`` forces the scalar representation.
    Results are identical either way.
    """
    plan = resolve_plan(plan, where="pbd_pvalue")
    return pbd_pvalue_batch([list(success_probs)], k, backend, plan=plan)[0]


def pbd_pmf(success_probs: Sequence[BigFloat], max_k: int, backend: Backend) -> list:
    """The full PMF row P(X = j) for j = 0..max_k after all trials: a
    one-site view over :func:`_pmf_nd` (every column a PMF column)."""
    pn, qn = _site_arrays([list(success_probs)], backend, None)
    return _pmf_nd(pn, lambda n: qn[:, n:n + 1], max_k + 1)[0].tolist()


def reference_pvalue(success_probs: Sequence[BigFloat], k: int,
                     prec: int = 256) -> BigFloat:
    """Oracle p-value at the given precision (the paper's 256-bit MPFR
    baseline)."""
    from ..arith.backends import BigFloatBackend
    return pbd_pvalue(success_probs, k, BigFloatBackend(prec))


def pbd_pvalue_batch(sites: Sequence[Sequence[BigFloat]], k,
                     backend: Optional[Backend] = None,
                     plan: Optional[ExecPlan] = None) -> list:
    """P(X >= k_s) for sites of any trial counts, in one padded call.

    ``sites`` is a list of success-probability rows; ``k`` one success
    count per site, or one int for all.  Returns one backend value per
    site, equal element-for-element (and in event tallies) to calling
    :func:`pbd_pvalue` per site.  Formats with an array backend in
    :mod:`repro.engine` run the recurrence vectorized in one pass;
    others (the BigFloat oracle) run the same expression through the
    scalar representation.
    """
    plan = resolve_plan(plan, where="pbd_pvalue_batch")
    sites = list(sites)
    if not sites:
        return []
    if (np.array([len(row) for row in sites]) < k).any():
        raise ValueError("need at least k trials")
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
