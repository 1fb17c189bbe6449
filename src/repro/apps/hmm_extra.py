"""HMM algorithms beyond the paper's forward pass: backward, Viterbi and
posterior decoding.

These exercise the same probability arithmetic (iterated mul/add over
shrinking magnitudes) through different dataflows, and give the test
suite strong cross-validation invariants:

* forward and backward compute the *same* likelihood;
* posterior state probabilities sum to 1 at every position;
* the Viterbi path's probability is a lower bound on the likelihood.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import faults as _faults
from .. import nd
from .. import telemetry as _tele
from ..arith.backend import Backend
from ..data.dirichlet import HMMData
from ..engine.plan import ExecPlan, resolve_plan


def _backward_nd(a, b, pi, obs: np.ndarray) -> "nd.FArray":
    """Right-to-left recurrence over a batch of sequences sharing one
    model, written once as an nd expression: ``beta[p] = sum_q(A[p, q]
    * (B[q, o_t] * beta[q]))`` with the ``sum`` fold over ``q`` in
    index order.  Returns the ``(B,)`` likelihoods."""
    from .hmm import _emission_shared
    obs = np.asarray(obs)
    if obs.ndim != 2:
        raise ValueError("obs must have shape (batch, T)")
    n_batch, t_len = obs.shape
    with _tele.span("app.hmm.backward"):
        _faults.fire("app.hmm.backward")
        beta = nd.ones_like(a, (n_batch, len(pi)))
        for t in range(t_len - 1, 0, -1):
            inner = _emission_shared(b, obs, t) * beta
            beta = nd.dot(a, inner[:, None, :], axis=2)
        terms = nd.broadcast_to(pi, beta.shape) \
            * (_emission_shared(b, obs, 0) * beta)
        return nd.sum(terms, axis=1)


def backward(hmm: HMMData, backend: Optional[Backend] = None,
             plan: Optional[ExecPlan] = None):
    """The backward algorithm: returns the likelihood P(O | lambda)
    computed right-to-left (must agree with :func:`repro.apps.forward`).

    A B=1 view over :func:`_backward_nd` in the *reduction-certified*
    representation tier (so this scalar entry point never changes
    results); ``plan=ExecPlan.serial()`` forces the scalar baseline.
    """
    from .hmm import _obs_rows, model_arrays
    plan = resolve_plan(plan, where="backward")
    a, b, pi = model_arrays(hmm, backend, plan=plan, certified=True)
    return _backward_nd(a, b, pi, _obs_rows([hmm.observations])).item(0)


def backward_batch(hmm: HMMData, backend: Optional[Backend] = None,
                   observations=None,
                   plan: Optional[ExecPlan] = None) -> list:
    """Backward-algorithm likelihoods over a batch of observation
    sequences (``(B, T)`` ints; default: a batch of one, the HMM's own
    sequence).  Same contract as :func:`repro.apps.hmm.forward_batch`:
    one vectorized pass where the format has an array mirror, equal to
    the scalar recurrence per sequence (exactly, except log-space's
    default n-ary mode, which matches within an ulp); other formats run
    the same expression through the scalar representation with the
    model conversion hoisted out of the per-sequence recurrence.
    """
    from .hmm import _seq_rows, model_arrays
    plan = resolve_plan(plan, where="backward_batch")
    if observations is None:
        observations = [hmm.observations]
    a, b, pi = model_arrays(hmm, backend, plan=plan, certified=False)
    seqs = _seq_rows(observations)
    if len({len(s) for s in seqs}) > 1:
        # Ragged batch: per-sequence B=1 passes over the hoisted model.
        return [_backward_nd(a, b, pi,
                             np.asarray([s], dtype=np.intp)).item(0)
                for s in seqs]
    out = _backward_nd(a, b, pi, np.asarray(seqs, dtype=np.intp))
    return [out.item(i) for i in range(out.shape[0])]


def forward_matrix(hmm: HMMData, backend: Backend) -> List[list]:
    """All alpha vectors (T x H backend values)."""
    obs = hmm.observations
    h = hmm.n_states
    a = [[backend.from_bigfloat(x) for x in row] for row in hmm.transition]
    b = [[backend.from_bigfloat(x) for x in row] for row in hmm.emission]
    pi = [backend.from_bigfloat(x) for x in hmm.initial]
    alphas = [[backend.mul(pi[q], b[q][obs[0]]) for q in range(h)]]
    for t in range(1, len(obs)):
        ot = obs[t]
        prev = alphas[-1]
        alphas.append([
            backend.mul(backend.sum(backend.mul(prev[p], a[p][q])
                                    for p in range(h)), b[q][ot])
            for q in range(h)])
    return alphas


def backward_matrix(hmm: HMMData, backend: Backend) -> List[list]:
    """All beta vectors (T x H backend values)."""
    obs = hmm.observations
    h = hmm.n_states
    a = [[backend.from_bigfloat(x) for x in row] for row in hmm.transition]
    b = [[backend.from_bigfloat(x) for x in row] for row in hmm.emission]
    betas = [[backend.one()] * h]
    for t in range(len(obs) - 1, 0, -1):
        ot = obs[t]
        nxt = betas[0]
        betas.insert(0, [backend.sum(
            backend.mul(a[p][q], backend.mul(b[q][ot], nxt[q]))
            for q in range(h)) for p in range(h)])
    return betas


def posterior_decode(hmm: HMMData, backend: Backend) -> List[int]:
    """Most probable state at each position: argmax_q alpha_t[q]*beta_t[q].

    The argmax is taken by exact value comparison (via the backend's
    BigFloat view), so posterior decoding is well-defined even for
    formats whose encodings are not order-isomorphic to floats.
    """
    alphas = forward_matrix(hmm, backend)
    betas = backward_matrix(hmm, backend)
    path = []
    for alpha_t, beta_t in zip(alphas, betas):
        best_q, best_v = 0, None
        for q, (av, bv) in enumerate(zip(alpha_t, beta_t)):
            prod = backend.mul(av, bv)
            value = None if backend.is_zero(prod) else backend.to_bigfloat(prod)
            if value is None:
                continue
            if best_v is None or value > best_v:
                best_q, best_v = q, value
        path.append(best_q)
    return path


def posterior_distributions(hmm: HMMData, backend: Backend) -> List[list]:
    """gamma_t(q) = P(q_t = q | O) as backend values, normalized by the
    likelihood.  Only meaningful for backends with division (the oracle
    and binary64); used by the invariants tests."""
    alphas = forward_matrix(hmm, backend)
    betas = backward_matrix(hmm, backend)
    out = []
    for alpha_t, beta_t in zip(alphas, betas):
        out.append([backend.mul(a, b) for a, b in zip(alpha_t, beta_t)])
    return out


def viterbi(hmm: HMMData, backend: Backend) -> Tuple[List[int], object]:
    """Most probable state path and its probability.

    ``max`` is evaluated by exact value comparison.  In log-space the
    products become sums and the same code applies unchanged — Viterbi
    needs no LSE at all, which is why log-space Viterbi is cheap while
    the forward algorithm is not (the paper's LSE cost argument applies
    only to *summing* paths).
    """
    obs = hmm.observations
    h = hmm.n_states
    a = [[backend.from_bigfloat(x) for x in row] for row in hmm.transition]
    b = [[backend.from_bigfloat(x) for x in row] for row in hmm.emission]
    pi = [backend.from_bigfloat(x) for x in hmm.initial]

    def key(value):
        if backend.is_zero(value):
            return None
        return backend.to_bigfloat(value)

    delta = [backend.mul(pi[q], b[q][obs[0]]) for q in range(h)]
    parents: List[List[int]] = []
    for t in range(1, len(obs)):
        ot = obs[t]
        nxt = []
        row_parents = []
        for q in range(h):
            best_v = backend.mul(delta[0], a[0][q])
            best_p, best_key = 0, key(best_v)
            for p in range(1, h):
                cand = backend.mul(delta[p], a[p][q])
                ck = key(cand)
                if best_key is None or (ck is not None and ck > best_key):
                    best_p, best_v, best_key = p, cand, ck
            nxt.append(backend.mul(best_v, b[q][ot]))
            row_parents.append(best_p)
        delta = nxt
        parents.append(row_parents)
    # Trace back from the best final state.
    best_q, best_key = 0, key(delta[0])
    for q in range(1, h):
        ck = key(delta[q])
        if best_key is None or (ck is not None and ck > best_key):
            best_q, best_key = q, ck
    path = [best_q]
    for row_parents in reversed(parents):
        path.append(row_parents[path[-1]])
    path.reverse()
    return path, delta[path[-1]]


def path_probability(hmm: HMMData, path: List[int], backend: Backend):
    """P(O, q = path | lambda): probability of one specific state path —
    used to verify Viterbi's optimality against brute force."""
    obs = hmm.observations
    a = [[backend.from_bigfloat(x) for x in row] for row in hmm.transition]
    b = [[backend.from_bigfloat(x) for x in row] for row in hmm.emission]
    pi = [backend.from_bigfloat(x) for x in hmm.initial]
    p = backend.mul(pi[path[0]], b[path[0]][obs[0]])
    for t in range(1, len(obs)):
        p = backend.mul(p, backend.mul(a[path[t - 1]][path[t]],
                                       b[path[t]][obs[t]]))
    return p
