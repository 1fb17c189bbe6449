"""HMM algorithms beyond the paper's forward pass: backward and
posterior decoding, as views over the nd recurrences.

The forward and backward matrices are the traced recurrences
(:func:`repro.apps.hmm._forward_trace_nd`, :func:`_backward_nd`),
posterior decoding is their elementwise product, and Viterbi is
:func:`repro.workloads.viterbi` (the forward recurrence in the
max-product semiring, plus back-pointers).  They give the test suite
strong cross-validation invariants:

* forward and backward compute the *same* likelihood;
* alpha_t * beta_t sums to the likelihood at every position;
* the Viterbi path's probability is a lower bound on the likelihood.

:func:`path_probability` stays a scalar loop: it is the brute-force
oracle for Viterbi's optimality.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import faults as _faults
from .. import nd
from .. import telemetry as _tele
from ..arith.backend import Backend
from ..data.dirichlet import HMMData
from ..engine.plan import ExecPlan, resolve_plan
from .hmm import (_emission_shared, _forward_trace_nd, _lanes, _longest_first,
                  _obs_rows, _rejoin, _seq_rows, model_arrays)


def _backward_nd(a, b, pi, obs: np.ndarray, trace: bool = False,
                 lengths=None) -> "nd.FArray":
    """Right-to-left recurrence over a batch of sequences sharing one
    model, written once as an nd expression: ``beta[p] = sum_q(A[p, q]
    * (B[q, o_t] * beta[q]))`` with the ``sum`` fold over ``q`` in
    index order.  Lanes retire as in
    :func:`repro.apps.hmm._forward_recurrence`; lane ``s`` (length
    ``T_s``) reads ``o[T_s - k]`` at its ``k``-th step.  Returns the
    ``(B,)`` likelihoods — or, with ``trace`` (lanes of one length),
    every step's beta as ``(B, T, H)`` (the backward matrix)."""
    obs, lengths, live = _lanes(obs, lengths)
    with _tele.span("app.hmm.backward"):
        _faults.fire("app.hmm.backward")
        beta = nd.ones_like(a, (len(lengths), len(pi)))
        betas, done = [beta], []
        for k in range(1, len(live)):
            n = live[k]
            if n < live[k - 1]:
                done.append(beta[n:])
                beta = beta[:n]
            inner = b[:, obs[np.arange(n), lengths[:n] - k]].T * beta
            beta = nd.dot(a, inner[:, None, :], axis=2)
            if trace:
                betas.append(beta)
        if trace:
            return nd.stack(betas[::-1], axis=1)
        beta = _rejoin(beta, done)
        terms = nd.broadcast_to(pi, beta.shape) \
            * (_emission_shared(b, obs, 0) * beta)
        return nd.sum(terms, axis=1)


def backward(hmm: HMMData, backend: Optional[Backend] = None,
             plan: Optional[ExecPlan] = None):
    """The backward algorithm: returns the likelihood P(O | lambda)
    computed right-to-left (must agree with :func:`repro.apps.forward`).

    A B=1 view over :func:`backward_batch` (so the plan never changes
    the result); ``plan=ExecPlan.serial()`` forces the scalar baseline.
    """
    return backward_batch(hmm, backend, plan=plan)[0]


def backward_batch(hmm: HMMData, backend: Optional[Backend] = None,
                   observations=None,
                   plan: Optional[ExecPlan] = None) -> list:
    """Backward-algorithm likelihoods over a batch of observation
    sequences of any lengths (default: a batch of one, the HMM's own
    sequence).  Same contract as :func:`repro.apps.hmm.forward_batch`:
    one pass whose lanes retire at their own lengths, equal to the
    scalar recurrence per sequence bit for bit and in event tallies,
    vectorized where the format has an array mirror and through the
    scalar representation otherwise; the model converts once per call.
    """
    plan = resolve_plan(plan, where="backward_batch")
    if observations is None:
        observations = [hmm.observations]
    a, b, pi = model_arrays(hmm, backend, plan=plan)
    return _longest_first(
        _seq_rows(observations),
        lambda obs, lengths: _backward_nd(a, b, pi, obs, lengths=lengths))


def _b1_args(hmm: HMMData, backend: Backend) -> tuple:
    """``(a, b, pi, obs)`` of one HMM for the traced recurrences under
    the ambient plan (which never changes a value)."""
    return (*model_arrays(hmm, backend), _obs_rows([hmm.observations]))


def forward_matrix(hmm: HMMData, backend: Backend) -> List[list]:
    """All alpha vectors (T x H backend values)."""
    return _forward_trace_nd(*_b1_args(hmm, backend))[0].tolist()


def backward_matrix(hmm: HMMData, backend: Backend) -> List[list]:
    """All beta vectors (T x H backend values)."""
    return _backward_nd(*_b1_args(hmm, backend), trace=True)[0].tolist()


def _alpha_beta(hmm: HMMData, backend: Backend) -> "nd.FArray":
    args = _b1_args(hmm, backend)
    return _forward_trace_nd(*args)[0] * _backward_nd(*args, trace=True)[0]


def posterior_decode(hmm: HMMData, backend: Backend) -> List[int]:
    """Most probable state at each position: argmax_q alpha_t[q]*beta_t[q].

    The argmax compares values in the format's own total order (zero
    lowest) and keeps the first index on ties, so posterior decoding is
    well-defined in every format.
    """
    return [int(q) for q in _alpha_beta(hmm, backend).argmax(axis=-1)]


def posterior_distributions(hmm: HMMData, backend: Backend) -> List[list]:
    """The unnormalized posteriors alpha_t(q) * beta_t(q) as backend
    values (T x H): each step sums to the likelihood P(O | lambda), so
    gamma_t(q) = P(q_t = q | O) is this divided by it."""
    return _alpha_beta(hmm, backend).tolist()


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
