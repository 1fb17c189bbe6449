"""Raw-array views over the application recurrences.

Since the :mod:`repro.nd` redesign there is exactly *one*
implementation of each application recurrence — the format-tagged
array expressions in :mod:`repro.apps` (``_forward_nd``,
``_backward_nd``, ``_pbd_nd``, ...).  This module keeps the original
kernel surface for callers that already hold a
:class:`~repro.engine.batch.BatchBackend` plus packed code arrays
(benchmarks, equivalence tests, external users of PR 1/2): each
function wraps the raw arrays into :class:`~repro.nd.FArray`\\ s over
the given backend, runs the shared expression, and hands the packed
result array back.

Every elementwise op and every reduction happens in the same order and
through the same primitive as the scalar backends, so the results are
bit-identical (binary64, log-space in matching ``sum_mode``) or
element-exact (posit, LNS) — only vectorized across a batch dimension.
On posit the expressions keep the decoded plane resident: each model
array decodes once per call, and only the returned codes are built.
"""

from __future__ import annotations

import numpy as np

from .. import faults as _faults
from .. import telemetry as _tele
from .batch import BatchBackend


def _wrap3(backend: BatchBackend, a, b, pi):
    from ..nd import wrap
    return wrap(a, bb=backend), wrap(b, bb=backend), wrap(pi, bb=backend)


def forward_batch(backend: BatchBackend, a: np.ndarray, b: np.ndarray,
                  pi: np.ndarray, obs: np.ndarray,
                  semiring=None) -> np.ndarray:
    """Forward algorithm over a batch of observation sequences.

    Parameters
    ----------
    a, b, pi:
        Model parameters as *backend value* arrays: transition ``(H, H)``,
        emission ``(H, M)``, initial ``(H,)`` (convert once with
        ``backend.from_bigfloats``).
    obs:
        Integer observation symbols, shape ``(B, T)``.

    Returns the batch of likelihoods, shape ``(B,)``, as backend values.
    Mirrors :func:`repro.apps.hmm.forward` exactly: per step,
    ``alpha'[q] = sum_p(alpha[p] * A[p, q]) * B[q, o_t]`` with the
    backend's ``sum`` reduction over ``p`` in index order.  ``semiring``
    (a :class:`~repro.workloads.semiring.Semiring` or registered name)
    swaps the recurrence algebra — ``"max-product"`` yields Viterbi
    scores.
    """
    from ..apps.hmm import _forward_nd
    with _tele.span("kernel.forward_batch"):
        _faults.fire("kernel.forward_batch")
        fa, fb, fpi = _wrap3(backend, a, b, pi)
        return np.asarray(_forward_nd(fa, fb, fpi, obs,
                                      semiring=semiring).data)


def forward_alpha_trace_batch(backend: BatchBackend, a: np.ndarray,
                              b: np.ndarray, pi: np.ndarray,
                              obs: np.ndarray) -> np.ndarray:
    """Per-iteration total alpha mass for a batch of sequences, shape
    ``(B, T)`` — the batched counterpart of ``forward_alpha_trace``."""
    from ..apps.hmm import _forward_trace_nd
    with _tele.span("kernel.forward_alpha_trace_batch"):
        _faults.fire("kernel.forward_alpha_trace_batch")
        fa, fb, fpi = _wrap3(backend, a, b, pi)
        return np.asarray(
            _forward_trace_nd(fa, fb, fpi, obs).data)


def forward_multi_batch(backend: BatchBackend, a: np.ndarray, b: np.ndarray,
                        pi: np.ndarray, obs: np.ndarray,
                        semiring=None) -> np.ndarray:
    """Forward algorithm over a batch of *models* (the ViCAR/MCMC shape:
    every element has its own parameters and its own sequence).

    Parameters
    ----------
    a, b, pi:
        Per-model parameters as backend value arrays: transition
        ``(B, H, H)``, emission ``(B, H, M)``, initial ``(B, H)``.
    obs:
        Integer observation symbols, shape ``(B, T)``.

    Returns the likelihoods, shape ``(B,)``.  Op-for-op identical to
    running :func:`repro.apps.hmm.forward` once per model.
    """
    from ..apps.hmm import _forward_models_nd
    with _tele.span("kernel.forward_multi_batch"):
        _faults.fire("kernel.forward_multi_batch")
        fa, fb, fpi = _wrap3(backend, a, b, pi)
        return np.asarray(
            _forward_models_nd(fa, fb, fpi, obs, semiring=semiring).data)


def backward_batch(backend: BatchBackend, a: np.ndarray, b: np.ndarray,
                   pi: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Backward-algorithm likelihoods over a batch of observation
    sequences (shared model), shape ``(B,)`` — the batched counterpart
    of :func:`repro.apps.hmm_extra.backward`, op-for-op:
    ``beta[p] = sum_q(A[p, q] * (B[q, o_t] * beta[q]))`` with the
    ``sum`` reduction over ``q`` in index order."""
    from ..apps.hmm_extra import _backward_nd
    with _tele.span("kernel.backward_batch"):
        _faults.fire("kernel.backward_batch")
        fa, fb, fpi = _wrap3(backend, a, b, pi)
        return np.asarray(_backward_nd(fa, fb, fpi, obs).data)


def pbd_pvalue_batch(backend: BatchBackend, pn: np.ndarray, qn: np.ndarray,
                     k: int) -> np.ndarray:
    """Poisson-binomial ``P(X >= k)`` over a batch of sites.

    Parameters
    ----------
    pn, qn:
        Success probabilities and their exact complements as backend
        value arrays, shape ``(S, N)`` — one row per site, ``N`` trials
        each (group sites by ``(N, k)``; see ``repro.apps.pbd``).
    k:
        Observed success count (shared by the batch).

    Mirrors :func:`repro.apps.pbd.pbd_pvalue` exactly; the per-``j``
    recurrence is vectorized over sites *and* PMF entries, which is
    value-preserving because ``add(x, 0)`` is exact in every backend.
    """
    from ..apps.pbd import _pbd_nd
    from ..nd import wrap
    with _tele.span("kernel.pbd_pvalue_batch"):
        _faults.fire("kernel.pbd_pvalue_batch")
        fpn = wrap(np.asarray(pn), bb=backend)
        fqn = wrap(np.asarray(qn), bb=backend)
        return np.asarray(_pbd_nd(fpn, fqn, k).data)
