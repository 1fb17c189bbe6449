"""Viterbi decoding: the forward recurrence in the max-product
semiring, plus back-pointer path recovery.

The *score* (best single path's probability) is literally
:func:`repro.apps.hmm.forward` with ``semiring="max-product"`` — the
same kernel, different algebra (that identity is pinned in
``tests/test_workloads.py``).  What this module adds is the part a
semiring cannot express: remembering *which* predecessor achieved each
max (``argmax`` back-pointers) and walking them backwards into the
decoded state path.

Decisions are plan-invariant: ``max``/``argmax`` compare the batch
mirrors' monotone code arrays, the scalar fallback compares through the
backends' representation-native ``gt`` — the same total order with the
same first-index tie-break — so a batch plan and ``ExecPlan.serial()``
recover identical paths in every format.  Across *formats* the paths
may genuinely differ (rounded scores can reorder candidates), which is
exactly what :mod:`repro.experiments.fig_viterbi_accuracy` measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

import numpy as np

from .. import nd
from .. import telemetry as _tele
from ..engine.plan import ExecPlan, resolve_plan


@dataclass(frozen=True)
class ViterbiPath:
    """One decoded sequence: the best path's probability (a backend
    value — score it with ``backend.to_bigfloat``) and its state
    indices, shape ``(T,)``."""

    score: Any
    path: np.ndarray

    def states(self) -> List[int]:
        return [int(s) for s in self.path]


def _viterbi_nd(a, b, pi, obs: np.ndarray):
    """Max-product forward with back-pointers for a batch of sequences
    sharing one model: ``a (H, H)``, ``b (H, M)``, ``pi (H,)``
    FArrays, ``obs (B, T)`` ints.  Returns ``(score (B,) FArray,
    path (B, T) intp ndarray)``.

    Identical op order to ``_forward_recurrence`` under MAX_PRODUCT —
    ``prod`` is the contraction's multiply, the max its recombination —
    so the returned score equals the semiring forward's bit-for-bit:
    the max is gathered at ``argmax`` (the max fold keeps its first
    maximal element), so each step compares the products once.
    """
    from ..apps.hmm import _emission_shared
    obs = np.asarray(obs)
    if obs.ndim != 2:
        raise ValueError("obs must have shape (batch, T)")
    n_batch, n_steps = obs.shape
    with _tele.span("workload.viterbi"):
        delta = pi * _emission_shared(b, obs, 0)
        back: List[np.ndarray] = []
        for t in range(1, n_steps):
            # prod[s, p, q] = delta[s, p] × A[p, q]; the max monoid
            # recombines over p (exact code order, first index on ties).
            prod = delta[:, :, None] * a
            best = prod.argmax(axis=1)
            back.append(best)
            delta = (nd.take_along_axis(prod, best[:, None], axis=1)[:, 0]
                     * _emission_shared(b, obs, t))
        path = np.empty((n_batch, n_steps), dtype=np.intp)
        path[:, -1] = delta.argmax(axis=1)
        score = nd.take_along_axis(delta, path[:, -1:], axis=1)[:, 0]
        rows = np.arange(n_batch)
        for t in range(n_steps - 2, -1, -1):
            path[:, t] = back[t][rows, path[:, t + 1]]
        return score, path


def viterbi(hmm, backend=None, observations=None,
            plan: Optional[ExecPlan] = None) -> ViterbiPath:
    """Decode one sequence: the most probable state path and its
    probability.  ``backend``/``plan`` default to the ambient
    :mod:`repro.nd` context; a B=1 view over :func:`viterbi_batch`."""
    return viterbi_batch(hmm, backend, None if observations is None
                         else [observations], plan)[0]


def viterbi_batch(hmm, backend=None, observations=None,
                  plan: Optional[ExecPlan] = None) -> List[ViterbiPath]:
    """Decode a batch of observation sequences sharing one model.

    ``observations`` is a ``(B, T)`` integer array (default: a batch
    of one, the HMM's own sequence).  Returns one :class:`ViterbiPath`
    per sequence, equal decision-for-decision to calling
    :func:`viterbi` per sequence under any plan — max and argmax are
    exact in every format.  The batch runs as one vectorized pass;
    formats without an array backend run through the scalar
    representation with the model conversion hoisted.
    """
    from ..apps.hmm import _obs_rows, model_arrays
    plan = resolve_plan(plan, where="viterbi_batch")
    if observations is None:
        observations = [hmm.observations]
    a, b, pi = model_arrays(hmm, backend, plan=plan)
    score, path = _viterbi_nd(a, b, pi, _obs_rows(observations))
    return [ViterbiPath(score.item(i), path[i])
            for i in range(path.shape[0])]


__all__ = ["ViterbiPath", "viterbi", "viterbi_batch"]
