"""Hidden Markov Model forward algorithm (Section V.A, Listings 1 and 3).

The recurrence is written *once*, as a :mod:`repro.nd` expression over
format-tagged arrays (:func:`_forward_nd` and friends): per step,
``alpha'[q] = sum_p(alpha[p] * A[p, q]) * B[q, o_t]`` with the format's
``sum`` fold over ``p`` in index order.  The :class:`FArray`
representation decides how it runs — through the format's batch mirror
(binary64 and log-space bit-identical; posit/LNS element-exact) or
through the scalar backend element by element (the BigFloat oracle,
the tracing wrapper, and every ``ExecPlan.serial()`` baseline).
Results are identical either way — that is the registry's
exactness contract; with the log-space backend the same expression *is*
Listing 3 (multiplications become float adds, the accumulation the
n-ary LSE of Equation 3).  Plain-numpy float paths for binary64 and
log-space (:func:`forward_float`, :func:`forward_log`) are kept as
reference points for the tests and throughput benchmarks, which
cross-check them against the generic implementation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import faults as _faults
from .. import nd
from .. import telemetry as _tele
from ..arith.backend import Backend
from ..bigfloat import BigFloat
from ..data.dirichlet import HMMData
from ..engine.plan import ExecPlan, resolve_plan
from ..formats.real import Real
from ..nd.context import _resolve_format
from ..workloads.semiring import resolve_semiring


def model_arrays(hmm: HMMData, backend: Optional[Backend] = None,
                 plan: Optional[ExecPlan] = None):
    """One HMM's parameters as :class:`~repro.nd.FArray`\\ s
    ``(transition (H, H), emission (H, M), initial (H,))``, converted
    exactly once.

    Conversion is input-side methodology (the paper rounds exact MPFR
    operands into each format), so it is hoisted out of the per-sequence
    recurrences: repeated-sequence sweeps must not redo
    ``from_bigfloat`` work per sequence.  The plan selects the
    representation (vectorized codes or scalar values); both hold the
    same rounded parameters, so downstream results do not depend on the
    choice.
    """
    backend = _resolve_format(backend)
    plan = resolve_plan(plan, where="model_arrays")
    a = nd.asarray(hmm.transition, backend, plan=plan)
    b = nd.asarray(hmm.emission, backend, plan=plan)
    pi = nd.asarray(hmm.initial, backend, plan=plan)
    return a, b, pi


# ----------------------------------------------------------------------
# The recurrences, written once as nd expressions
# ----------------------------------------------------------------------
def _emission_shared(b: "nd.FArray", obs: np.ndarray, t: int) -> "nd.FArray":
    """``B[q, o_t]`` per sequence for a shared model: ``(B, H)``."""
    return b[:, obs[:, t]].T


def _lanes(obs, lengths=None) -> tuple:
    """``(obs, lengths, live)``: ``obs`` as a ``(B, T)`` int array, each
    lane's length (default ``T``; lanes ordered longest first) and the
    retire schedule — per step ``t``, how many lanes still run."""
    obs = np.asarray(obs)
    if obs.ndim != 2:
        raise ValueError("obs must have shape (batch, T)")
    if lengths is None:
        lengths = np.full(obs.shape[0], obs.shape[1])
    live = np.count_nonzero(lengths[:, None] > np.arange(obs.shape[1]), axis=0)
    return obs, lengths, live.tolist()


def _rejoin(x, done: list):
    """``x`` over the rows set aside in ``done``, back in lane order."""
    return nd.concatenate([x] + done[::-1], axis=0) if done else x


def _forward_recurrence(a, pi, emission, live, semiring,
                        trace: bool = False) -> "nd.FArray":
    """The one HMM recurrence, over any semiring: per step,

        ``alpha'[q] = (⊕_p alpha[p] × A[p, q]) × B[q, o_t]``

    with the semiring's contraction over ``p`` in index order (the add
    monoid is ``nd.dot`` — mul + the format's ``sum`` fold; on posit the
    model, ``alpha`` and every intermediate stay in the decoded plane,
    so each model array decodes once per call; the max monoid is the
    exact code-order max).  ``alpha`` is ``(B, H)``; ``a`` is ``(H, H)``
    (shared model) or ``(B, H, H)`` (per-model).  Lanes retire on the
    schedule ``live`` (:func:`_lanes`): finished lanes' rows are set
    aside and the rest step on (``a[:n]`` too, per model), so each lane
    runs exactly its own sequence's ops; ``emission(t, n)`` yields the
    first ``n`` lanes' ``(n, H)``.  Returns the ``total_op`` reduction
    over states, ``(B,)`` — or, with ``trace`` (lanes of one length),
    every step's alpha as ``(B, T, H)`` (the forward matrix).

    Sum-product forward, Viterbi scoring, and the pair-HMM hybrid are
    this function under different semirings; the sum-product
    instantiation is op-for-op the pre-semiring kernel (pinned
    exhaustively in ``tests/test_workloads.py``).
    """
    alpha = semiring.times(pi, emission(0, live[0]))
    alphas, done = [alpha], []
    for t in range(1, len(live)):
        n = live[t]
        if n < live[t - 1]:
            done.append(alpha[n:])
            alpha, a = alpha[:n], (a[:n] if a.ndim == 3 else a)
        # path[s, q] = ⊕_p(alpha[s, p] × A[..., p, q])
        path = semiring.contract(alpha[:, :, None], a, axis=1)
        alpha = semiring.times(path, emission(t, n))
        if trace:
            alphas.append(alpha)
    if trace:
        return nd.stack(alphas, axis=1)
    return semiring.reduce(_rejoin(alpha, done), axis=1)


def _forward_nd(a, b, pi, obs, semiring=None, lengths=None) -> "nd.FArray":
    """Forward likelihoods for a batch of sequences sharing one model:
    ``a (H, H)``, ``b (H, M)``, ``pi (H,)`` FArrays, ``obs (B, T)``
    ints and ``lengths`` (:func:`_lanes`); returns ``(B,)``.  Listing 1,
    vectorized across sequences."""
    obs, _, live = _lanes(obs, lengths)
    with _tele.span("app.hmm.forward"):
        _faults.fire("app.hmm.forward")
        return _forward_recurrence(
            a, pi, lambda t, n: _emission_shared(b, obs[:n], t), live,
            resolve_semiring(semiring))


def _forward_trace_nd(a, b, pi, obs: np.ndarray,
                      semiring=None) -> "nd.FArray":
    """Every step's alpha, shape ``(B, T, H)``: the forward matrix, and
    (summed over states) the data behind Figure 1."""
    obs, _, live = _lanes(obs)
    with _tele.span("app.hmm.forward_trace"):
        _faults.fire("app.hmm.forward_trace")
        return _forward_recurrence(
            a, pi, lambda t, n: _emission_shared(b, obs, t), live,
            resolve_semiring(semiring), trace=True)


def _forward_models_nd(a, b, pi, obs: np.ndarray, semiring=None,
                       lengths=None) -> "nd.FArray":
    """Forward likelihoods for a batch of *models* (the ViCAR/MCMC
    shape): ``a (B, H, H)``, ``b (B, H, M)``, ``pi (B, H)``,
    ``obs (B, T)``, ``lengths`` (:func:`_lanes`); returns ``(B,)``."""
    obs, _, live = _lanes(obs, lengths)
    if a.ndim != 3 or b.ndim != 3 or pi.ndim != 2:
        raise ValueError("need per-model params: a (B,H,H), b (B,H,M), "
                         "pi (B,H)")

    rows = np.arange(obs.shape[0])

    def emission(t, n):
        # b[s, :, obs[s, t]] for the first n models, shape (n, H): one
        # C-level gather per plane, sized n·H.
        return b[rows[:n], :, obs[:n, t]]

    with _tele.span("app.hmm.forward_models"):
        _faults.fire("app.hmm.forward_models")
        return _forward_recurrence(a, pi, emission, live,
                                   resolve_semiring(semiring))


def _seq_rows(observations) -> list:
    """Observation sequences as integer tuples (lengths may differ)."""
    return [tuple(int(o) for o in seq) for seq in observations]


def _obs_rows(observations) -> np.ndarray:
    rows = _seq_rows(observations)
    if len({len(r) for r in rows}) > 1:
        raise ValueError("observation sequences must share one length "
                         "for a rectangular (batch, T) array")
    return np.asarray(rows, dtype=np.intp)


def _longest_first(seqs: list, run) -> list:
    """``run(obs, lengths)`` once over sequences of any lengths, lanes
    ordered longest first (``obs`` zero-padded to ``(B, T_max)``); its
    ``(B,)`` result as a list in input order (``[]`` for none)."""
    if not seqs:
        return []
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    obs = np.zeros((len(seqs), lengths.max()), dtype=np.intp)
    for row, i in enumerate(order):
        obs[row, :lengths[i]] = seqs[i]
    out = run(obs, lengths[order])
    return [out.item(int(row)) for row in np.argsort(order)]


# ----------------------------------------------------------------------
# Public entry points (B=1 views and explicit batches)
# ----------------------------------------------------------------------
def forward(hmm: HMMData, backend: Optional[Backend] = None,
            observations=None, plan: Optional[ExecPlan] = None,
            semiring=None):
    """Run the forward algorithm; return the likelihood P(O | lambda) as
    a backend value (use ``backend.to_bigfloat`` to score it).

    ``backend`` defaults to the ambient :func:`repro.nd.use_format`
    format; ``plan`` to the ambient :func:`repro.nd.use_plan` plan.  A
    B=1 view over :func:`forward_batch`; the result never depends on
    the plan, and ``plan=ExecPlan.serial()`` merely forces the scalar
    baseline.

    ``semiring`` (a :class:`~repro.workloads.semiring.Semiring` or
    registered name; default sum-product) swaps the recurrence algebra:
    ``"max-product"`` makes this the Viterbi *score* — the best single
    path's probability (see :func:`repro.workloads.viterbi` for path
    recovery).
    """
    return forward_batch(hmm, backend, None if observations is None
                         else [observations], plan, semiring)[0]


def forward_alpha_trace(hmm: HMMData, backend: Optional[Backend] = None,
                        plan: Optional[ExecPlan] = None) -> list:
    """Per-iteration alpha mass (backend values): the data behind
    Figure 1.  A B=1 view over :func:`_forward_trace_nd`, each step's
    alpha summed over states."""
    plan = resolve_plan(plan, where="forward_alpha_trace")
    a, b, pi = model_arrays(hmm, backend, plan=plan)
    trace = _forward_trace_nd(a, b, pi, _obs_rows([hmm.observations]))
    return trace[0].sum(axis=-1).tolist()


def alpha_scale_series(hmm: HMMData, prec: int = 96) -> List[int]:
    """Figure 1's y axis: the base-2 exponent of alpha's total mass per
    iteration, tracked in arbitrary-precision arithmetic so it stays
    exact far below binary64's range (the paper uses MPFR for this)."""
    from ..arith.backends import BigFloatBackend
    backend = BigFloatBackend(prec)
    trace = forward_alpha_trace(hmm, backend)
    return [v.scale for v in trace]


def forward_batch(hmm: HMMData, backend: Optional[Backend] = None,
                  observations=None,
                  plan: Optional[ExecPlan] = None,
                  semiring=None) -> list:
    """Forward algorithm over a batch of observation sequences.

    ``observations`` is a list of integer sequences of any lengths
    (default: a batch of one, the HMM's own sequence).  Returns a list
    of B likelihoods as backend values, equal element-for-element to
    the scalar recurrence per sequence under any plan.  The batch runs
    as one pass whose lanes retire at their own lengths, vectorized
    where the format has an array backend and through the scalar
    representation otherwise; the model converts once per call.
    """
    plan = resolve_plan(plan, where="forward_batch")
    if observations is None:
        observations = [hmm.observations]
    a, b, pi = model_arrays(hmm, backend, plan=plan)
    return _longest_first(
        _seq_rows(observations),
        lambda obs, lengths: _forward_nd(a, b, pi, obs, semiring, lengths))


def forward_models_batch(models, backend: Optional[Backend] = None,
                         plan: Optional[ExecPlan] = None, *,
                         semiring=None) -> list:
    """Forward likelihoods for many *models* (each with its own
    parameters and observation sequence) — the ViCAR/MCMC shape.

    Models are grouped by state count ``H``, and each group runs through
    :func:`_forward_models_nd` in one pass whatever its lengths and
    symbol counts (emission columns zero-padded, never read); the
    returned list matches the input order and equals calling
    :func:`forward` per model under any plan, bit for bit (what MH
    acceptance decisions need).
    """
    backend = _resolve_format(backend)
    plan = resolve_plan(plan, where="forward_models_batch")
    models = list(models)
    groups: dict = {}
    # Longest first: the lane order _longest_first keeps (stable sort).
    for i in sorted(range(len(models)), key=lambda i: -models[i].length):
        groups.setdefault(models[i].n_states, []).append(i)
    out: list = [None] * len(models)
    for group in groups.values():
        width = max(models[i].n_symbols for i in group)
        a, b, pi = (nd.asarray(rows, backend, plan=plan) for rows in (
            [models[i].transition for i in group],
            [[list(row) + [0] * (width - len(row))
              for row in models[i].emission] for i in group],
            [models[i].initial for i in group]))
        likes = _longest_first(
            [models[i].observations for i in group],
            lambda obs, lengths: _forward_models_nd(a, b, pi, obs, semiring,
                                                    lengths))
        for i, like in zip(group, likes):
            out[i] = like
    return out


# ----------------------------------------------------------------------
# Plain-numpy float paths (references for the tests and benchmarks)
# ----------------------------------------------------------------------
def forward_float(a: np.ndarray, b: np.ndarray, pi: np.ndarray,
                  obs: np.ndarray) -> float:
    """Vectorized binary64 forward algorithm (Listing 1 semantics).

    Note: underflows to 0.0 for long sequences — that is the point.
    """
    alpha = pi * b[:, obs[0]]
    for ot in obs[1:]:
        alpha = (alpha @ a) * b[:, ot]
    return float(alpha.sum())


def forward_log(a: np.ndarray, b: np.ndarray, pi: np.ndarray,
                obs: np.ndarray) -> float:
    """Vectorized log-space forward algorithm (Listing 3 semantics).

    Uses ``np.logaddexp.reduce`` — the same LSE dataflow as Equation (3).
    Returns the log likelihood.
    """
    with np.errstate(divide="ignore"):
        ln_a = np.log(a)
        ln_b = np.log(b)
        ln_pi = np.log(pi)
    alpha = ln_pi + ln_b[:, obs[0]]
    for ot in obs[1:]:
        # alpha'[q] = LSE_p(alpha[p] + ln_a[p, q]) + ln_b[q, ot]
        alpha = np.logaddexp.reduce(alpha[:, None] + ln_a, axis=0) + ln_b[:, ot]
    return float(np.logaddexp.reduce(alpha))


def forward_rescaled(a: np.ndarray, b: np.ndarray, pi: np.ndarray,
                     obs: np.ndarray) -> tuple:
    """The classic scaling alternative the paper's related work dismisses
    for wide ranges (kept as an extra baseline/ablation): renormalize
    alpha each step and accumulate the log of the scale factors.

    Returns ``(log2_scale, mantissa)`` with likelihood =
    ``mantissa * 2**log2_scale``.
    """
    alpha = pi * b[:, obs[0]]
    log2_scale = 0
    for ot in obs[1:]:
        alpha = (alpha @ a) * b[:, ot]
        total = alpha.sum()
        if total <= 0.0:
            return float("-inf"), 0.0
        exp = int(np.floor(np.log2(total)))
        alpha = alpha * 2.0 ** (-exp)
        log2_scale += exp
    total = float(alpha.sum())
    return log2_scale, total


# ----------------------------------------------------------------------
# Operand harvesting (Fig. 3's application-sourced operands)
# ----------------------------------------------------------------------
class _TracingBackend(Backend):
    """Wraps the oracle backend, recording exact operands of every op."""

    name = "trace"

    def __init__(self, inner: Backend):
        self.inner = inner
        self.records: list = []

    def from_bigfloat(self, x: BigFloat):
        return self.inner.from_bigfloat(x)

    def to_bigfloat(self, value) -> BigFloat:
        return self.inner.to_bigfloat(value)

    def _rec(self, op: str, a, b):
        self.records.append((op,
                             Real.from_bigfloat(self.inner.to_bigfloat(a)),
                             Real.from_bigfloat(self.inner.to_bigfloat(b))))

    def add(self, a, b):
        self._rec("add", a, b)
        return self.inner.add(a, b)

    def mul(self, a, b):
        self._rec("mul", a, b)
        return self.inner.mul(a, b)

    def zero(self):
        return self.inner.zero()

    def one(self):
        return self.inner.one()

    def is_zero(self, value) -> bool:
        return self.inner.is_zero(value)


def trace_operands(hmm: HMMData, prec: int = 256,
                   max_records: Optional[int] = None) -> list:
    """Collect (op, x, y) operand triples from a forward-algorithm run in
    oracle arithmetic — the 'operands collected from a real phylogenetics
    application' input source for the Figure 3 sweep.  (The tracing
    wrapper is unknown to the registry, so the nd expression runs it
    through the scalar representation — every recorded op is a real
    scalar oracle op.)"""
    from ..arith.backends import BigFloatBackend
    tracer = _TracingBackend(BigFloatBackend(prec))
    forward(hmm, tracer)
    records = tracer.records
    if max_records is not None and len(records) > max_records:
        step = len(records) // max_records
        records = records[::step][:max_records]
    return records
