"""The fused posit path: decoded planes resident through nd expressions.

Posit arrays in :mod:`repro.nd` stay in the decoded plane between
operations (each operand decodes once; codes are built only when a
value escapes).  The contract is *exactness against the scalar
reference*:

* the resident ``*``/``+``/chained/``multiply_add`` FArray ops equal
  :class:`PositEnv` on every posit(8, es) operand pair, in both
  underflow modes;
* the whole recurrences (shared-model forward and trace, multi-model
  forward, PBD) under the default plan equal the same expressions run
  through the scalar backend under :meth:`ExecPlan.serial`, at 8 and 64
  bits, zero-heavy operands and the k=1 PBD edge included;
* residency itself is pinned by the engine's telemetry spans: the
  decode count does not grow with the number of recurrence steps.

Every comparison is on **encoded outputs**: the planes of zero/NaR lanes
are unspecified, and only the packed codes are the contract.
"""

import functools

import numpy as np
import pytest

from repro import nd, telemetry
from repro.apps.baum_welch import baum_welch
from repro.apps.hmm import (_forward_models_nd, _forward_nd,
                            _forward_trace_nd, forward_models_batch)
from repro.apps.lofreq import column_pvalues
from repro.apps.pbd import _pbd_nd, pbd_pvalue
from repro.arith import standard_backends
from repro.bigfloat import BigFloat
from repro.data.dirichlet import sample_hmm
from repro.data.genome import stratified_columns
from repro.engine import ExecPlan
from repro.engine.posit_batch import BatchPosit
from repro.experiments import fig9_pvalue_accuracy as fig9
from repro.formats.posit import FLUSH, SATURATE, PositEnv
from repro.workloads import viterbi_batch


def _all_pairs(env):
    """Every (a, b) operand pair of an 8-bit environment, as packed
    uint64 arrays of length 65536."""
    codes = np.arange(1 << env.nbits, dtype=np.uint64)
    a = np.repeat(codes, codes.size)
    b = np.tile(codes, codes.size)
    return a, b


@functools.lru_cache(maxsize=None)
def _scalar_pairs(es, underflow):
    """PositEnv's ``mul``, ``mul``-then-``add b`` and ``mul``-then-
    ``add a`` over every posit(8, es) pair, plus plain ``add``."""
    env = PositEnv(8, es, underflow)
    a, b = _all_pairs(env)
    prod = [env.mul(int(x), int(y)) for x, y in zip(a, b)]

    def arr(vals):
        return np.fromiter(vals, dtype=np.uint64, count=a.size)

    return {
        "mul": arr(prod),
        "add": arr(env.add(int(x), int(y)) for x, y in zip(a, b)),
        "chain": arr(env.add(p, int(y)) for p, y in zip(prod, b)),
        "madd": arr(env.add(p, int(x)) for p, x in zip(prod, a)),
    }


def _hmm_arrays(bp, h, m, b_sz, t_len, seed=0):
    """A normalized shared model + observation batch, packed."""
    rng = np.random.default_rng(seed)

    def rows(shape):
        vals = rng.uniform(0.05, 1.0, size=shape)
        return bp.from_floats(vals / vals.sum(axis=-1, keepdims=True))

    return (rows((h, h)), rows((h, m)), rows((h,)),
            rng.integers(0, m, size=(b_sz, t_len)))


def _batched(bp, expr, *arrays, **kw):
    """``expr`` over the packed arrays wrapped on the batch mirror (the
    default plan's representation), as packed codes."""
    out = expr(*(nd.wrap(x, bb=bp) for x in arrays), **kw)
    assert out.batch
    return np.asarray(out.data)


def _serial(bp, expr, *arrays, **kw):
    """``expr`` over scalar-backend copies of packed arrays (the
    ``ExecPlan.serial()`` representation), as packed codes."""
    serial = ExecPlan.serial()
    fas = [nd.asarray(nd.wrap(x, bb=bp), bp.scalar, plan=serial)
           for x in arrays]
    out = expr(*fas, **kw)
    assert not out.batch
    return np.array(out.tolist(), dtype=np.uint64).reshape(out.shape)


@pytest.mark.parametrize("es", [0, 1, 2])
@pytest.mark.parametrize("underflow", [SATURATE, FLUSH])
class TestLeanOpsExhaustive:
    """The resident FArray ops — planes in, planes out, codes only at
    the end — equal ``PositEnv`` on *every* posit(8, es) operand pair,
    in both underflow modes."""

    def _operands(self, es, underflow):
        env = PositEnv(8, es, underflow)
        bp = BatchPosit(env)
        a, b = _all_pairs(env)
        return (nd.wrap(a, bb=bp), nd.wrap(b, bb=bp),
                _scalar_pairs(es, underflow))

    def test_mul_exhaustive(self, es, underflow):
        x, y, want = self._operands(es, underflow)
        assert np.array_equal((x * y).data, want["mul"])

    def test_add_exhaustive(self, es, underflow):
        x, y, want = self._operands(es, underflow)
        assert np.array_equal((x + y).data, want["add"])

    def test_mul_then_add_chain_exhaustive(self, es, underflow):
        x, y, want = self._operands(es, underflow)
        prod = x * y
        assert prod._codes is None  # the product stays in the plane
        assert np.array_equal((prod + y).data, want["chain"])

    def test_multiply_add_exhaustive(self, es, underflow):
        x, y, want = self._operands(es, underflow)
        assert np.array_equal(nd.multiply_add(x, y, x).data, want["madd"])


class TestFusedKernelsBitIdentical:
    """The whole recurrences under the default plan equal the same
    expressions through the scalar backend — the workload widths
    (64, 12), the exhaustive-prone 8-bit environments, zero-heavy
    operands, and the k=1 PBD edge."""

    ENVS = [PositEnv(8, 1), PositEnv(8, 2, FLUSH), PositEnv(64, 12)]

    @pytest.mark.parametrize("env", ENVS, ids=str)
    def test_forward_and_trace(self, env):
        bp = BatchPosit(env)
        a, b, pi, obs = _hmm_arrays(bp, h=5, m=6, b_sz=9, t_len=11)
        assert np.array_equal(
            _batched(bp, _forward_nd, a, b, pi, obs=obs),
            _serial(bp, _forward_nd, a, b, pi, obs=obs))
        assert np.array_equal(
            _batched(bp, _forward_trace_nd, a, b, pi, obs=obs),
            _serial(bp, _forward_trace_nd, a, b, pi, obs=obs))

    @pytest.mark.parametrize("env", ENVS, ids=str)
    @pytest.mark.parametrize("k", [1, 3])
    def test_pbd(self, env, k):
        bp = BatchPosit(env)
        rng = np.random.default_rng(3)
        pf = rng.uniform(0.01, 0.4, size=(7, 12))
        pn, qn = bp.from_floats(pf), bp.from_floats(1.0 - pf)
        assert np.array_equal(_batched(bp, _pbd_nd, pn, qn, k=k),
                              _serial(bp, _pbd_nd, pn, qn, k=k))

    def test_zero_heavy_model(self):
        """Zero lanes exercise the passthrough merges whose plane
        garbage must never escape into the packed outputs."""
        env = PositEnv(8, 1)
        bp = BatchPosit(env)
        rng = np.random.default_rng(4)
        h, m = 4, 5
        av = rng.uniform(0.0, 1.0, size=(h, h))
        av[av < 0.4] = 0.0
        bv = rng.uniform(0.0, 1.0, size=(h, m))
        bv[bv < 0.4] = 0.0
        a, b = bp.from_floats(av), bp.from_floats(bv)
        pi = bp.from_floats(rng.uniform(0.1, 1.0, size=(h,)))
        obs = rng.integers(0, m, size=(6, 8))
        assert np.array_equal(_batched(bp, _forward_nd, a, b, pi, obs=obs),
                              _serial(bp, _forward_nd, a, b, pi, obs=obs))
        pf = rng.uniform(0.0, 0.5, size=(5, 9))
        pf[pf < 0.2] = 0.0
        pn, qn = bp.from_floats(pf), bp.from_floats(1.0 - pf)
        assert np.array_equal(_batched(bp, _pbd_nd, pn, qn, k=2),
                              _serial(bp, _pbd_nd, pn, qn, k=2))

    @pytest.mark.parametrize("env", [PositEnv(8, 1), PositEnv(64, 12)],
                             ids=str)
    def test_zero_heavy_multi_model(self, env):
        """The per-model forward (the service's ``forward`` kind and
        ViCAR/MCMC) with zero-heavy parameters."""
        bp = BatchPosit(env)
        rng = np.random.default_rng(6)
        n, h, m = 5, 4, 3
        av = rng.uniform(0.0, 1.0, size=(n, h, h))
        av[av < 0.4] = 0.0
        bv = rng.uniform(0.0, 1.0, size=(n, h, m))
        bv[bv < 0.4] = 0.0
        a, b = bp.from_floats(av), bp.from_floats(bv)
        pi = bp.from_floats(rng.uniform(0.0, 1.0, size=(n, h)))
        obs = rng.integers(0, m, size=(n, 7))
        assert np.array_equal(
            _batched(bp, _forward_models_nd, a, b, pi, obs=obs),
            _serial(bp, _forward_models_nd, a, b, pi, obs=obs))

    def test_fused_shape_validation(self):
        bp = BatchPosit(PositEnv(8, 1))
        one = nd.wrap(bp.ones((3, 3)), bb=bp)
        pi = nd.wrap(bp.ones((3,)), bb=bp)
        with pytest.raises(ValueError, match="obs"):
            _forward_nd(one, one, pi, np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="per-model"):
            _forward_models_nd(one, one, pi, np.zeros((2, 4), dtype=int))
        with pytest.raises(ValueError, match="k must be"):
            _pbd_nd(one, one, 0)


class TestPlanRouting:
    """The format's mirror decides which arrays run on resident
    planes."""

    def test_routes_to_kernels_for_posit(self):
        x = nd.asarray([[0.5, 0.25], [0.125, 0.3]], "posit(64,12)",
                       plan=ExecPlan())
        prod = x * x
        assert prod.batch and prod._codes is None
        mul = x.backend.mul
        assert prod.tolist() == [[mul(v, v) for v in row]
                                 for row in x.tolist()]

    def test_none_for_mixed_or_scalar_operands(self):
        """Non-resident mirrors and the scalar representation never
        carry planes."""
        fb = nd.asarray([0.5, 0.25], "binary64")
        assert (fb * fb)._planes is None and (fb * fb).batch
        scalar = nd.asarray([0.5, 0.25], "posit(64,12)",
                            plan=ExecPlan.serial())
        assert (scalar * scalar)._planes is None
        assert not (scalar * scalar).batch


class TestResidency:
    """Each posit operand decodes once per call, however many steps the
    recurrence runs — counted with the engine's own ``posit.decode`` /
    ``posit.encode`` spans (deterministic; no wall clock)."""

    @staticmethod
    def _span_counts(fn):
        with telemetry.collect() as col:
            fn()
        return {name: agg[0] for name, agg in col.spans.items()}

    def test_forward_models_decodes_once_per_model_array(self):
        backend = standard_backends()["posit(64,12)"]
        h = 8
        counts = {}
        for t_len in (8, 24):
            models = [sample_hmm(h, h, t_len, seed=s) for s in range(2)]
            counts[t_len] = self._span_counts(lambda: forward_models_batch(
                models, backend))
        # A, B and pi decode once each; alpha never leaves the plane.
        assert counts[8]["posit.decode"] == 3
        assert counts[24]["posit.decode"] == 3
        # Per step: one rounding pass over the (B, H, H) products, H - 1
        # fold adds (the fold starts at the first slice), one emission
        # product.
        assert (counts[24]["posit.encode"] - counts[8]["posit.encode"]
                == (24 - 8) * (h + 1))
        # The service's forward batch shape (2 models, H = M = 8,
        # T = 24) pins the roundings per batch: the first emission
        # product, 23 steps of H + 1, and the H - 1 adds of the final
        # fold over states.
        assert counts[24]["posit.encode"] == 1 + 23 * (h + 1) + (h - 1) == 215

    def test_pbd_decodes_independent_of_trials(self):
        backend = standard_backends()["posit(64,12)"]

        def decodes(n_trials):
            probs = [BigFloat.from_float(0.01 * (i + 1))
                     for i in range(n_trials)]
            return self._span_counts(
                lambda: pbd_pvalue(probs, 2, backend))["posit.decode"]

        assert decodes(6) == decodes(12)

    def test_pbd_rounding_passes_per_trial(self):
        """A trial is one rounding pass for ``pr * q`` and two for the
        fused ``shifted * p + ...``; the p-value rides along as the
        PMF's absorbing entry, so it adds no pass of its own."""
        backend = standard_backends()["posit(64,12)"]
        probs = [BigFloat.from_float(0.01 * (i + 1)) for i in range(20)]
        counts = self._span_counts(lambda: pbd_pvalue(probs, 5, backend))
        assert counts["posit.encode"] == 20 * 3 == 60

    def test_lofreq_columns_are_one_ragged_pbd_call(self):
        """fig9's test-scale columns at seed 0 — 8 columns in 7
        ``(depth, k)`` groups, the deepest of 66 trials — run as one
        ragged PBD call: three rounding passes per trial of the
        deepest column, whatever the other columns' depths."""
        columns = stratified_columns(per_bin=fig9.SCALES["test"], seed=0)
        assert len(columns) == 8
        assert len({(c.depth, c.k) for c in columns}) == 7
        assert max(c.depth for c in columns) == 66
        backend = standard_backends(underflow="flush")["posit(64,12)"]
        counts = self._span_counts(
            lambda: column_pvalues(columns, backend))
        assert counts["app.pbd"] == 1
        assert counts["posit.encode"] == 3 * 66 == 198

    @staticmethod
    def _calls(monkeypatch, name):
        """Count calls of ``BatchPosit.<name>``."""
        calls = []
        inner = getattr(BatchPosit, name)

        def spy(self, *args, **kw):
            calls.append(name)
            return inner(self, *args, **kw)

        monkeypatch.setattr(BatchPosit, name, spy)
        return calls

    def test_is_zero_reads_the_zero_plane(self, monkeypatch):
        """A resident array answers ``is_zero`` off its planes, with no
        assembly: a fresh mask, NaR (0/0 flags both) not zero.  So
        Baum-Welch's two zero checks per iteration build no codes — 20
        assemblies train posit(64,12) where they made it 30."""
        fmt = "posit(64,12)"
        x = nd.asarray([0.0, 0.5, 0.0], fmt) / nd.asarray([0.0, 0.25, 1.0],
                                                          fmt)
        mask = x.is_zero()
        assert x._codes is None
        assert mask.tolist() == [False, False, True]
        mask[:] = True
        assert x.is_zero().tolist() == [False, False, True]
        assert (x.data == 0).tolist() == [False, False, True]
        assembled = self._calls(monkeypatch, "encode_once")
        baum_welch(sample_hmm(4, 4, 20, seed=2),
                   standard_backends()[fmt])
        assert len(assembled) == 20

    def test_viterbi_compares_each_step_once(self, monkeypatch):
        """Each step's maxima are gathered at its back-pointers, so a
        T = 12 decode builds the posit order keys 12 times (an argmax
        per step and one for the last state), not twice that."""
        keys = self._calls(monkeypatch, "_order_planes")
        viterbi_batch(sample_hmm(3, 4, 12, seed=1),
                      standard_backends()["posit(64,12)"])
        assert len(keys) == 12
