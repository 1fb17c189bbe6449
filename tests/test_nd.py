"""repro.nd core semantics: construction, representation dispatch,
operators, reductions, ambient contexts, and equality with
the app layer (the canonical-vs-serial oracle extended through the new
front end).
"""

import numpy as np
import pytest

import repro.nd as nd
from repro.arith import (
    REGISTRY,
    BigFloatBackend,
    LogSpaceBackend,
    PositBackend,
)
from repro.bigfloat import BigFloat, relative_error
from repro.engine import ExecPlan
from repro.formats import PositEnv

FORMATS = ["binary64", "log", "posit(64,9)", "posit(64,12)", "lns(12,50)",
           "bigfloat256"]
VALUES = [0.5, 0.25, 0.125, 1.0, 0.75, 2.0 ** -40]


class TestConstruction:
    def test_asarray_shapes_and_tags(self):
        x = nd.asarray([[0.5, 0.25], [0.125, 1.0]], "binary64")
        assert x.shape == (2, 2) and x.ndim == 2 and x.size == 4
        assert x.format == "binary64" and x.batch
        assert len(x) == 2

    def test_asarray_from_bigfloats_and_numpy(self):
        bfs = [BigFloat.exp2(-5), BigFloat.exp2(-6)]
        x = nd.asarray(bfs, "posit(64,9)")
        assert x.to_bigfloats() == bfs
        y = nd.asarray(np.array([0.5, 0.25]), "binary64")
        assert list(y.to_floats()) == [0.5, 0.25]

    def test_asarray_passthrough_and_reformat(self):
        x = nd.asarray(VALUES, "binary64")
        assert nd.asarray(x, "binary64") is x
        z = nd.asarray(x, "posit(64,9)")
        assert z.format == "posit(64,9)"
        assert z.to_bigfloats() == x.to_bigfloats()

    def test_zeros_ones_full(self):
        for fmt in FORMATS:
            z = nd.zeros((2, 3), fmt)
            assert z.shape == (2, 3) and z.is_zero().all()
            o = nd.ones((4,), fmt)
            assert not o.is_zero().any()
            assert [b.to_float() for b in o.to_bigfloats()] == [1.0] * 4

    def test_like_constructors_follow_representation(self):
        serial = nd.asarray(VALUES, "binary64", plan=ExecPlan.serial())
        assert not serial.batch
        assert not nd.ones_like(serial, (2,)).batch
        batched = nd.asarray(VALUES, "binary64")
        assert nd.zeros_like(batched, (2,)).batch

    def test_wrap_round_trip(self):
        backend = REGISTRY.create("posit(64,12)")
        bb = REGISTRY.batch_for(backend)
        codes = bb.from_bigfloats([BigFloat.exp2(-3)])
        x = nd.wrap(codes, bb=bb)
        assert x.batch and x.item(0) == int(codes[0])

    def test_missing_format_is_an_error(self):
        with pytest.raises(TypeError, match="use_format"):
            nd.asarray([0.5])

    def test_nan_and_inf_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                nd.asarray([bad], "binary64")
            with pytest.raises(ValueError):
                nd.asarray(np.array([0.5, bad]), "binary64")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_float_ndarray_fast_path_matches_exact_path(self, fmt):
        """``_convert``'s vectorized ``from_floats`` route (taken for
        float-dtype ndarrays) must encode bit-identically to the
        per-element BigFloat route (taken for lists)."""
        vals = [0.0, 0.5, 2.0 ** -40, 1.0 + 2.0 ** -52, 3.0,
                1e300, 1e-300, 0.1]
        fast = nd.asarray(np.array(vals), fmt)
        exact = nd.asarray(vals, fmt)
        assert [fast.item(i) for i in range(fast.size)] == \
               [exact.item(i) for i in range(exact.size)]


class TestRepresentationDispatch:
    """FArray op -> registry capability lookup -> batch kernel
    (canonical) or scalar fallback."""

    def test_batch_by_default_where_paired(self):
        for fmt in ["binary64", "log", "posit(64,9)", "lns(12,50)"]:
            assert nd.asarray(VALUES, fmt).batch, fmt

    def test_oracle_never_batches(self):
        assert not nd.asarray(VALUES, "bigfloat256").batch

    def test_serial_plan_forces_scalar(self):
        x = nd.asarray(VALUES, "binary64", plan=ExecPlan.serial())
        assert not x.batch

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_representations_hold_identical_values(self, fmt):
        canonical = nd.asarray(VALUES, fmt)
        serial = nd.asarray(VALUES, fmt, plan=ExecPlan.serial())
        assert canonical.tolist() == serial.tolist()


class TestOperators:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_add_mul_match_scalar_backend(self, fmt):
        backend = REGISTRY.create(fmt)
        x = nd.asarray(VALUES, backend)
        y = nd.asarray(list(reversed(VALUES)), backend)
        got_add = (x + y).tolist()
        got_mul = (x * y).tolist()
        sx, sy = x.tolist(), y.tolist()
        assert got_add == [backend.add(a, b) for a, b in zip(sx, sy)]
        assert got_mul == [backend.mul(a, b) for a, b in zip(sx, sy)]

    @pytest.mark.parametrize("fmt", ["binary64", "log", "posit(64,9)",
                                     "lns(12,50)", "bigfloat256"])
    def test_div_matches_scalar_backend(self, fmt):
        backend = REGISTRY.create(fmt)
        x = nd.asarray([0.5, 0.25], backend)
        y = nd.asarray([0.25, 0.5], backend)
        got = (x / y).tolist()
        assert got == [backend.div(a, b)
                       for a, b in zip(x.tolist(), y.tolist())]

    def test_sub_matches_scalar_backend(self):
        for fmt in FORMATS:
            backend = REGISTRY.create(fmt)
            x = nd.asarray([0.5, 0.5], backend)
            y = nd.asarray([0.25, 0.125], backend)
            assert (x - y).tolist() == \
                [backend.sub(a, b) for a, b in zip(x.tolist(), y.tolist())]

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("op", ["sub", "div"])
    def test_sub_div_native_batch_no_scalar_loop(self, fmt, op, monkeypatch):
        """Registry formats dispatch - and / to the native batch
        kernels: the result stays on the vectorized representation and
        no per-element decode (``BatchBackend.from_items``) ever runs,
        and it is element-exact vs the serial (object-mode) expression.
        """
        backend = REGISTRY.create(fmt)
        x = nd.asarray(VALUES, backend)
        y = nd.asarray([v / 2 for v in VALUES], backend)
        from repro.engine.batch import BatchBackend

        def boom(self, values, shape=None):  # pragma: no cover
            raise AssertionError("scalar from_items fallback ran")

        monkeypatch.setattr(BatchBackend, "from_items", boom)
        got = x - y if op == "sub" else x / y
        if fmt != "bigfloat256":
            assert x.batch and got.batch
        serial = ExecPlan.serial()
        xs = nd.asarray(VALUES, backend, plan=serial)
        ys = nd.asarray([v / 2 for v in VALUES], backend, plan=serial)
        want = xs - ys if op == "sub" else xs / ys
        assert not want.batch
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_multiply_add_matches_expression(self, fmt):
        backend = REGISTRY.create(fmt)
        x = nd.asarray(VALUES, backend)
        y = nd.asarray(list(reversed(VALUES)), backend)
        z = nd.asarray([v / 4 for v in VALUES], backend)
        fused = nd.multiply_add(x, y, z)
        spelled = x * y + z
        assert fused.tolist() == spelled.tolist()
        assert fused.batch == x.batch

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_dot_dispatch_matches_mul_sum(self, fmt):
        backend = REGISTRY.create(fmt)
        x = nd.asarray([VALUES, list(reversed(VALUES))], backend)
        y = nd.asarray([v / 2 for v in VALUES], backend)
        got = nd.dot(x, y, axis=-1)
        want = (x * y).sum(axis=-1)
        assert got.tolist() == want.tolist()

    def test_batch_sub_domain_errors_match_scalar(self):
        x = nd.asarray([0.25], "log")
        y = nd.asarray([0.5], "log")
        with pytest.raises(ValueError):
            x - y
        with pytest.raises(ZeroDivisionError):
            x / nd.zeros((1,), "log")

    def test_reflected_ops_with_scalars(self):
        x = nd.asarray([0.5, 0.25], "binary64")
        assert list((1 - x).to_floats()) == [0.5, 0.75]
        assert list((2 * x).to_floats()) == [1.0, 0.5]
        assert list((x / 2).to_floats()) == [0.25, 0.125]
        assert list((BigFloat.exp2(-1) + x).to_floats()) == [1.0, 0.75]

    def test_numpy_array_operand(self):
        x = nd.asarray([0.5, 0.25], "binary64")
        left = np.asarray([2.0, 4.0]) * x
        right = x * np.asarray([2.0, 4.0])
        assert isinstance(left, nd.FArray) and isinstance(right, nd.FArray)
        assert list(left.to_floats()) == [1.0, 1.0]
        assert list(right.to_floats()) == [1.0, 1.0]

    def test_format_mismatch_raises(self):
        x = nd.asarray([0.5], "binary64")
        y = nd.asarray([0.5], "posit(64,9)")
        with pytest.raises(TypeError, match="format mismatch"):
            x + y

    def test_log_sum_modes_do_not_mix_silently(self):
        """Name equality is not numerics equality: sequential- and
        n-ary-mode log arrays must not combine (their reduction folds
        differ), and asarray must honor the requested mode."""
        seq = nd.asarray(VALUES, LogSpaceBackend(sum_mode="sequential"))
        nary = nd.asarray(VALUES, "log")
        with pytest.raises(TypeError, match="format mismatch"):
            seq + nary
        requested = nd.asarray(seq, "log")
        assert requested.backend.sum_mode == "nary"
        assert requested.tolist() == seq.tolist()  # values unchanged

    def test_posit_underflow_modes_do_not_mix_silently(self):
        """Same boundary for posit: underflow mode changes rounding
        without changing the format name."""
        flush = nd.asarray([0.5], "posit(64,9)", underflow="flush")
        saturate = nd.asarray([0.5], "posit(64,9)")
        with pytest.raises(TypeError, match="format mismatch"):
            flush + saturate
        requested = nd.asarray(flush, "posit(64,9)")
        assert requested.backend.env.underflow == "saturate"

    def test_string_formats_share_one_default_backend(self):
        """Name-built backends are memoized so the registry's mirror
        cache (BatchLNS's exact sb memo) survives across calls."""
        x = nd.asarray([0.5], "lns(12,50)")
        y = nd.asarray([0.25], "lns(12,50)")
        assert x.backend is y.backend
        assert x._bb is y._bb

    def test_mixed_representation_aligns_to_left(self):
        x = nd.asarray(VALUES, "posit(64,9)")
        y = nd.asarray(VALUES, "posit(64,9)", plan=ExecPlan.serial())
        out = x * y
        assert out.batch
        assert out.tolist() == (y * y).tolist()


class TestStructure:
    def test_indexing_slicing(self):
        x = nd.asarray([[0.5, 0.25], [0.125, 1.0]], "binary64")
        assert x[0, 1].item() == 0.25
        assert list(x[:, 0].to_floats()) == [0.5, 0.125]
        assert x[0].shape == (2,)
        assert x[:, None].shape == (2, 1, 2)
        assert list(x[:, [1, 0]][0].to_floats()) == [0.25, 0.5]

    def test_transpose_reshape_ravel(self):
        x = nd.asarray([[0.5, 0.25], [0.125, 1.0]], "posit(64,9)")
        assert x.T.shape == (2, 2) and x.T[1, 0].item() == x[0, 1].item()
        assert x.reshape(4).shape == (4,)
        assert x.ravel().tolist() == x.reshape(4).tolist()

    def test_concatenate_stack_broadcast(self):
        a = nd.asarray([0.5], "log")
        b = nd.asarray([0.25], "log")
        assert nd.concatenate([a, b]).shape == (2,)
        assert nd.stack([a, b], axis=0).shape == (2, 1)
        wide = nd.broadcast_to(a, (3, 1))
        assert wide.shape == (3, 1)
        assert all(v == a.item(0) for row in wide.tolist() for v in row)

    def test_take_along_axis(self):
        x = nd.asarray([[0.5, 0.25, 0.125]], "binary64")
        idx = np.array([[2, 0]])
        out = nd.take_along_axis(x, idx, axis=1)
        assert list(out.to_floats()[0]) == [0.125, 0.5]


class TestReductions:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_sum_matches_scalar_fold(self, fmt):
        backend = REGISTRY.create(fmt)
        x = nd.asarray([VALUES, list(reversed(VALUES))], backend)
        got = nd.sum(x, axis=1).tolist()
        rows = x.tolist()
        assert got == [backend.sum(row) for row in rows]

    def test_sum_default_reduces_everything(self):
        x = nd.asarray([[0.5, 0.25], [0.125, 0.125]], "binary64")
        assert nd.sum(x).item() == 1.0
        assert nd.sum(x).shape == ()

    def test_dot_and_matmul(self):
        m = np.array([[0.5, 0.25], [0.125, 0.0625]])
        v = np.array([0.5, 0.25])
        fm = nd.asarray(m, "binary64")
        fv = nd.asarray(v, "binary64")
        np.testing.assert_array_equal((fm @ fm).to_floats(), m @ m)
        np.testing.assert_array_equal((fm @ fv).to_floats(), m @ v)
        np.testing.assert_array_equal((fv @ fm).to_floats(), v @ m)
        assert (fv @ fv).item() == float(v @ v)
        assert nd.dot(fv, fv).item() == float(v @ v)

    def test_canonical_equals_serial_reductions(self):
        """The certification statement, through the front end: same
        expression, both representations, identical results."""
        for fmt in ["binary64", "posit(64,9)", "lns(12,50)"]:
            x = nd.asarray(VALUES, fmt)
            s = nd.asarray(VALUES, fmt, plan=ExecPlan.serial())
            assert nd.sum(x).item() == nd.sum(s).item(), fmt
        seq = LogSpaceBackend(sum_mode="sequential")
        assert nd.sum(nd.asarray(VALUES, seq)).item() == \
            nd.sum(nd.asarray(VALUES, seq, plan=ExecPlan.serial())).item()


class TestAmbientContexts:
    def test_use_format_scopes(self):
        assert nd.current_backend() is None
        with nd.use_format("posit(64,9)") as backend:
            assert nd.current_backend() is backend
            x = nd.asarray([0.5])
            assert x.format == "posit(64,9)"
            with nd.use_format("binary64"):
                assert nd.asarray([0.5]).format == "binary64"
            assert nd.current_backend() is backend
        assert nd.current_backend() is None

    def test_use_format_accepts_backend_and_kwargs(self):
        with nd.use_format(PositBackend(PositEnv(32, 2))):
            assert nd.asarray([0.5]).format == "posit(32,2)"
        with nd.use_format("log", sum_mode="sequential") as backend:
            assert backend.sum_mode == "sequential"

    def test_use_plan_drives_representation(self):
        with nd.use_plan(ExecPlan.serial()):
            assert not nd.asarray([0.5], "binary64").batch
        assert nd.asarray([0.5], "binary64").batch

    def test_ten_line_workload(self):
        """The README example: a new experiment is ~10 lines of array
        math, and the answer matches the scalar reference exactly."""
        with nd.use_format("posit(32,2)"):
            p = nd.asarray([0.5, 0.25, 0.125])
            q = 1 - p
            joint = nd.sum(p * q)
        backend = REGISTRY.create("posit(32,2)")
        acc = backend.zero()
        for v in [0.5, 0.25, 0.125]:
            pv = backend.from_float(v)
            qv = backend.from_float(1 - v)
            acc = backend.add(acc, backend.mul(pv, qv))
        assert joint.item() == acc


class TestAppEquivalence:
    """The nd front end reproduces the app layer (which itself runs on
    nd) and, transitively, the pre-redesign outputs the equality suite
    pins."""

    def _hmm(self):
        from repro.data.dirichlet import sample_hmm
        return sample_hmm(3, 4, 12, seed=7)

    @pytest.mark.parametrize("make_backend", [
        lambda: REGISTRY.create("binary64"),
        lambda: LogSpaceBackend(sum_mode="sequential"),
        lambda: LogSpaceBackend(),
        lambda: REGISTRY.create("posit(64,12)"),
        lambda: BigFloatBackend(128),
    ])
    def test_forward_expression_matches_app(self, make_backend):
        from repro.apps.hmm import forward, model_arrays
        backend = make_backend()
        hmm = self._hmm()
        a, b, pi = model_arrays(hmm, backend)
        obs = list(hmm.observations)
        alpha = pi * b[:, obs[0]]
        for ot in obs[1:]:
            alpha = nd.sum(alpha[:, None] * a, axis=0) * b[:, ot]
        assert nd.sum(alpha).item() == forward(hmm, backend)

    def test_pbd_expression_matches_app(self):
        from repro.apps.pbd import complement, pbd_pvalue
        rng = np.random.default_rng(5)
        probs = [BigFloat.from_float(float(p))
                 for p in rng.uniform(1e-6, 0.4, 12)]
        k = 3
        backend = REGISTRY.create("posit(64,9)")
        pn = nd.asarray(probs, backend)
        qn = nd.asarray([complement(p) for p in probs], backend)
        pr = nd.concatenate([nd.ones_like(pn, (1,)),
                             nd.zeros_like(pn, (k - 1,))])
        pvalue = nd.zeros_like(pn, ())
        for n in range(len(probs)):
            if n >= k - 1:
                pvalue = pvalue + pr[k - 1] * pn[n]
            shifted = nd.concatenate([nd.zeros_like(pn, (1,)), pr[:-1]])
            pr = pr * qn[n] + shifted * pn[n]
        assert pvalue.item() == pbd_pvalue(probs, k, backend)

    def test_forward_batch_accepts_ragged_sequences(self):
        """Ragged batches run in one pass, each lane retiring at its
        own length, equal to per-sequence calls in every format; the
        backward likelihoods equal the forward ones to rounding."""
        from repro.apps.hmm import forward, forward_batch
        from repro.apps.hmm_extra import backward_batch
        hmm = self._hmm()
        ragged = [tuple(hmm.observations[:8]), tuple(hmm.observations)]
        for backend in (LogSpaceBackend(sum_mode="sequential"),
                        BigFloatBackend(128)):
            got = forward_batch(hmm, backend, ragged)
            expect = [forward(hmm, backend, observations=seq)
                      for seq in ragged]
            assert got == expect
            back = backward_batch(hmm, backend, ragged)
            assert back == [backward_batch(hmm, backend, [seq])[0]
                            for seq in ragged]
            for fwd, bwd in zip(got, back):
                assert relative_error(backend.to_bigfloat(fwd),
                                      backend.to_bigfloat(bwd)
                                      ).to_float() < 1e-12

    def test_forward_ambient_backend(self):
        from repro.apps.hmm import forward
        hmm = self._hmm()
        backend = LogSpaceBackend(sum_mode="sequential")
        with nd.use_format(backend):
            assert forward(hmm) == forward(hmm, backend)

    def test_model_arrays_shims_removed(self):
        """The PR 4 one-release DeprecationWarning shims are gone: the
        names now fail hard instead of warning."""
        from repro.apps import hmm as hmm_module
        with pytest.raises(AttributeError):
            hmm_module.model_values
        with pytest.raises(AttributeError):
            hmm_module.batch_model_arrays
        with pytest.raises(ImportError):
            from repro.apps.hmm import model_values  # noqa: F401
