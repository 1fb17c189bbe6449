"""Unit tests of the batch backend protocol (repro.engine.batch)."""

import math

import numpy as np
import pytest

from repro.arith import (
    BigFloatBackend,
    Binary64Backend,
    LNSBackend,
    LogSpaceBackend,
    PositBackend,
)
from repro.bigfloat import BigFloat
from repro.engine import (
    BatchBinary64,
    BatchLogSpace,
    BatchPosit,
    batch_backend_for,
    standard_batch_backends,
)
from repro.formats import PositEnv
from repro.formats.logspace import lse2, lse_n, lse_sequential


class TestFactory:
    def test_binary64(self):
        scalar = Binary64Backend()
        bb = batch_backend_for(scalar)
        assert isinstance(bb, BatchBinary64)
        assert bb.scalar is scalar

    def test_logspace_inherits_sum_mode(self):
        bb = batch_backend_for(LogSpaceBackend(sum_mode="sequential"))
        assert isinstance(bb, BatchLogSpace)
        assert bb.sum_mode == "sequential"

    def test_posit_shares_env(self):
        scalar = PositBackend(PositEnv(64, 12))
        bb = batch_backend_for(scalar)
        assert isinstance(bb, BatchPosit)
        assert bb.env is scalar.env

    def test_lns_shares_env(self):
        from repro.engine import BatchLNS
        scalar = LNSBackend()
        bb = batch_backend_for(scalar)
        assert isinstance(bb, BatchLNS)
        assert bb.env is scalar.env

    def test_unsupported_formats_return_none(self):
        assert batch_backend_for(BigFloatBackend()) is None

    def test_standard_batch_backends(self):
        batches = standard_batch_backends()
        assert set(batches) == {"binary64", "log", "posit(64,9)",
                                "posit(64,12)", "posit(64,18)"}
        for name, bb in batches.items():
            assert bb is not None and bb.name == name


class TestBatchBinary64:
    def test_identities(self):
        bb = BatchBinary64()
        assert bb.zeros(3).tolist() == [0.0, 0.0, 0.0]
        assert bb.ones(2).tolist() == [1.0, 1.0]
        assert bb.is_zero(np.array([0.0, 0.5])).tolist() == [True, False]

    def test_sum_matches_scalar_fold(self):
        bb = BatchBinary64()
        scalar = Binary64Backend()
        vals = np.array([[0.1, 0.2, 0.7], [1e-300, 1e300, 1.0]])
        got = bb.sum(vals, axis=1)
        for i in range(2):
            assert got[i] == scalar.sum(list(vals[i]))

    def test_from_bigfloats(self):
        bb = BatchBinary64()
        arr = bb.from_bigfloats([BigFloat.from_float(0.25),
                                 BigFloat.exp2(-2000)])
        assert arr[0] == 0.25
        assert arr[1] == 0.0  # underflow, the paper's failure mode


class TestBatchLogSpace:
    def test_add_is_lse2_bitwise(self):
        bb = BatchLogSpace()
        rng = np.random.default_rng(0)
        a = -np.exp(rng.uniform(-2, 9, 2000))
        b = a + rng.uniform(-750, 750, 2000)
        got = bb.add(a, b)
        want = np.array([lse2(x, y) for x, y in zip(a, b)])
        assert (got == want).all()

    def test_add_neg_inf_edges(self):
        bb = BatchLogSpace()
        a = np.array([-np.inf, -np.inf, 0.0])
        b = np.array([-np.inf, -3.0, -np.inf])
        assert bb.add(a, b).tolist() == [-np.inf, -3.0, 0.0]

    def test_mul_zero_absorbs(self):
        bb = BatchLogSpace()
        a = np.array([-np.inf, -1.0, -np.inf])
        b = np.array([-2.0, -np.inf, -np.inf])
        got = bb.mul(a, b)
        assert np.isneginf(got).all()

    def test_mul_is_float_add(self):
        bb = BatchLogSpace()
        assert bb.mul(np.array([-1.5]), np.array([-2.25]))[0] == -3.75

    def test_sequential_sum_bitwise(self):
        bb = BatchLogSpace(sum_mode="sequential")
        rng = np.random.default_rng(1)
        rows = rng.uniform(-2000, 0, size=(5, 17))
        got = bb.sum(rows, axis=1)
        for i in range(5):
            assert got[i] == lse_sequential(list(rows[i]))

    def test_nary_sum_close_to_lse_n(self):
        bb = BatchLogSpace(sum_mode="nary")
        rng = np.random.default_rng(2)
        rows = rng.uniform(-2000, 0, size=(5, 17))
        got = bb.sum(rows, axis=1)
        for i in range(5):
            want = lse_n(list(rows[i]))
            assert got[i] == pytest.approx(want, rel=1e-14)

    def test_sum_all_zero_probability(self):
        bb = BatchLogSpace()
        rows = np.full((2, 4), -np.inf)
        assert np.isneginf(bb.sum(rows, axis=1)).all()
        bb2 = BatchLogSpace(sum_mode="nary")
        assert np.isneginf(bb2.sum(rows, axis=1)).all()

    def test_bad_sum_mode_rejected(self):
        with pytest.raises(ValueError):
            BatchLogSpace(sum_mode="tree")

    def test_default_mirrors_scalar_default(self):
        assert BatchLogSpace().sum_mode == LogSpaceBackend().sum_mode

    def test_scalar_sum_mode_inherited_and_contradiction_rejected(self):
        scalar = LogSpaceBackend(sum_mode="sequential")
        assert BatchLogSpace(scalar=scalar).sum_mode == "sequential"
        assert BatchLogSpace(sum_mode="sequential",
                             scalar=scalar).sum_mode == "sequential"
        with pytest.raises(ValueError):
            BatchLogSpace(sum_mode="nary", scalar=scalar)

    def test_conversions_roundtrip(self):
        bb = BatchLogSpace()
        deep = BigFloat.exp2(-500_000)
        arr = bb.from_bigfloats([BigFloat.from_float(0.5), deep])
        assert arr[0] == math.log(0.5)
        back = bb.to_bigfloats(arr)
        # log-space re-encodes with one rounding; magnitudes must agree.
        assert back[1].scale == deep.scale


class TestScalarLogSpaceSumModes:
    def test_scalar_sequential_mode(self):
        seq = LogSpaceBackend(sum_mode="sequential")
        nary = LogSpaceBackend()
        vals = [-1000.0, -1000.5, -999.25, -2000.0]
        assert seq.sum(vals) == lse_sequential(vals)
        assert nary.sum(vals) == lse_n(vals)

    def test_scalar_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            LogSpaceBackend(sum_mode="pairwise")


class TestBatchBinary64SubDiv:
    def test_sub_bitwise(self):
        bb = BatchBinary64()
        scalar = Binary64Backend()
        rng = np.random.default_rng(11)
        a = rng.uniform(0.0, 1.0, 200)
        b = rng.uniform(0.0, 1.0, 200)
        got = bb.sub(a, b)
        for i in range(a.size):
            assert got[i] == scalar.sub(float(a[i]), float(b[i]))

    def test_div_bitwise_and_zero_raises(self):
        bb = BatchBinary64()
        scalar = Binary64Backend()
        rng = np.random.default_rng(12)
        a = rng.uniform(0.0, 1.0, 200)
        b = rng.uniform(1e-12, 1.0, 200)
        got = bb.div(a, b)
        for i in range(a.size):
            assert got[i] == scalar.div(float(a[i]), float(b[i]))
        with pytest.raises(ZeroDivisionError):
            bb.div(a, np.where(b > 0.5, 0.0, b))
        with pytest.raises(ZeroDivisionError):
            scalar.div(0.5, 0.0)

    def test_recip_is_div_by_one(self):
        bb = BatchBinary64()
        arr = np.array([0.5, 0.25, 2.0])
        assert (bb.recip(arr) == 1.0 / arr).all()


class TestBatchLogSpaceSubDiv:
    """Native log-diff-exp subtraction: bit-identical to the scalar
    backend (both route the interior through NumPy's exp/log1p), with
    the scalar's probability-domain errors vectorized."""

    def setup_method(self):
        self.bb = BatchLogSpace()
        self.scalar = LogSpaceBackend()

    def test_sub_bitwise_vs_scalar(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(-2000.0, 0.0, 500)
        b = a - rng.uniform(0.0, 60.0, 500)  # b <= a
        got = self.bb.sub(a, b)
        for i in range(a.size):
            assert got[i] == self.scalar.sub(float(a[i]), float(b[i])), i

    def test_sub_domain_edges(self):
        ninf = -math.inf
        a = np.array([-1.0, -5.0, ninf, -3.0])
        b = np.array([-1.0, ninf, ninf, -3.0 - 1e-9])
        got = self.bb.sub(a, b)
        # a == b -> exact zero; b == zero -> a; zero - zero -> zero.
        assert got[0] == ninf
        assert got[1] == -5.0
        assert got[2] == ninf
        assert got[3] == self.scalar.sub(-3.0, -3.0 - 1e-9)
        # Deep magnitudes far below binary64's value range.
        deep_a, deep_b = -70000.0, -70000.5
        assert self.bb.sub(np.array([deep_a]), np.array([deep_b]))[0] == \
            self.scalar.sub(deep_a, deep_b)

    def test_sub_negative_result_raises(self):
        with pytest.raises(ValueError):
            self.bb.sub(np.array([-2.0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            self.bb.sub(np.array([-math.inf]), np.array([-1.0]))
        with pytest.raises(ValueError):
            self.scalar.sub(-2.0, -1.0)

    def test_div_is_float_sub_with_zero_guard(self):
        a = np.array([-1.0, -math.inf, -3.5])
        b = np.array([-2.0, -2.0, -0.5])
        got = self.bb.div(a, b)
        for i in range(a.size):
            assert got[i] == self.scalar.div(float(a[i]), float(b[i]))
        with pytest.raises(ZeroDivisionError):
            self.bb.div(a, np.array([-2.0, -math.inf, -0.5]))
        with pytest.raises(ZeroDivisionError):
            self.scalar.div(-1.0, -math.inf)


class TestBatchProtocolDefaults:
    def test_sub_div_default_raise_for_exotic_mirrors(self):
        from repro.engine.batch import BatchBackend

        class NoOps(BatchBinary64):
            sub = BatchBackend.sub
            div = BatchBackend.div

        bb = NoOps()
        with pytest.raises(NotImplementedError):
            bb.sub(np.zeros(2), np.zeros(2))
        with pytest.raises(NotImplementedError):
            bb.div(np.zeros(2), np.ones(2))

    def test_axpy_default_is_add_mul(self):
        bb = BatchLogSpace()
        rng = np.random.default_rng(14)
        a, x, y = (rng.uniform(-50.0, 0.0, 64) for _ in range(3))
        assert (bb.axpy(a, x, y) == bb.add(bb.mul(a, x), y)).all()

    def test_every_standard_mirror_has_native_sub_div(self):
        """The registry capability flag is backed by real kernels: no
        standard batch backend inherits the raising defaults."""
        from repro.arith.registry import FULL_BATCH_OPS, REGISTRY
        from repro.engine.batch import BatchBackend
        for name, bb in standard_batch_backends().items():
            caps = REGISTRY.capabilities(name)
            assert caps.batch_ops == FULL_BATCH_OPS, name
            assert type(bb).sub is not BatchBackend.sub, name
            assert type(bb).div is not BatchBackend.div, name
        lns = batch_backend_for(LNSBackend())
        assert type(lns).sub is not BatchBackend.sub
        assert type(lns).div is not BatchBackend.div
