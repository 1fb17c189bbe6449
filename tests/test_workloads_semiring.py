"""The max-is-exact certification behind the max-product semiring.

The semiring's whole claim is that ``max`` over encoded values never
rounds: posit and LNS codes are *monotone* in the represented value,
so comparing codes (two's-complement for posit, int64 with the zero
sentinel smallest for LNS) IS comparing values.  These tests certify
that exhaustively at 8 bits — every operand pair of posit(8,1) and of
lns(4,3) — against scalar decode-and-compare ground truth, and pin
the batch/scalar/argmax agreement (same total order, same
first-index-wins tie-break) the Viterbi decision-identity tests build
on.
"""

import numpy as np
import pytest

from repro import nd
from repro.arith.backends import LNSBackend, PositBackend
from repro.bigfloat import BigFloat
from repro.engine.lns_batch import ZERO_CODE, BatchLNS
from repro.engine.plan import ExecPlan
from repro.engine.posit_batch import BatchPosit
from repro.formats.lns import LNS_ZERO, LNSEnv
from repro.formats.posit import PositEnv
from repro.workloads.semiring import (
    MAX_PRODUCT,
    PAIRHMM_MAX,
    SEMIRINGS,
    SUM_PRODUCT,
    resolve_semiring,
)


def _posit_pairs(env):
    """Every (a, b) operand pair of an 8-bit posit environment."""
    codes = np.arange(1 << env.nbits, dtype=np.uint64)
    return np.repeat(codes, codes.size), np.tile(codes, codes.size)


def _lns_codes(env):
    """Every valid lns code, zero sentinel included."""
    return np.concatenate([
        np.array([ZERO_CODE], dtype=np.int64),
        np.arange(env.min_code, env.max_code + 1, dtype=np.int64)])


class TestPositMaxExhaustive:
    """posit(8,1): batch ``maximum`` equals decode-and-compare on all
    65536 operand pairs — the order certification."""

    ENV = PositEnv(8, 1)

    def _decoded(self, backend, code):
        # NaR has no value; the standard total-orders it below every
        # real, which the ground truth mirrors with -inf.
        if int(code) == self.ENV.nar:
            return BigFloat.from_int(0), True
        return backend.to_bigfloat(int(code)), False

    def test_batch_maximum_matches_decoded_order(self):
        backend = PositBackend(self.ENV)
        bp = BatchPosit(self.ENV)
        a, b = _posit_pairs(self.ENV)
        got = bp.maximum(a, b)
        for i in range(0, a.size, 97):
            av, a_nar = self._decoded(backend, a[i])
            bv, b_nar = self._decoded(backend, b[i])
            if b_nar or a_nar:
                want = b[i] if a_nar and not b_nar else a[i]
            else:
                # First operand wins ties (a == b is the only tie:
                # posit codes are unique per value).
                want = b[i] if bv.cmp(av) > 0 else a[i]
            assert int(got[i]) == int(want), (int(a[i]), int(b[i]))

    def test_batch_maximum_matches_scalar_everywhere(self):
        backend = PositBackend(self.ENV)
        bp = BatchPosit(self.ENV)
        a, b = _posit_pairs(self.ENV)
        got = bp.maximum(a, b)
        want = np.array([backend.maximum(int(x), int(y))
                         for x, y in zip(a.tolist(), b.tolist())],
                        dtype=np.uint64)
        assert np.array_equal(got, want)

    def test_batch_argmax_matches_scalar_decode(self):
        backend = PositBackend(self.ENV)
        bp = BatchPosit(self.ENV)
        rng = np.random.default_rng(5)
        arr = rng.integers(0, 1 << self.ENV.nbits,
                           size=(64, 7)).astype(np.uint64)
        got = bp.argmax(arr, axis=1)
        for r in range(arr.shape[0]):
            best = 0
            for j in range(1, arr.shape[1]):
                if backend.gt(int(arr[r, j]), int(arr[r, best])):
                    best = j
            assert int(got[r]) == best


class TestLNSMaxExhaustive:
    """lns(4,3): batch ``maximum`` equals decode-and-compare on every
    operand pair, the zero sentinel included."""

    ENV = LNSEnv(4, 3)

    def test_batch_maximum_matches_decoded_order(self):
        backend = LNSBackend(self.ENV)
        bl = BatchLNS(self.ENV)
        codes = _lns_codes(self.ENV)
        a = np.repeat(codes, codes.size)
        b = np.tile(codes, codes.size)
        got = bl.maximum(a, b)
        for i in range(a.size):
            av = BigFloat.from_int(0) if a[i] == ZERO_CODE \
                else self.ENV.decode_bigfloat(int(a[i]))
            bv = BigFloat.from_int(0) if b[i] == ZERO_CODE \
                else self.ENV.decode_bigfloat(int(b[i]))
            want = b[i] if bv.cmp(av) > 0 else a[i]
            assert int(got[i]) == int(want), (int(a[i]), int(b[i]))

    def test_batch_maximum_matches_scalar_everywhere(self):
        backend = LNSBackend(self.ENV)
        bl = BatchLNS(self.ENV)
        codes = _lns_codes(self.ENV)
        a = np.repeat(codes, codes.size)
        b = np.tile(codes, codes.size)
        got = bl.maximum(a, b)

        def scalar_value(code):
            return LNS_ZERO if code == ZERO_CODE else int(code)

        def batch_code(value):
            return ZERO_CODE if value == LNS_ZERO else int(value)

        for i in range(a.size):
            want = backend.maximum(scalar_value(a[i]), scalar_value(b[i]))
            assert int(got[i]) == batch_code(want), (int(a[i]), int(b[i]))


class TestNdMaxAcrossFormats:
    """The nd-plane entry points: batch and serial plans agree with
    float ground truth in every format, first index winning ties."""

    FORMATS = ("binary64", "log", "posit(64,9)", "lns(12,50)")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_max_and_argmax_match_float_ground_truth(self, fmt):
        rng = np.random.default_rng(11)
        vals = rng.uniform(0.1, 1.0, size=(5, 6))
        for plan in (ExecPlan(), ExecPlan.serial()):
            x = nd.asarray(vals, fmt, plan=plan)
            idx = x.argmax(axis=1)
            top = x.max(axis=1).to_floats()
            decoded = x.to_floats()
            for r in range(vals.shape[0]):
                want = int(np.argmax(decoded[r]))
                assert int(idx[r]) == want, (fmt, plan.batch)
                assert top[r] == decoded[r, want]

    def test_tie_break_first_index_wins(self):
        x = nd.asarray(np.array([[0.5, 0.25, 0.5, 0.5]]), "binary64")
        assert int(x.argmax(axis=1)[0]) == 0
        y = nd.maximum(x[:, 0], x[:, 2])
        assert y.to_floats()[0] == 0.5


class TestSemiringAlgebra:
    """The Semiring objects themselves: registry, resolution, and the
    contraction identities the kernels rely on."""

    def test_registry_contents(self):
        assert set(SEMIRINGS) == {"sum-product", "max-product",
                                  "log-sum-exp", "pairhmm-max"}
        assert resolve_semiring(None) is SUM_PRODUCT
        assert resolve_semiring("max-product") is MAX_PRODUCT
        assert resolve_semiring(PAIRHMM_MAX) is PAIRHMM_MAX
        with pytest.raises(ValueError, match="unknown semiring"):
            resolve_semiring("tropical")

    def test_invalid_ops_rejected(self):
        from repro.workloads.semiring import Semiring
        with pytest.raises(ValueError):
            Semiring("bad", "min", "add", "nope")

    @pytest.mark.parametrize("fmt", ("binary64", "log"))
    def test_contract_identities(self, fmt):
        rng = np.random.default_rng(3)
        x = nd.asarray(rng.uniform(0.1, 1.0, size=(2, 4)), fmt)
        y = nd.asarray(rng.uniform(0.1, 1.0, size=(2, 4)), fmt)
        sum_c = SUM_PRODUCT.contract(x, y, axis=1)
        assert np.array_equal(np.asarray(sum_c._data),
                              np.asarray(nd.dot(x, y, axis=1)._data))
        max_c = MAX_PRODUCT.contract(x, y, axis=1)
        assert np.array_equal(np.asarray(max_c._data),
                              np.asarray((x * y).max(axis=1)._data))
        # The hybrid: max inside (plus), sum outside (reduce).
        assert PAIRHMM_MAX.plus_op == "max"
        assert PAIRHMM_MAX.total_op == "add"
        hybrid = PAIRHMM_MAX.reduce(PAIRHMM_MAX.plus(x, y), axis=1)
        direct = nd.maximum(x, y).sum(axis=1)
        assert np.array_equal(np.asarray(hybrid._data),
                              np.asarray(direct._data))
