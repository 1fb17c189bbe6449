"""Unit tests for the BigFloat core (add/sub/mul/div/cmp/conversions)."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bigfloat import BigFloat, RTZ


def bf(x):
    return BigFloat.coerce(x)


class TestConstruction:
    def test_zero_is_canonical(self):
        z = BigFloat(0, 0, 12345)
        assert z.is_zero()
        assert z.exponent == 0 and z.sign == 0

    def test_negative_zero_collapses(self):
        z = BigFloat(1, 0, 3)
        assert z.sign == 0

    def test_trailing_zeros_stripped(self):
        x = BigFloat(0, 0b1000, 0)
        assert x.mantissa == 1 and x.exponent == 3

    def test_from_int(self):
        assert bf(10).mantissa == 5  # canonicalized: 10 = 5 * 2
        assert bf(10).exponent == 1
        assert bf(-7) == BigFloat(1, 7, 0)

    def test_from_float_exact(self):
        x = BigFloat.from_float(0.1)
        # 0.1 is not exactly 1/10 in binary64; conversion must be exact
        # w.r.t. the double, not the decimal.
        assert x.to_float() == 0.1

    def test_from_float_rejects_nan_inf(self):
        with pytest.raises(ValueError):
            BigFloat.from_float(float("nan"))
        with pytest.raises(ValueError):
            BigFloat.from_float(float("inf"))

    def test_from_ratio(self):
        x = BigFloat.from_ratio(1, 3, prec=64)
        assert abs(x.to_float() - 1 / 3) < 1e-18

    def test_exp2_extreme(self):
        x = BigFloat.exp2(-2_900_000)
        assert x.scale == -2_900_000

    def test_coerce_rejects_bool_and_str(self):
        with pytest.raises(TypeError):
            BigFloat.coerce(True)
        with pytest.raises(TypeError):
            BigFloat.coerce("1.5")

    def test_immutable(self):
        x = bf(1)
        with pytest.raises(AttributeError):
            x.mantissa = 2


class TestScale:
    def test_scale_of_one(self):
        assert bf(1).scale == 0

    def test_scale_of_half(self):
        assert BigFloat.from_float(0.5).scale == -1

    def test_scale_of_three(self):
        assert bf(3).scale == 1

    def test_scale_of_zero_raises(self):
        with pytest.raises(ValueError):
            BigFloat.zero().scale


class TestArithmetic:
    def test_add_exact_small(self):
        assert (bf(3) + bf(5)) == bf(8)

    def test_add_opposite_cancels(self):
        assert (bf(3) + bf(-3)).is_zero()

    def test_sub(self):
        assert (bf(10) - bf(4)) == bf(6)

    def test_mul(self):
        assert (bf(6) * bf(7)) == bf(42)

    def test_mul_signs(self):
        assert (bf(-2) * bf(3)) == bf(-6)
        assert (bf(-2) * bf(-3)) == bf(6)

    def test_div_exact(self):
        assert bf(12).div(bf(4)) == bf(3)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            bf(1).div(BigFloat.zero())

    def test_mul_pow2(self):
        assert bf(3).mul_pow2(10) == bf(3072)

    def test_add_far_apart_magnitudes_sticky(self):
        # 1 + 2**-600 must round to 1 at 256 bits, but compare > 1 exactly
        # is impossible post-rounding; instead check directed rounding.
        big = bf(1)
        tiny = BigFloat.exp2(-600)
        res = big.add(tiny, prec=256)
        assert res == bf(1)

    def test_add_far_apart_directed_rounding_sees_tiny(self):
        big = bf(1)
        tiny = BigFloat.exp2(-600)
        exact_sum = big.add(tiny, prec=700)  # wide enough to be exact
        assert exact_sum > bf(1)

    def test_sub_far_apart_magnitudes(self):
        # 1 - 2**-600 rounds to 1 at 53 bits (RNE), and the shortcut path
        # must not corrupt short mantissas (regression test).
        res = bf(1).sub(BigFloat.exp2(-600), prec=53)
        assert res == bf(1)

    def test_add_far_apart_short_mantissa_same_sign(self):
        res = bf(1).add(BigFloat.exp2(-600), prec=53)
        assert res == bf(1)

    def test_sqrt(self):
        assert bf(4).sqrt() == bf(2)
        x = bf(2).sqrt(prec=80)
        assert abs(x.to_float() - math.sqrt(2)) < 1e-16

    def test_sqrt_negative_raises(self):
        with pytest.raises(ValueError):
            bf(-1).sqrt()

    def test_sqrt_zero(self):
        assert BigFloat.zero().sqrt().is_zero()


class TestRounding:
    def test_round_to_3_bits(self):
        x = bf(0b1111)  # 15 -> 16 at 3 bits RNE
        assert x.round(3) == bf(16)

    def test_round_ties_to_even(self):
        assert bf(0b1010).round(3) == bf(10)  # exact at 3 bits: 101 * 2
        assert bf(0b1011).round(3) == bf(0b1100)  # tie .5 -> even (12)
        assert bf(0b1101).round(3) == bf(0b1100)  # tie -> even keeps 110

    def test_round_toward_zero(self):
        assert bf(0b1111).round(3, mode=RTZ) == bf(0b1110)

    def test_round_zero(self):
        assert BigFloat.zero().round(1).is_zero()


class TestToFloat:
    def test_roundtrip_simple(self):
        for v in (0.0, 1.0, -1.5, 0.1, 1e300, 5e-324, 2.2250738585072014e-308):
            assert BigFloat.from_float(v).to_float() == v

    def test_overflow_to_inf(self):
        assert BigFloat.exp2(1100).to_float() == math.inf
        assert BigFloat.exp2(1100).neg().to_float() == -math.inf

    def test_underflow_to_zero(self):
        assert BigFloat.exp2(-1200).to_float() == 0.0

    def test_subnormal_rounding(self):
        # 1.5 * 2**-1074 rounds to 2 * 2**-1074 (tie to even).
        x = BigFloat(0, 3, -1075)
        assert x.to_float() == math.ldexp(2, -1074)

    def test_smallest_subnormal(self):
        assert BigFloat.exp2(-1074).to_float() == 5e-324

    def test_just_below_smallest_subnormal(self):
        # 2**-1075 is a tie between 0 and 2**-1074; RNE picks 0 (even).
        assert BigFloat.exp2(-1075).to_float() == 0.0


class TestComparison:
    def test_ordering(self):
        assert bf(1) < bf(2)
        assert bf(-1) < bf(1)
        assert bf(-2) < bf(-1)
        assert BigFloat.zero() < bf(1)
        assert bf(-1) < BigFloat.zero()

    def test_equality_across_representations(self):
        assert BigFloat(0, 4, 0) == BigFloat(0, 1, 2)

    def test_same_scale_differs(self):
        assert BigFloat(0, 5, 0) > BigFloat(0, 9, -1)  # 5 vs 4.5

    def test_hash_consistency(self):
        assert hash(BigFloat(0, 4, 0)) == hash(BigFloat(0, 1, 2))


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64),
       st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_add_matches_native_double(a, b):
    """At precision 53 with double-range inputs, BigFloat addition must
    agree with the hardware (both are RNE binary64 semantics), whenever
    the result stays in range."""
    res = math.fsum([a, b]) if False else a + b
    if math.isinf(res):
        return
    got = BigFloat.from_float(a).add(BigFloat.from_float(b), prec=53).to_float()
    assert got == res or (got == 0.0 and res == 0.0)


def _assert_matches_native(op: str, a: float, b: float, res: float):
    """BigFloat ``op`` agrees with the hardware result ``res``: at 53
    bits when ``res`` is normal, and always at 108 = 2*53 + 2 bits
    followed by ``to_float()``.  Below the normal range a 53-bit result
    rounds twice (to 53 bits, then to the subnormal grid) where the
    hardware rounds once; through at least 2p+2 bits that double
    rounding is harmless for multiplication and division."""
    x, y = BigFloat.from_float(a), BigFloat.from_float(b)
    if abs(res) >= sys.float_info.min:
        assert getattr(x, op)(y, prec=53).to_float() == res
    assert getattr(x, op)(y, prec=108).to_float() == res


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64),
       st.floats(allow_nan=False, allow_infinity=False, width=64))
@example(2.8231225801878517e-167, 2.5401948717184995e-142)
def test_mul_matches_native_double(a, b):
    res = a * b
    if math.isinf(res):
        return
    _assert_matches_native("mul", a, b, res)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64,
                 min_value=1e-300, max_value=1e300),
       st.floats(allow_nan=False, allow_infinity=False, width=64,
                 min_value=1e-300, max_value=1e300))
@example(6.564094358378234e-299, 19526536457.623497)
def test_div_matches_native_double(a, b):
    res = a / b
    if math.isinf(res) or res == 0.0:
        return
    _assert_matches_native("div", a, b, res)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-10**9, max_value=10**9),
       st.integers(min_value=-10**9, max_value=10**9))
def test_int_add_exact(a, b):
    assert BigFloat.from_int(a).add(BigFloat.from_int(b), prec=128) == BigFloat.from_int(a + b)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=-10**6, max_value=10**6))
def test_int_mul_exact(a, b):
    assert BigFloat.from_int(a).mul(BigFloat.from_int(b), prec=128) == BigFloat.from_int(a * b)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e15, max_value=1e15, allow_nan=False))
def test_neg_involution(a):
    x = BigFloat.from_float(a)
    assert x.neg().neg() == x


@settings(max_examples=100, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_from_float_roundtrip(a):
    assert BigFloat.from_float(a).to_float() == a
