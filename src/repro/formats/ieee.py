"""Parameterizable IEEE 754 binary softfloat (Figure 2a's fixed-field
format), used both as the binary64 reference semantics and to let the
analysis vary exponent/fraction splits beyond the standard widths.

An :class:`IEEEEnv` fixes the exponent width ``w`` and total significand
precision ``p`` (including the implicit bit); ``IEEEEnv(11, 53)`` is
binary64, ``IEEEEnv(8, 24)`` is binary32.  Values are raw bit patterns.
Arithmetic is exact-compute + single RNE rounding with full subnormal and
infinity semantics, and is cross-checked bit-for-bit against the host's
native doubles in the tests.
"""

from __future__ import annotations

import math

from ..bigfloat import BigFloat
from ..bigfloat.rounding import shift_right_round
from .real import Real

#: Special decode results (NaN payloads are collapsed: statistics codes
#: never branch on payloads).
ZERO = "zero"
INF = "inf"
NAN = "nan"


class IEEEEnv:
    """All operations for one IEEE binary interchange format."""

    def __init__(self, exp_bits: int, precision: int):
        if exp_bits < 2 or precision < 2:
            raise ValueError("need exp_bits >= 2 and precision >= 2")
        self.exp_bits = exp_bits
        self.precision = precision  # includes the implicit bit
        self.frac_bits = precision - 1
        self.nbits = 1 + exp_bits + self.frac_bits
        self.bias = (1 << (exp_bits - 1)) - 1
        self.emax = self.bias  # max unbiased exponent of a normal
        self.emin = 1 - self.bias  # min unbiased exponent of a normal
        self.mask = (1 << self.nbits) - 1
        self.sign_bit = 1 << (self.nbits - 1)
        self.exp_mask = ((1 << exp_bits) - 1) << self.frac_bits
        self.frac_mask = (1 << self.frac_bits) - 1
        self.pos_inf = self.exp_mask
        self.neg_inf = self.sign_bit | self.exp_mask
        self.quiet_nan = self.exp_mask | (1 << (self.frac_bits - 1))

    @property
    def name(self) -> str:
        if (self.exp_bits, self.precision) == (11, 53):
            return "binary64"
        if (self.exp_bits, self.precision) == (8, 24):
            return "binary32"
        return f"ieee({self.exp_bits},{self.precision})"

    # ------------------------------------------------------------------
    # Range facts (Table I's binary64 row and Section II's examples)
    # ------------------------------------------------------------------
    def smallest_positive_scale(self) -> int:
        """Base-2 exponent of the smallest positive (subnormal) value;
        -1074 for binary64, as quoted throughout the paper."""
        return self.emin - self.frac_bits

    def smallest_normal_scale(self) -> int:
        """-1022 for binary64 (the left edge of Figure 3's 'normal' bins)."""
        return self.emin

    def largest_finite(self) -> Real:
        mant = (1 << self.precision) - 1
        return Real(0, mant, self.emax - self.frac_bits)

    # ------------------------------------------------------------------
    # Decode / encode
    # ------------------------------------------------------------------
    def decode(self, bits: int):
        bits &= self.mask
        sign = 1 if bits & self.sign_bit else 0
        exp_field = (bits & self.exp_mask) >> self.frac_bits
        frac = bits & self.frac_mask
        if exp_field == (1 << self.exp_bits) - 1:
            return NAN if frac else INF if sign == 0 else (INF, 1)
        if exp_field == 0:
            if frac == 0:
                return ZERO
            # Subnormal: no implicit bit, fixed exponent emin.
            return Real(sign, frac, self.emin - self.frac_bits)
        mant = (1 << self.frac_bits) | frac
        return Real(sign, mant, exp_field - self.bias - self.frac_bits)

    def encode_real(self, value: Real) -> int:
        """Round an exact real into the format (RNE, subnormals, overflow
        to infinity — IEEE default semantics)."""
        if value.is_zero():
            return 0
        sign_bits = self.sign_bit if value.sign else 0
        scale = value.scale
        if scale < self.emin:
            # Subnormal range: align to fixed exponent emin - frac_bits.
            target_exp = self.emin - self.frac_bits
            shift = target_exp - value.exponent
            if shift <= 0:
                mant = value.mantissa << (-shift)
            else:
                mant = shift_right_round(value.mantissa, shift)
            if mant == 0:
                return sign_bits  # underflow to signed zero
            if mant.bit_length() > self.frac_bits:
                # Rounded up into the smallest normal.
                return sign_bits | (1 << self.frac_bits)
            return sign_bits | mant
        # Normal range: round to `precision` significand bits.
        excess = value.mantissa.bit_length() - self.precision
        if excess > 0:
            mant = shift_right_round(value.mantissa, excess)
            if mant.bit_length() > self.precision:
                mant >>= 1
                scale += 1
        else:
            mant = value.mantissa << (-excess)
        if scale > self.emax:
            return sign_bits | self.pos_inf
        exp_field = scale + self.bias
        frac = mant & self.frac_mask
        return sign_bits | (exp_field << self.frac_bits) | frac

    def to_bigfloat(self, bits: int) -> BigFloat:
        d = self.decode(bits)
        if d is ZERO:
            return BigFloat.zero()
        if isinstance(d, Real):
            return d.to_bigfloat()
        raise ValueError(f"{d} has no finite real value")

    def encode_bigfloat(self, x: BigFloat) -> int:
        return self.encode_real(Real.from_bigfloat(x))

    def from_float(self, x: float) -> int:
        if math.isnan(x):
            return self.quiet_nan
        if math.isinf(x):
            return self.neg_inf if x < 0 else self.pos_inf
        if x == 0.0:
            return self.sign_bit if math.copysign(1.0, x) < 0 else 0
        return self.encode_real(Real.from_float(x))

    def to_float(self, bits: int) -> float:
        d = self.decode(bits)
        if d is ZERO:
            return -0.0 if (bits & self.sign_bit) else 0.0
        if d is NAN:
            return math.nan
        if d is INF:
            return math.inf
        if isinstance(d, tuple) and d[0] is INF:
            return -math.inf
        return d.to_float()

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        da, db = self.decode(a), self.decode(b)
        special = self._special_add(a, da, b, db)
        if special is not None:
            return special
        result = da.add(db)
        if result.is_zero():
            return 0  # (+0) under RNE for exact cancellation
        return self.encode_real(result)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        da, db = self.decode(a), self.decode(b)
        sign_a = 1 if a & self.sign_bit else 0
        sign_b = 1 if b & self.sign_bit else 0
        if da is NAN or db is NAN:
            return self.quiet_nan
        a_inf = self._is_inf(da)
        b_inf = self._is_inf(db)
        if a_inf or b_inf:
            if da is ZERO or db is ZERO:
                return self.quiet_nan  # inf * 0
            sign = sign_a ^ sign_b
            return (self.sign_bit if sign else 0) | self.pos_inf
        if da is ZERO or db is ZERO:
            return self.sign_bit if sign_a ^ sign_b else 0
        return self.encode_real(da.mul(db))

    def neg(self, a: int) -> int:
        return (a ^ self.sign_bit) & self.mask

    def _is_inf(self, decoded) -> bool:
        return decoded is INF or (isinstance(decoded, tuple) and decoded[0] is INF)

    def _special_add(self, a, da, b, db):
        if da is NAN or db is NAN:
            return self.quiet_nan
        a_inf, b_inf = self._is_inf(da), self._is_inf(db)
        if a_inf and b_inf:
            if (a ^ b) & self.sign_bit:
                return self.quiet_nan  # inf - inf
            return a & self.mask
        if a_inf:
            return a & self.mask
        if b_inf:
            return b & self.mask
        if da is ZERO and db is ZERO:
            # +0 unless both -0.
            both_neg = (a & self.sign_bit) and (b & self.sign_bit)
            return self.sign_bit if both_neg else 0
        if da is ZERO:
            return b & self.mask
        if db is ZERO:
            return a & self.mask
        return None

    def __repr__(self):
        return f"IEEEEnv(exp_bits={self.exp_bits}, precision={self.precision})"


BINARY64 = IEEEEnv(11, 53)
BINARY32 = IEEEEnv(8, 24)
