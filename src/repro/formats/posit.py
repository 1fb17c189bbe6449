"""Posit(N, ES) arithmetic (Section III of the paper), from scratch.

A :class:`PositEnv` fixes the configuration (total bits ``nbits``, maximum
exponent bits ``es``) and operates on raw bit patterns (Python ints in
``[0, 2**nbits)``).  Arithmetic is *correctly rounded*: operands are
decoded to exact dyadic rationals, combined exactly, and re-encoded with a
single rounding — the same result MArTo's hardware operators produce.

Rounding follows the posit standard: round-to-nearest on the (notionally
infinite) encoding string with ties to the even pattern, and saturation at
``minpos``/``maxpos`` — a nonzero real never rounds to zero or NaR.  The
paper's application study nevertheless reports *underflow counts* for
posit(64,9)/(64,12), so the environment also offers ``underflow="flush"``
which flushes sub-``minpos`` magnitudes to zero.  The rounding-policy
ablation in ``benchmarks/test_ablations.py`` measures the two side by
side on deep-tail p-values.
"""

from __future__ import annotations

from ..bigfloat import BigFloat
from .real import Real

SATURATE = "saturate"
FLUSH = "flush"

#: Special decode results.
ZERO = "zero"
NAR = "nar"


class PositEnv:
    """All operations for one posit configuration.

    Parameters
    ----------
    nbits:
        Total width N (2..128 supported; the paper uses 64 and an 8-bit
        example).
    es:
        Maximum exponent field width ES.
    underflow:
        ``"saturate"`` (posit standard; default) or ``"flush"``.
    """

    def __init__(self, nbits: int, es: int, underflow: str = SATURATE):
        if nbits < 2:
            raise ValueError("posit needs at least 2 bits")
        if es < 0:
            raise ValueError("es must be non-negative")
        if underflow not in (SATURATE, FLUSH):
            raise ValueError(f"unknown underflow mode {underflow!r}")
        self.nbits = nbits
        self.es = es
        self.underflow = underflow
        self.mask = (1 << nbits) - 1
        self.sign_bit = 1 << (nbits - 1)
        self.nar = self.sign_bit
        self.zero = 0
        self.minpos = 1
        self.maxpos = self.sign_bit - 1
        #: useed = 2**(2**es); regime steps scale by this factor.
        self.useed_log2 = 1 << es
        #: Largest/smallest representable scale (base-2 exponent).
        self.max_scale = (nbits - 2) * self.useed_log2
        self.min_scale = -self.max_scale

    # ------------------------------------------------------------------
    # Introspection helpers (Table I / Section III analysis)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"posit({self.nbits},{self.es})"

    def max_fraction_bits(self) -> int:
        """Fraction bits available with the shortest (2-bit) regime."""
        return max(0, self.nbits - 1 - 2 - self.es)

    def fraction_bits_at_scale(self, scale: int) -> int:
        """Fraction bits available when encoding a value of the given
        base-2 exponent — the paper's 'bit budget' argument for why ES
        affects accuracy non-monotonically."""
        if not self.min_scale <= scale <= self.max_scale:
            raise ValueError(f"scale {scale} not representable by {self.name}")
        k = scale >> self.es  # floor division by 2**es
        run = k + 1 if k >= 0 else -k
        regime_len = min(run + 1, self.nbits - 1)
        rem = self.nbits - 1 - regime_len
        return max(0, rem - self.es)

    def regime_length_at_scale(self, scale: int) -> int:
        k = scale >> self.es
        run = k + 1 if k >= 0 else -k
        return min(run + 1, self.nbits - 1)

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------
    def decode(self, bits: int):
        """Decode a bit pattern.

        Returns :data:`ZERO`, :data:`NAR`, or an exact :class:`Real`.
        """
        bits &= self.mask
        if bits == 0:
            return ZERO
        if bits == self.nar:
            return NAR
        sign = 1 if bits & self.sign_bit else 0
        if sign:
            bits = (-bits) & self.mask  # two's complement magnitude
        body_len = self.nbits - 1
        body = bits & (self.sign_bit - 1)
        # Regime: run of identical bits from the MSB of the body.
        top = body_len - 1
        r = (body >> top) & 1
        run = 1
        while run < body_len and ((body >> (top - run)) & 1) == r:
            run += 1
        k = run - 1 if r == 1 else -run
        # Bits left after the regime and its terminator (if present).
        consumed = run + 1 if run < body_len else body_len
        rem = body_len - consumed
        e_bits = min(self.es, rem)
        e_field = (body >> (rem - e_bits)) & ((1 << e_bits) - 1) if e_bits else 0
        # Truncated exponent fields are left-aligned: missing low bits = 0.
        e = e_field << (self.es - e_bits)
        f_bits = rem - e_bits
        f_field = body & ((1 << f_bits) - 1) if f_bits else 0
        scale = k * self.useed_log2 + e
        mantissa = (1 << f_bits) | f_field
        return Real(sign, mantissa, scale - f_bits)

    def to_bigfloat(self, bits: int) -> BigFloat:
        value = self.decode(bits)
        if value is ZERO:
            return BigFloat.zero()
        if value is NAR:
            raise ValueError("NaR has no real value")
        return value.to_bigfloat()

    def to_float(self, bits: int) -> float:
        return self.to_bigfloat(bits).to_float()

    # ------------------------------------------------------------------
    # Encode (the rounding step)
    # ------------------------------------------------------------------
    def encode_real(self, value: Real) -> int:
        """Correctly rounded encoding of an exact real value."""
        if value.is_zero():
            return 0
        scale = value.scale
        if scale > self.max_scale:
            pattern = self.maxpos
        else:
            pattern = self._round_pattern(value, scale)
            if pattern == 0:
                # Sub-minpos magnitude.  The standard never rounds a
                # nonzero value to zero (saturate to minpos); flush mode
                # reproduces the underflow behaviour the paper reports.
                pattern = 0 if self.underflow == FLUSH else self.minpos
            elif pattern > self.maxpos:
                pattern = self.maxpos
        if value.sign:
            pattern = (-pattern) & self.mask
        return pattern

    def _round_pattern(self, value: Real, scale: int) -> int:
        """Round-to-nearest-even on the encoding string (posit standard)."""
        es = self.es
        k = scale >> es
        e = scale - (k << es)
        if k >= 0:
            run = k + 1
            regime = (1 << (run + 1)) - 2  # run ones, then a zero
        else:
            run = -k
            regime = 1  # run zeros, then a one
        regime_len = run + 1
        mb = value.mantissa.bit_length()
        frac = value.mantissa - (1 << (mb - 1))
        frac_len = mb - 1
        # Unrounded encoding U with total length L (after the sign bit).
        length = regime_len + es + frac_len
        unrounded = (regime << (es + frac_len)) | (e << frac_len) | frac
        body_len = self.nbits - 1
        if length <= body_len:
            return unrounded << (body_len - length)
        shift = length - body_len
        kept = unrounded >> shift
        dropped = unrounded & ((1 << shift) - 1)
        half = 1 << (shift - 1)
        if dropped > half or (dropped == half and kept & 1):
            kept += 1
        return kept

    def encode_bigfloat(self, x: BigFloat) -> int:
        return self.encode_real(Real.from_bigfloat(x))

    def from_float(self, x: float) -> int:
        import math
        if math.isnan(x):
            return self.nar
        if math.isinf(x):
            return self.nar
        return self.encode_real(Real.from_float(x))

    # ------------------------------------------------------------------
    # Arithmetic (exact compute + single rounding)
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        da, db = self.decode(a), self.decode(b)
        if da is NAR or db is NAR:
            return self.nar
        if da is ZERO:
            return b & self.mask
        if db is ZERO:
            return a & self.mask
        gap = da.scale - db.scale
        if abs(gap) > self.nbits + 4:
            # The smaller operand is under a 32nd of the distance from
            # the larger to its nearest rounding point (at least
            # 2**(scale - nbits + 1)), so the sum rounds back to the
            # larger, with no need for the exact |gap|-bit sum.
            return (a if gap > 0 else b) & self.mask
        return self.encode_real(da.add(db))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        da, db = self.decode(a), self.decode(b)
        if da is NAR or db is NAR:
            return self.nar
        if da is ZERO or db is ZERO:
            return 0
        return self.encode_real(da.mul(db))

    def div(self, a: int, b: int) -> int:
        da, db = self.decode(a), self.decode(b)
        if da is NAR or db is NAR or db is ZERO:
            return self.nar
        if da is ZERO:
            return 0
        # Exact quotient is not dyadic in general; divide with enough
        # quotient bits that a sticky LSB makes the final rounding exact.
        prec = self.nbits + self.useed_log2.bit_length() + 8
        q = da.to_bigfloat().div(db.to_bigfloat(), prec + 16)
        return self.encode_bigfloat(q)

    def neg(self, a: int) -> int:
        a &= self.mask
        if a == 0 or a == self.nar:
            return a
        return (-a) & self.mask

    def abs(self, a: int) -> int:
        a &= self.mask
        if a & self.sign_bit and a != self.nar:
            return (-a) & self.mask
        return a

    # ------------------------------------------------------------------
    # Comparison: posits order as two's-complement integers.
    # ------------------------------------------------------------------
    def cmp(self, a: int, b: int) -> int:
        sa, sb = self._signed(a), self._signed(b)
        return (sa > sb) - (sa < sb)

    def _signed(self, a: int) -> int:
        a &= self.mask
        return a - (1 << self.nbits) if a & self.sign_bit else a

    def is_nar(self, a: int) -> bool:
        return (a & self.mask) == self.nar

    def is_zero(self, a: int) -> bool:
        return (a & self.mask) == 0

    # ------------------------------------------------------------------
    # Presentation (Figure 2 rendering; used by examples and docs)
    # ------------------------------------------------------------------
    def field_layout(self, bits: int) -> dict:
        """Split a pattern into its sign/regime/exponent/fraction fields
        as bit strings (after two's-complement magnitude recovery)."""
        bits &= self.mask
        if bits in (0, self.nar):
            return {"special": "zero" if bits == 0 else "NaR",
                    "pattern": format(bits, f"0{self.nbits}b")}
        sign = 1 if bits & self.sign_bit else 0
        mag = (-bits) & self.mask if sign else bits
        body_len = self.nbits - 1
        body = format(mag & (self.sign_bit - 1), f"0{body_len}b")
        r = body[0]
        run = 1
        while run < body_len and body[run] == r:
            run += 1
        consumed = min(run + 1, body_len)
        regime = body[:consumed]
        rest = body[consumed:]
        e_bits = min(self.es, len(rest))
        return {
            "sign": str(sign),
            "regime": regime,
            "exponent": rest[:e_bits],
            "fraction": rest[e_bits:],
            "pattern": format(bits, f"0{self.nbits}b"),
        }

    def __repr__(self):
        return f"PositEnv(nbits={self.nbits}, es={self.es}, underflow={self.underflow!r})"


#: The three configurations the paper analyses in depth (Section III).
def paper_configs(underflow: str = SATURATE) -> dict:
    return {
        "posit(64,9)": PositEnv(64, 9, underflow),
        "posit(64,12)": PositEnv(64, 12, underflow),
        "posit(64,18)": PositEnv(64, 18, underflow),
    }
