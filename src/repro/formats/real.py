"""Exact real values of the form ``(-1)**sign * mantissa * 2**exponent``.

Every finite posit and IEEE value is exactly such a number, and the sum or
product of two of them is again one — so format arithmetic in this library
is implemented as *exact* integer computation followed by a single
correctly-rounded encode.  That is precisely the semantics of the paper's
hardware operators (MArTo posits and the Xilinx IEEE cores both round
correctly), which is what makes the accuracy comparison faithful.
"""

from __future__ import annotations

from ..bigfloat import BigFloat


class Real:
    """A lightweight exact dyadic rational (no specials).

    ``mantissa`` is kept positive and odd (canonical form) unless zero.
    """

    __slots__ = ("sign", "mantissa", "exponent")

    def __init__(self, sign: int, mantissa: int, exponent: int):
        if mantissa < 0:
            raise ValueError("mantissa must be non-negative")
        if mantissa == 0:
            sign, exponent = 0, 0
        else:
            tz = (mantissa & -mantissa).bit_length() - 1
            if tz:
                mantissa >>= tz
                exponent += tz
        self.sign = sign
        self.mantissa = mantissa
        self.exponent = exponent

    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "Real":
        return cls(0, 0, 0)

    @classmethod
    def from_bigfloat(cls, x: BigFloat) -> "Real":
        return cls(x.sign, x.mantissa, x.exponent)

    @classmethod
    def from_float(cls, x: float) -> "Real":
        return cls.from_bigfloat(BigFloat.from_float(x))

    @classmethod
    def from_int(cls, x: int) -> "Real":
        return cls(1 if x < 0 else 0, abs(x), 0)

    def to_bigfloat(self) -> BigFloat:
        return BigFloat(self.sign, self.mantissa, self.exponent)

    def to_float(self) -> float:
        return self.to_bigfloat().to_float()

    # ------------------------------------------------------------------
    def is_zero(self) -> bool:
        return self.mantissa == 0

    @property
    def scale(self) -> int:
        """Base-2 exponent in normalized scientific form (the ``E`` in
        ``1.f * 2**E``)."""
        if self.mantissa == 0:
            raise ValueError("zero has no scale")
        return self.exponent + self.mantissa.bit_length() - 1

    # ------------------------------------------------------------------
    # Exact arithmetic: mantissas grow as needed.  ``add`` aligns by the
    # full exponent gap, so its result has about (exponent gap + wider
    # mantissa) bits: callers must keep the gap bounded, by their
    # format's range (IEEE) or by not adding across a gap past the
    # format's precision (``PositEnv.add`` returns the larger operand).
    # ------------------------------------------------------------------
    def add(self, other: "Real") -> "Real":
        if self.mantissa == 0:
            return other
        if other.mantissa == 0:
            return self
        a, b = self, other
        if a.exponent < b.exponent:
            a, b = b, a
        am = a.mantissa << (a.exponent - b.exponent)
        bm = b.mantissa
        if a.sign == b.sign:
            return Real(a.sign, am + bm, b.exponent)
        if am == bm:
            return Real.zero()
        if am > bm:
            return Real(a.sign, am - bm, b.exponent)
        return Real(b.sign, bm - am, b.exponent)

    def sub(self, other: "Real") -> "Real":
        return self.add(other.neg())

    def mul(self, other: "Real") -> "Real":
        if self.mantissa == 0 or other.mantissa == 0:
            return Real.zero()
        return Real(self.sign ^ other.sign,
                    self.mantissa * other.mantissa,
                    self.exponent + other.exponent)

    def neg(self) -> "Real":
        if self.mantissa == 0:
            return self
        return Real(self.sign ^ 1, self.mantissa, self.exponent)

    def abs(self) -> "Real":
        return Real(0, self.mantissa, self.exponent)

    # ------------------------------------------------------------------
    def cmp(self, other: "Real") -> int:
        return self.to_bigfloat().cmp(other.to_bigfloat())

    def __eq__(self, other):
        if not isinstance(other, Real):
            return NotImplemented
        return ((self.sign, self.mantissa, self.exponent)
                == (other.sign, other.mantissa, other.exponent))

    def __hash__(self):
        return hash((self.sign, self.mantissa, self.exponent))

    def __repr__(self):
        if self.mantissa == 0:
            return "Real(0)"
        s = "-" if self.sign else ""
        return f"Real({s}{self.mantissa}*2**{self.exponent})"
