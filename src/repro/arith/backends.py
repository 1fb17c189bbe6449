"""Concrete arithmetic backends for the four representations the paper
compares: binary64, log-space, posit(64,ES), and the BigFloat oracle."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..bigfloat import BigFloat, DEFAULT_PRECISION
from ..formats.logspace import LogSpace, log_mul, lse2, lse_n, lse_sequential
from .backend import Backend


class Binary64Backend(Backend):
    """Native IEEE binary64 (Python floats are exactly that).

    Probabilities below ~2**-1074 underflow to 0.0, which is the failure
    mode motivating the whole paper.
    """

    name = "binary64"

    def from_bigfloat(self, x: BigFloat) -> float:
        return x.to_float()

    def to_bigfloat(self, value: float) -> BigFloat:
        if math.isinf(value) or math.isnan(value):
            raise ValueError(f"{value} has no exact value")
        return BigFloat.from_float(value)

    def add(self, a: float, b: float) -> float:
        return a + b

    def mul(self, a: float, b: float) -> float:
        return a * b

    def sub(self, a: float, b: float) -> float:
        return a - b

    def div(self, a: float, b: float) -> float:
        return a / b

    def zero(self) -> float:
        return 0.0

    def one(self) -> float:
        return 1.0

    def is_zero(self, value: float) -> bool:
        return value == 0.0

    def gt(self, a: float, b: float) -> bool:
        return a > b


class LogSpaceBackend(Backend):
    """Probabilities stored as natural logs in binary64 (Section II.B).

    ``mul`` is float addition; ``add`` is the LSE of Equation (2); ``sum``
    is the n-ary LSE of Equation (3).  Probability zero is ``-inf``.

    ``sum_mode`` selects the accumulation dataflow: ``"nary"`` (default)
    is Equation (3) — one max, one sum of exps, one log, the hardware
    LSE unit's shape — while ``"sequential"`` folds the binary LSE of
    Equation (2) left-to-right, the software-accumulation shape that the
    batched engine (:mod:`repro.engine`) reproduces bit-for-bit.
    """

    name = "log"

    SUM_MODES = ("nary", "sequential")

    def __init__(self, prec: int = DEFAULT_PRECISION, sum_mode: str = "nary"):
        if sum_mode not in self.SUM_MODES:
            raise ValueError(f"unknown sum_mode {sum_mode!r}")
        self._codec = LogSpace(prec)
        self.sum_mode = sum_mode

    def from_bigfloat(self, x: BigFloat) -> float:
        return self._codec.encode_bigfloat(x)

    def to_bigfloat(self, value: float) -> BigFloat:
        return self._codec.decode_bigfloat(value)

    def add(self, a: float, b: float) -> float:
        return lse2(a, b)

    def mul(self, a: float, b: float) -> float:
        return log_mul(a, b)

    def sub(self, a: float, b: float) -> float:
        """Probability subtraction ``a - b`` via log-diff-exp:

            ``a + log1p(-exp(b - a))``   (for b < a)

        the numerically stable companion of Equation (2).  Probabilities
        are non-negative, so ``b > a`` (a negative result) is a domain
        error, and ``a == b`` yields exact probability zero (``-inf``).

        The interior evaluates through NumPy's scalar ``exp``/``log1p``
        kernels (elementwise-consistent with the array kernels), so
        :meth:`BatchLogSpace.sub <repro.engine.batch.BatchLogSpace.sub>`
        is bit-identical by construction.
        """
        if b == -math.inf:
            return a
        if a == -math.inf or b > a:
            raise ValueError(
                "log-space subtraction would produce a negative probability")
        if a == b:
            return -math.inf
        return float(a + np.log1p(-np.exp(np.float64(b - a))))

    def div(self, a: float, b: float) -> float:
        if b == -math.inf:
            raise ZeroDivisionError("log-space division by zero probability")
        if a == -math.inf:
            return -math.inf
        return a - b

    def zero(self) -> float:
        return -math.inf

    def one(self) -> float:
        return 0.0

    def is_zero(self, value: float) -> bool:
        return value == -math.inf

    def sum(self, values: Iterable[float]) -> float:
        if self.sum_mode == "sequential":
            return lse_sequential(values)
        return lse_n(values)

    def gt(self, a: float, b: float) -> bool:
        """Compare the raw float logs, not ``to_bigfloat`` values: the
        decode is only correctly rounded, so two distinct logs could
        round to one BigFloat and flip a tie-break.  ``log`` is strictly
        monotone, so the float order *is* the probability order —
        exactly the order ``np.maximum`` realizes on the batch mirror's
        log arrays."""
        return a > b


class PositBackend(Backend):
    """posit(N, ES) arithmetic on raw bit patterns (Section III)."""

    def __init__(self, env: PositEnv):
        self.env = env
        self.name = env.name
        self._one = env.from_float(1.0)

    def from_bigfloat(self, x: BigFloat):
        return self.env.encode_bigfloat(x)

    def to_bigfloat(self, value) -> BigFloat:
        return self.env.to_bigfloat(value)

    def add(self, a, b):
        return self.env.add(a, b)

    def mul(self, a, b):
        return self.env.mul(a, b)

    def sub(self, a, b):
        return self.env.sub(a, b)

    def div(self, a, b):
        return self.env.div(a, b)

    def zero(self):
        return 0

    def one(self):
        return self._one

    def is_zero(self, value) -> bool:
        return self.env.is_zero(value)

    def is_nar(self, value) -> bool:
        return self.env.is_nar(value)

    def gt(self, a, b) -> bool:
        """Posit bit patterns compare as two's-complement integers (the
        posit standard's total order; NaR = the sign-bit pattern sorts
        below every real).  Exact by construction — no decode."""
        return self._ordered(a) > self._ordered(b)

    def _ordered(self, value) -> int:
        return value - (1 << self.env.nbits) \
            if value >= self.env.sign_bit else value

    def fused_sum(self, values) -> int:
        """Quire-style exact accumulation (extension feature)."""
        return self.env.fused_sum(values)


class LNSBackend(Backend):
    """Logarithmic Number System (Section VII) with an ideal sb table.

    Included for the extended format comparison: flat precision across
    its range, exact multiplication, hard saturation at the range edge.
    """

    def __init__(self, env=None):
        from ..formats.lns import LNSEnv
        self.env = env if env is not None else LNSEnv(12, 50)
        self.name = self.env.name

    def from_bigfloat(self, x: BigFloat):
        return self.env.encode_bigfloat(x)

    def to_bigfloat(self, value) -> BigFloat:
        return self.env.decode_bigfloat(value)

    def add(self, a, b):
        return self.env.add(a, b)

    def mul(self, a, b):
        return self.env.mul(a, b)

    def sub(self, a, b):
        return self.env.sub(a, b)

    def div(self, a, b):
        from ..formats.lns import LNS_ZERO
        if b == LNS_ZERO:
            raise ZeroDivisionError("LNS division by zero probability")
        if a == LNS_ZERO:
            return LNS_ZERO
        return max(self.env.min_code, min(self.env.max_code, a - b))

    def zero(self):
        from ..formats.lns import LNS_ZERO
        return LNS_ZERO

    def one(self):
        return 0

    def is_zero(self, value) -> bool:
        from ..formats.lns import LNS_ZERO
        return value == LNS_ZERO

    def gt(self, a, b) -> bool:
        """LNS codes are fixed-point log2 values — integer order *is*
        probability order, with the zero sentinel below everything
        (mirroring the batch mirror's ``ZERO_CODE`` = int64 min)."""
        from ..formats.lns import LNS_ZERO
        if a == LNS_ZERO:
            return False
        if b == LNS_ZERO:
            return True
        return a > b


class BigFloatBackend(Backend):
    """The oracle: p-bit MPFR-style arithmetic (default 256 bits)."""

    def __init__(self, prec: int = DEFAULT_PRECISION):
        self.prec = prec
        self.name = f"bigfloat{prec}"

    def from_bigfloat(self, x: BigFloat) -> BigFloat:
        return x.round(self.prec)

    def to_bigfloat(self, value: BigFloat) -> BigFloat:
        return value

    def add(self, a: BigFloat, b: BigFloat) -> BigFloat:
        return a.add(b, self.prec)

    def mul(self, a: BigFloat, b: BigFloat) -> BigFloat:
        return a.mul(b, self.prec)

    def sub(self, a: BigFloat, b: BigFloat) -> BigFloat:
        return a.sub(b, self.prec)

    def div(self, a: BigFloat, b: BigFloat) -> BigFloat:
        return a.div(b, self.prec)

    def zero(self) -> BigFloat:
        return BigFloat.zero()

    def one(self) -> BigFloat:
        return BigFloat.from_int(1)

    def is_zero(self, value: BigFloat) -> bool:
        return value.is_zero()


def standard_backends(underflow: str = "saturate") -> dict:
    """The five formats of Figure 3: binary64, log, and three posits.

    Thin view over the format registry
    (:data:`repro.arith.registry.REGISTRY`), which owns construction.
    """
    from .registry import REGISTRY
    return REGISTRY.standard(underflow)
