"""Log-space arithmetic over binary64 (Section II.B of the paper).

A probability ``x`` is stored as its natural log ``lx = ln(x)`` in an
ordinary Python float (which *is* IEEE binary64 — the exact representation
the paper's software baselines and LSE accelerator use).  Multiplication
becomes float addition; addition becomes Log-Sum-Exp:

    ``lse(lx, ly) = m + log1p(exp(min - m))``,  ``m = max(lx, ly)``

which is Equation (2) of the paper, and the n-ary form is Equation (3).
Zero probability is represented by ``-inf``, exactly as log-space software
does.

Conversions into and out of log-space go through :mod:`repro.bigfloat`
so that operands far outside double range (e.g. ``2**-500_000``) are
converted *correctly rounded* — the paper's methodology converts operands
in MPFR for the same reason.
"""

from __future__ import annotations

import math

import numpy as np

from ..bigfloat import BigFloat, DEFAULT_PRECISION
from ..bigfloat import exp as bf_exp
from ..bigfloat import log as bf_log


def lse2(lx: float, ly: float) -> float:
    """Binary Log-Sum-Exp (paper Equation 2) in binary64 arithmetic."""
    if lx == -math.inf:
        return ly
    if ly == -math.inf:
        return lx
    if lx >= ly:
        m, other = lx, ly
    else:
        m, other = ly, lx
    return m + math.log1p(math.exp(other - m))


def lse2_naive(lx: float, ly: float) -> float:
    """Equation (1): the numerically unstable direct form, kept as an
    ablation of the stability claim (overflows for lx > ~709.78 and
    underflows to -inf once both operands drop below ~-745.13)."""
    try:
        return math.log(math.exp(lx) + math.exp(ly))
    except OverflowError:
        return math.inf
    except ValueError:
        return -math.inf


def lse_n(values) -> float:
    """N-ary Log-Sum-Exp (paper Equation 3): one max, one sum of exps,
    one log — the dataflow the log-based PE implements in hardware.

    The exps and the log are NumPy's float64 kernels, not libm's (the
    two differ in the last bit), and the exps are summed in index
    order: exactly the n-ary fold of
    :meth:`BatchLogSpace.sum <repro.engine.batch.BatchLogSpace.sum>`,
    so the scalar and batch planes agree bit for bit."""
    vals = list(values)
    if not vals:
        return -math.inf
    m = max(vals)
    if m == -math.inf:
        return -math.inf
    if m == math.inf:
        return math.inf
    total = 0.0
    for e in np.exp(np.array(vals, dtype=np.float64) - m).tolist():
        total += e
    return m + float(np.log(total))


def lse_sequential(values) -> float:
    """Fold :func:`lse2` left-to-right — the software-accumulation
    alternative to the tree/n-ary form, used by the ablation bench."""
    acc = -math.inf
    for v in values:
        acc = lse2(acc, v)
    return acc


def log_mul(lx: float, ly: float) -> float:
    """Multiplication of probabilities in log-space: a float addition."""
    if lx == -math.inf or ly == -math.inf:
        return -math.inf
    return lx + ly


class LogSpace:
    """Conversion helpers for one log base (natural log by default).

    The paper's pipelines use natural logs; base-2 is provided for the
    analysis utilities (exponent bookkeeping).
    """

    def __init__(self, prec: int = DEFAULT_PRECISION):
        self.prec = prec

    def encode_bigfloat(self, x: BigFloat) -> float:
        """ln(x) correctly rounded to binary64; -inf for zero."""
        if x.is_zero():
            return -math.inf
        if x.is_negative():
            raise ValueError("log-space encodes non-negative values only")
        return bf_log(x, self.prec).to_float()

    def encode_float(self, x: float) -> float:
        if x == 0.0:
            return -math.inf
        if x < 0.0:
            raise ValueError("log-space encodes non-negative values only")
        return self.encode_bigfloat(BigFloat.from_float(x))

    def decode_bigfloat(self, lx: float) -> BigFloat:
        """exp(lx) as a BigFloat — exact range, no underflow, so results
        like ``exp(-2_010_126.8)`` stay measurable."""
        if lx == -math.inf:
            return BigFloat.zero()
        if math.isnan(lx) or lx == math.inf:
            raise ValueError(f"cannot decode {lx} from log-space")
        return bf_exp(BigFloat.from_float(lx), self.prec)

    def is_zero(self, lx: float) -> bool:
        return lx == -math.inf
