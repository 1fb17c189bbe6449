"""Semirings over the nd plane: the algebra a recurrence runs in.

The paper's kernels are all instances of one shape — a linear
recurrence whose "multiply" chains probabilities and whose "add"
recombines alternatives — evaluated under interchangeable number
formats.  This module makes the *algebra* as swappable as the format:
a :class:`Semiring` names the pair of monoids and dispatches them to
the existing :mod:`repro.nd` ops, so sum-product forward, Viterbi
max-product decoding, and the pair-HMM max/LSE hybrid are the same
kernel applied to different semirings (see
:func:`repro.apps.hmm.forward` and :mod:`repro.workloads.viterbi`).

Two ``plus`` monoids exist:

* ``"add"`` — probability addition (the format's native ``add``: float
  add, Equation-2/3 LSE in log-space, posit/LNS rounded adds).  Inner
  products contract through :func:`nd.dot`, keeping the decoded-plane
  fused kernels.
* ``"max"`` — the larger probability.  This dispatches to the
  :func:`nd.maximum`/:meth:`FArray.max` order ops, which compare the
  mirrors' *monotone code arrays* (float values, float logs, LNS
  fixed-point codes) or, for posit, its resident decoded planes in the
  order of its patterns as two's-complement integers, so max is
  **exact by construction** in every registered format — no rounding,
  and batch/serial plans decide identically.
  That certification is pinned exhaustively in
  ``tests/test_workloads_semiring.py``.

``times`` is always the format's probability multiply: every semiring
the workloads use is ``(⊕, ×)`` over probabilities; the log-space
*format* is what turns ``×`` into code addition, exactly as it turns
``⊕`` into LSE — semiring choice and format choice stay orthogonal,
which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .. import nd

#: The two plus-monoids (module docstring).
_PLUS_OPS = ("add", "max")


@dataclass(frozen=True)
class Semiring:
    """One recurrence algebra: how alternatives recombine.

    ``plus_op`` is the within-step recombination (the inner product of
    the recurrence); ``total_op`` the final cross-state reduction.
    They usually coincide, but the pair-HMM hybrid recombines with max
    while totalling with add (GATK's HMM approximation), which is why
    they are separate fields.
    """

    name: str
    plus_op: str       # "add" | "max" — within-step recombination
    total_op: str      # "add" | "max" — final reduction
    description: str = ""

    def __post_init__(self):
        for field in (self.plus_op, self.total_op):
            if field not in _PLUS_OPS:
                raise ValueError(f"unknown semiring op {field!r} "
                                 f"(one of {_PLUS_OPS})")

    # -- the four ops every kernel is written against -------------------
    def times(self, x, y):
        """Chain two probabilities (the format's multiply)."""
        return x * y

    def plus(self, x, y):
        """Recombine two alternatives elementwise."""
        return x + y if self.plus_op == "add" else nd.maximum(x, y)

    def contract(self, x, y, axis: int = -1):
        """The recurrence's inner product: ``⊕_i (x_i × y_i)`` along
        ``axis``.  The add-monoid routes through :func:`nd.dot` (the
        decoded-plane fused kernel); the max-monoid multiplies then
        takes the exact code-order max."""
        if self.plus_op == "add":
            return nd.dot(x, y, axis=axis)
        return (x * y).max(axis=axis)

    def reduce(self, x, axis: Optional[int] = None):
        """The final cross-state reduction with the total monoid."""
        return x.sum(axis=axis) if self.total_op == "add" \
            else x.max(axis=axis)

    def __repr__(self):
        return f"<Semiring {self.name} ⊕={self.plus_op} total={self.total_op}>"


#: Classic sum-product: forward probabilities, PBD, LoFreq.
SUM_PRODUCT = Semiring(
    "sum-product", "add", "add",
    "Probability mass over all paths (forward algorithm, PBD).")

#: Max-product (Viterbi): the single best path's probability.
MAX_PRODUCT = Semiring(
    "max-product", "max", "max",
    "Best single path (Viterbi decoding; max is exact in every "
    "format — codes are monotone).")

#: Sum-product *as realized in the log format*: plus is the LSE of
#: Equation (2)/(3).  Algebraically identical to SUM_PRODUCT — the
#: format supplies the LSE — but registered separately so workloads
#: and service requests can name the dataflow the paper's LSE unit
#: implements.
LOG_SUM_EXP = Semiring(
    "log-sum-exp", "add", "add",
    "Sum-product under the log format: plus is the stable LSE "
    "recombination (Equations 2-3).")

#: GATK-style pair-HMM hybrid: max recombination inside the
#: recurrence (best alignment extension), probability-sum total over
#: the final row (mass of where the read ends).
PAIRHMM_MAX = Semiring(
    "pairhmm-max", "max", "add",
    "Pair-HMM hybrid: max within the recurrence, sum over final "
    "states (the HaplotypeCaller approximation).")

#: Every registered semiring, by name.
SEMIRINGS: Dict[str, Semiring] = {
    s.name: s
    for s in (SUM_PRODUCT, MAX_PRODUCT, LOG_SUM_EXP, PAIRHMM_MAX)
}


def resolve_semiring(semiring) -> Semiring:
    """``semiring`` (a :class:`Semiring`, a registered name, or None
    for sum-product) as a :class:`Semiring`."""
    if semiring is None:
        return SUM_PRODUCT
    if isinstance(semiring, Semiring):
        return semiring
    try:
        return SEMIRINGS[semiring]
    except KeyError:
        raise ValueError(f"unknown semiring {semiring!r} "
                         f"(one of {sorted(SEMIRINGS)})") from None


__all__ = [
    "LOG_SUM_EXP",
    "MAX_PRODUCT",
    "PAIRHMM_MAX",
    "SEMIRINGS",
    "SUM_PRODUCT",
    "Semiring",
    "resolve_semiring",
]
