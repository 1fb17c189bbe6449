"""Per-operation accuracy measurement (Section IV.A methodology).

Operands are exact dyadic rationals.  For each format we convert the
operands in, perform one operation, convert the result out, and score it
against the *exact* result (exact because sums and products of dyadic
rationals are dyadic — our oracle is even stronger than the paper's
256-bit MPFR).  The score is the relative error ``|x - y| / |x|``, and
results are reported as log10(relative error), matching Figure 3's axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .. import faults as _faults
from .. import telemetry as _tele
from ..arith.backend import Backend
from ..bigfloat import BigFloat, log10 as bf_log10, relative_error
from ..formats.real import Real

#: Sentinel categories for results that have no finite relative error.
OK = "ok"
UNDERFLOW = "underflow"  # computed exactly zero for a nonzero truth
OVERFLOW = "overflow"  # computed inf / NaR
ERROR_FLOOR = -400.0  # stand-in log10 error for exact results


@dataclass(frozen=True)
class OpResult:
    """Outcome of one measured operation in one format."""

    format: str
    status: str
    log10_error: Optional[float]  # None unless status == OK

    @property
    def ok(self) -> bool:
        return self.status == OK


def measure_op(backend: Backend, op: str, x: Real, y: Real,
               exact: Optional[Real] = None, prec: int = 256) -> OpResult:
    """Run ``x op y`` through ``backend`` and score it.

    ``op`` is ``"add"`` or ``"mul"``.  ``exact`` may be supplied when the
    caller already computed the exact result (the sweep does, to bin by
    result exponent).
    """
    if exact is None:
        exact = x.add(y) if op == "add" else x.mul(y)
    if exact.is_zero():
        raise ValueError("exact result is zero; relative error undefined")
    a = backend.from_bigfloat(x.to_bigfloat())
    b = backend.from_bigfloat(y.to_bigfloat())
    if op == "add":
        computed = backend.add(a, b)
    elif op == "mul":
        computed = backend.mul(a, b)
    else:
        raise ValueError(f"unknown op {op!r}")
    return score_value(backend, computed, exact.to_bigfloat(), prec)


def measure_ops_batch(batch_backend, op: str, pairs: Sequence,
                      prec: int = 256) -> List[OpResult]:
    """Batched counterpart of :func:`measure_op` over a list of
    :class:`~repro.core.sweep.OperandPair`.

    Operands are converted in with the scalar backend (the conversion is
    part of the methodology, not the measured op), the operation itself
    runs once over the whole array through a
    :class:`repro.engine.BatchBackend`, and each result is scored with
    the scalar oracle machinery.  Per-element results are bit-identical
    to the scalar path (see :mod:`repro.engine.batch`).
    """
    if op not in ("add", "mul"):
        raise ValueError(f"unknown op {op!r}")
    if not pairs:
        return []
    xs = batch_backend.from_bigfloats([p.x.to_bigfloat() for p in pairs])
    ys = batch_backend.from_bigfloats([p.y.to_bigfloat() for p in pairs])
    computed = (batch_backend.add(xs, ys) if op == "add"
                else batch_backend.mul(xs, ys))
    scalar = batch_backend.scalar
    return [score_value(scalar, batch_backend.item(computed, i),
                        pair.exact.to_bigfloat(), prec)
            for i, pair in enumerate(pairs)]


def measure_pairs(backend: Backend, op: str, pairs: Sequence,
                  batch: bool = True) -> tuple:
    """Measure one backend over a pair list; returns the box tally
    ``(errors, underflow_count, overflow_count)`` that feeds a Figure 3
    cell.

    ``batch=True`` routes the measured op through the format's array
    backend from :mod:`repro.engine` when one exists; otherwise it runs
    on the scalar plane (:class:`~repro.engine.batch.ScalarPlane`,
    the scalar backend per pair — identical results).  A batch tier
    that raises at runtime — or is already quarantined by the
    degradation ladder — falls back to the scalar plane
    (:mod:`repro.faults.degrade`; the tallies are identical either
    way, only the speed changes).
    """
    from ..engine import ScalarPlane, batch_backend_for
    bb = None
    if batch and not _faults.quarantined("batch"):
        bb = batch_backend_for(backend)
    if bb is not None:
        if _tele.current() is not None:
            _tele.count(f"sweep.{op}.{backend.name}.batch", len(pairs))
        try:
            _faults.fire("batch.measure")
            results = measure_ops_batch(bb, op, pairs)
        except Exception as exc:
            _faults.degrade("batch", exc)
            bb = None
    if bb is None:
        if _tele.current() is not None:
            _tele.count(f"sweep.{op}.{backend.name}.scalar", len(pairs))
        results = measure_ops_batch(ScalarPlane(backend), op, pairs)
    errors, n_uf, n_of = [], 0, 0
    for res in results:
        if res.status == OK:
            errors.append(res.log10_error)
        elif res.status == UNDERFLOW:
            n_uf += 1
        else:
            n_of += 1
    return errors, n_uf, n_of


def score_value(backend: Backend, computed, exact: BigFloat,
                prec: int = 256) -> OpResult:
    """Score an already-computed backend value against an exact truth."""
    if backend.is_zero(computed):
        if exact.is_zero():
            return OpResult(backend.name, OK, ERROR_FLOOR)
        return OpResult(backend.name, UNDERFLOW, None)
    try:
        got = backend.to_bigfloat(computed)
    except ValueError:
        return OpResult(backend.name, OVERFLOW, None)
    err = relative_error(exact, got, prec)
    if err.is_zero():
        return OpResult(backend.name, OK, ERROR_FLOOR)
    return OpResult(backend.name, OK, bf_log10(err, 64).to_float())


def score_log10(backend: Backend, computed, exact: BigFloat,
                huge: float = 400.0) -> float:
    """Like :func:`score_value` but collapse failures onto a single
    numeric scale: underflow/overflow map to ``+huge`` so CDFs can still
    be drawn over all results (used for Figs. 9-11, where the paper notes
    'extreme cases with relative error >= 1 are not included' for the
    box plot but counted separately)."""
    res = score_value(backend, computed, exact)
    if res.ok:
        return res.log10_error
    return huge


def ulp_relative_error(fraction_bits: int) -> float:
    """Model relative error bound for round-to-nearest with the given
    number of fraction bits: 2**-(fraction_bits + 1).  Used to sanity-
    check measured medians against format precision."""
    return math.ldexp(1.0, -(fraction_bits + 1))
