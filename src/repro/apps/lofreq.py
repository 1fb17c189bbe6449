"""LoFreq-like variant caller (Section V.A): PBD p-values over pileup
columns, with the paper's 2**-200 call threshold.

Produces the data behind Figures 9 and 11: per-column p-value relative
errors per format, split by magnitude bin and by critical/non-critical
status, plus application-level call concordance (does a format's
accuracy/underflow behaviour change which variants get called?).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..arith.backend import Backend
from ..arith.backends import BigFloatBackend
from ..bigfloat import BigFloat
from ..core.accuracy import OK, OVERFLOW, UNDERFLOW, OpResult, score_value
from ..data.genome import CALL_THRESHOLD_SCALE, Column
from ..engine.plan import ExecPlan, resolve_plan
from .pbd import pbd_pvalue, pbd_pvalue_batch


@dataclass
class ColumnScore:
    """One column's outcome in one format."""

    column: Column
    reference_scale: int
    result: OpResult
    called: Optional[bool]  # None when the format produced NaR

    @property
    def critical(self) -> bool:
        """True when the *true* p-value is below the call threshold."""
        return self.reference_scale < CALL_THRESHOLD_SCALE


@dataclass
class LoFreqResult:
    """All per-column scores for a set of formats."""

    scores: Dict[str, List[ColumnScore]] = field(default_factory=dict)

    def errors(self, fmt: str, critical: Optional[bool] = None,
               include_extreme: bool = True) -> List[float]:
        """log10 relative errors; optionally filter by criticality and
        drop 'extreme cases with relative error >= 1' as Figure 9 does."""
        out = []
        for s in self.scores[fmt]:
            if critical is not None and s.critical != critical:
                continue
            if s.result.status != OK:
                continue
            if not include_extreme and s.result.log10_error >= 0.0:
                continue
            out.append(s.result.log10_error)
        return out

    def underflow_count(self, fmt: str) -> int:
        return sum(1 for s in self.scores[fmt] if s.result.status == UNDERFLOW)

    def extreme_error_count(self, fmt: str) -> int:
        """Cases with relative error >= 1 (the paper reports 30 for
        posit(64,9) and 2 for posit(64,12))."""
        return sum(1 for s in self.scores[fmt]
                   if s.result.status == OK and s.result.log10_error >= 0.0)

    def call_discordance(self, fmt: str) -> int:
        """Columns where the format's variant call differs from truth."""
        return sum(1 for s in self.scores[fmt]
                   if s.called is None or s.called != s.critical)

    def errors_by_bin(self, fmt: str, bins: Sequence[tuple]) -> Dict[tuple, List[float]]:
        """Figure 9's view: errors grouped by true-p-value exponent bin
        (extreme >= 1 cases excluded, as in the figure)."""
        grouped: Dict[tuple, List[float]] = {b: [] for b in bins}
        for s in self.scores[fmt]:
            if s.result.status != OK or s.result.log10_error >= 0.0:
                continue
            for lo, hi in bins:
                if lo <= s.reference_scale < hi:
                    grouped[(lo, hi)].append(s.result.log10_error)
                    break
        return grouped


def reference_pvalues(columns: Sequence[Column], prec: int = 256) -> List[BigFloat]:
    oracle = BigFloatBackend(prec)
    return [pbd_pvalue(c.success_probs, c.k, oracle) for c in columns]


def column_pvalues(columns: Sequence[Column], backend: Backend,
                   plan: Optional[ExecPlan] = None) -> List:
    """Each column's p-value as a backend value, in column order: one
    ragged :func:`repro.apps.pbd.pbd_pvalue_batch` call over columns of
    diverse depths and alt counts — vectorized under a batch plan, on
    the scalar representation under ``ExecPlan.serial()``; identical
    results either way."""
    plan = resolve_plan(plan, where="column_pvalues")
    return pbd_pvalue_batch([c.success_probs for c in columns],
                            [c.k for c in columns], backend, plan=plan)


def run_lofreq(columns: Sequence[Column], backends: Dict[str, Backend],
               references: Optional[Sequence[BigFloat]] = None,
               prec: int = 256,
               plan: Optional[ExecPlan] = None) -> LoFreqResult:
    """Compute every column's p-value in every format and score it.

    Each format's p-values are one ragged PBD call over every column
    (:func:`column_pvalues`); the :class:`~repro.engine.plan.ExecPlan`
    picks vectorized or scalar execution, with identical results."""
    plan = resolve_plan(plan, where="run_lofreq")
    if references is None:
        references = reference_pvalues(columns, prec)
    threshold = BigFloat.exp2(CALL_THRESHOLD_SCALE)
    result = LoFreqResult()
    for fmt, backend in backends.items():
        fmt_scores: List[ColumnScore] = []
        values = column_pvalues(columns, backend, plan=plan)
        for column, ref, value in zip(columns, references, values):
            score = score_value(backend, value, ref)
            called = _call(backend, value, threshold, score)
            fmt_scores.append(ColumnScore(column, ref.scale, score, called))
        result.scores[fmt] = fmt_scores
    return result


def _call(backend: Backend, value, threshold: BigFloat,
          score: OpResult) -> Optional[bool]:
    """LoFreq's decision: variant iff p-value < 2**-200.  Underflowed
    zeros compare below the threshold (they *are* called — with a wrong
    p-value); NaR/overflow yields no call."""
    if score.status == OVERFLOW:
        return None
    if backend.is_zero(value):
        return True
    return backend.to_bigfloat(value) < threshold
