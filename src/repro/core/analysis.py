"""Box-plot statistics and the Figure 3 sweep driver.

Figure 3 shows, per result-exponent bin and per format, the 5/25/50/75/95
percentiles of log10(relative error).  :func:`run_op_sweep` produces that
table; :class:`BoxStats` holds one box."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..arith.backend import Backend
from .sweep import FIG3_BINS, bin_label
from ..engine.plan import ExecPlan, resolve_plan


@dataclass
class BoxStats:
    """Percentiles of log10 relative error for one (format, bin) cell."""

    format: str
    bin_range: tuple
    count: int
    underflow: int
    overflow: int
    p5: Optional[float] = None
    p25: Optional[float] = None
    median: Optional[float] = None
    p75: Optional[float] = None
    p95: Optional[float] = None

    @classmethod
    def from_errors(cls, fmt: str, bin_range: tuple,
                    errors: Sequence[float], underflow: int = 0,
                    overflow: int = 0) -> "BoxStats":
        stats = cls(fmt, bin_range, len(errors), underflow, overflow)
        if errors:
            arr = np.asarray(errors, dtype=float)
            stats.p5, stats.p25, stats.median, stats.p75, stats.p95 = (
                float(np.percentile(arr, q)) for q in (5, 25, 50, 75, 95))
        return stats

    @property
    def label(self) -> str:
        return bin_label(self.bin_range)

    def row(self) -> dict:
        return {
            "format": self.format,
            "bin": self.label,
            "n": self.count,
            "underflow": self.underflow,
            "overflow": self.overflow,
            "p5": self.p5,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "p95": self.p95,
        }


@dataclass
class SweepResult:
    """All boxes for one operation (one panel of Figure 3)."""

    op: str
    boxes: Dict[tuple, Dict[str, BoxStats]] = field(default_factory=dict)

    def box(self, bin_range: tuple, fmt: str) -> BoxStats:
        return self.boxes[bin_range][fmt]

    def formats(self) -> list:
        first = next(iter(self.boxes.values()))
        return list(first)

    def rows(self) -> list:
        out = []
        for bin_range in self.boxes:
            for fmt in self.boxes[bin_range]:
                out.append(self.boxes[bin_range][fmt].row())
        return out


def run_op_sweep(op: str, backends: Dict[str, Backend],
                 per_bin: int = 100, bins: Sequence[tuple] = FIG3_BINS,
                 seed: int = 0,
                 plan: Optional[ExecPlan] = None) -> SweepResult:
    """Measure every backend on stratified operand pairs.

    binary64 is skipped (not measured) in bins entirely left of its
    normal range, matching the paper's Figure 3 ('Binary64 is not shown
    in ranges to the left of 2**-1022').

    Every plan runs the same chunk plan through
    :func:`repro.engine.runner.run_sweep_parallel`, so the plan cannot
    change which pairs are drawn or what they measure: the canonical
    path measures through the array backends of :mod:`repro.engine`
    (bit-identical results; scalar fallback per format),
    ``plan=ExecPlan.serial()`` forces the scalar per-pair loop, and the
    sweep stays in-process unless ``plan.n_workers > 1`` fans its
    chunks across worker processes.
    """
    from ..engine.runner import run_sweep_parallel
    plan = resolve_plan(plan, where="run_op_sweep")
    return run_sweep_parallel(op, backends, per_bin=per_bin, bins=bins,
                              seed=seed,
                              n_workers=plan.n_workers if plan.parallel
                              else 0,
                              batch=plan.batch)


def accuracy_ordering(result: SweepResult, bin_range: tuple) -> list:
    """Formats sorted most-accurate-first by median log10 error in a bin
    (used by tests asserting the paper's qualitative claims)."""
    cell = result.boxes[bin_range]
    measured = [(s.median, f) for f, s in cell.items() if s.median is not None]
    measured.sort()
    return [f for _, f in measured]
