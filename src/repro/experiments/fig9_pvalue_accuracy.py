"""Figure 9: accuracy of final LoFreq p-values by magnitude bin, for
log / posit(64,{9,12,18}) (binary64 is absent — every deep p-value
underflows; extreme >= 1 relative errors are excluded from the boxes and
counted separately, as in the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..apps.lofreq import LoFreqResult, run_lofreq
from ..arith.backends import standard_backends
from ..core.sweep import bin_label
from ..data.genome import FIG9_BINS, stratified_columns
from ..engine.plan import ExecPlan, resolve_plan
from ..report.tables import render_table

#: columns per magnitude bin.
SCALES = {"test": 1, "bench": 4, "full": 12}

FORMATS = ("log", "posit(64,9)", "posit(64,12)", "posit(64,18)")


@dataclass
class Fig9Result:
    lofreq: LoFreqResult
    per_bin: int

    def median_rows(self) -> List[dict]:
        rows = []
        grouped: Dict[str, dict] = {
            fmt: self.lofreq.errors_by_bin(fmt, FIG9_BINS) for fmt in FORMATS}
        for bin_range in FIG9_BINS:
            row = {"p-value exponent": bin_label(bin_range)}
            for fmt in FORMATS:
                errs = grouped[fmt][bin_range]
                row[fmt] = round(float(np.median(errs)), 2) if errs else None
            rows.append(row)
        return rows

    def failure_rows(self) -> List[dict]:
        return [{
            "format": fmt,
            "underflow": self.lofreq.underflow_count(fmt),
            "extreme (err >= 1)": self.lofreq.extreme_error_count(fmt),
        } for fmt in FORMATS]


def run(scale: str = "bench", seed: int = 0,
        plan: Optional[ExecPlan] = None) -> Fig9Result:
    """Column p-values flow through the batched engine (one ragged call
    per format; identical results for every plan)."""
    plan = resolve_plan(plan, where="fig9_pvalue_accuracy.run")
    per_bin = SCALES[scale]
    columns = stratified_columns(per_bin=per_bin, seed=seed)
    backends = {f: b for f, b in
                standard_backends(underflow="flush").items()
                if f in FORMATS}
    return Fig9Result(run_lofreq(columns, backends, plan=plan), per_bin)


def render(result: Fig9Result) -> str:
    parts = [
        render_table(result.median_rows(),
                     title=f"Figure 9: median log10 relative error of final "
                           f"p-values (n={result.per_bin}/bin, flush mode)"),
        "",
        render_table(result.failure_rows(),
                     title="Underflow / extreme-error counts (paper: "
                           "posit(64,9)=132 uf, posit(64,12)=2 uf, "
                           "posit(64,18)=0 at 222k columns)"),
    ]
    return "\n".join(parts)
