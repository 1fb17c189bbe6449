"""The paper's primary contribution: quantitative accuracy/cost trade-off
analysis across binary64, log-space and posit representations."""

from .accuracy import (
    ERROR_FLOOR,
    OK,
    OVERFLOW,
    UNDERFLOW,
    OpResult,
    measure_op,
    measure_ops_batch,
    measure_pairs,
    score_log10,
    score_value,
    ulp_relative_error,
)
from .analysis import BoxStats, SweepResult, accuracy_ordering, run_op_sweep
from .bitbudget import (
    binary64_effective_bits,
    budget_curves,
    logspace_effective_bits,
    posit_effective_bits,
    predicted_log10_error,
)
from .errormodel import (
    ErrorPrediction,
    forward_op_count,
    pbd_op_count,
    per_op_error_log10,
    predict_logspace,
    predict_posit,
    predicted_gap_log_vs_posit,
)
from .rangetable import RangeRow, TABLE1_ES_VALUES, binary64_row, posit_row, table1_rows
from .sweep import (
    FIG3_BINS,
    OperandPair,
    SweepChunk,
    bin_label,
    generate_add_pairs,
    generate_mul_pairs,
    plan_chunks,
    probability_pairs_from_trace,
    stable_chunk_seed,
)

__all__ = [
    "OpResult", "measure_op", "measure_ops_batch", "measure_pairs",
    "score_value", "score_log10",
    "ulp_relative_error", "OK", "UNDERFLOW", "OVERFLOW", "ERROR_FLOOR",
    "BoxStats", "SweepResult", "run_op_sweep", "accuracy_ordering",
    "SweepChunk", "plan_chunks",
    "stable_chunk_seed",
    "binary64_effective_bits", "logspace_effective_bits",
    "posit_effective_bits", "budget_curves", "predicted_log10_error",
    "RangeRow", "TABLE1_ES_VALUES", "binary64_row", "posit_row", "table1_rows",
    "FIG3_BINS", "OperandPair", "bin_label", "generate_add_pairs",
    "generate_mul_pairs", "probability_pairs_from_trace",
    "ErrorPrediction", "predict_logspace", "predict_posit",
    "predicted_gap_log_vs_posit", "per_op_error_log10",
    "forward_op_count", "pbd_op_count",
]
