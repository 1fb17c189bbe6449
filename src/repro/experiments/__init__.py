"""One module per table/figure in the paper's evaluation, plus a CLI
runner (``python -m repro.experiments.runner``).  Run with no
arguments, it lists every experiment id with a one-line description
of the figure or table it reproduces."""

from . import (  # noqa: F401
    bitbudget_curves,
    scorecard,
    fig1_alpha_exponent,
    fig3_op_accuracy,
    fig6_forward_perf,
    fig7_column_perf,
    fig8_mmaps_per_clb,
    fig9_pvalue_accuracy,
    fig10_vicar_cdf,
    fig11_lofreq_cdf,
    table1_range,
    table2_units,
    table3_forward_resources,
    table4_column_resources,
)

__all__ = [
    "fig1_alpha_exponent", "table1_range", "fig3_op_accuracy",
    "table2_units", "fig6_forward_perf", "fig7_column_perf",
    "fig8_mmaps_per_clb", "table3_forward_resources",
    "table4_column_resources", "fig9_pvalue_accuracy",
    "fig10_vicar_cdf", "fig11_lofreq_cdf", "bitbudget_curves", "scorecard",
]
