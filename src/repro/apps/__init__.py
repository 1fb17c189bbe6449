"""Statistical applications from the paper's case study: the HMM forward
algorithm (VICAR) and Poisson-binomial p-values (LoFreq)."""

from .hmm import (
    alpha_scale_series,
    forward,
    forward_alpha_trace,
    forward_batch,
    forward_float,
    forward_log,
    forward_models_batch,
    forward_rescaled,
    model_arrays,
    trace_operands,
)
from .pbd import (
    complement,
    pbd_pmf,
    pbd_pvalue,
    pbd_pvalue_batch,
    pbd_pvalue_float,
    pbd_pvalue_log,
    reference_pvalue,
)
from .vicar import (
    VicarConfig,
    VicarResult,
    generate_instances,
    paper_config,
    run_vicar,
    scaled_config,
)
from .lofreq import (
    ColumnScore,
    LoFreqResult,
    column_pvalues,
    reference_pvalues,
    run_lofreq,
)
from .hmm_extra import (
    backward,
    backward_batch,
    backward_matrix,
    forward_matrix,
    path_probability,
    posterior_decode,
    posterior_distributions,
)
from .pbd_dft import dft_tail_resolution_limit, pbd_pmf_dft, pbd_pvalue_dft
from .baum_welch import TrainingTrace, baum_welch, improvement_decades
from .mcmc import ChainResult, run_chain, run_chains

__all__ = [
    "forward", "forward_alpha_trace", "alpha_scale_series",
    "forward_batch", "forward_models_batch", "model_arrays",
    "forward_float", "forward_log", "forward_rescaled", "trace_operands",
    "pbd_pvalue", "pbd_pmf", "pbd_pvalue_batch",
    "pbd_pvalue_float", "pbd_pvalue_log",
    "reference_pvalue", "complement",
    "VicarConfig", "VicarResult", "run_vicar", "paper_config",
    "scaled_config", "generate_instances",
    "ColumnScore", "LoFreqResult", "run_lofreq", "reference_pvalues",
    "column_pvalues",
    "backward", "backward_batch", "backward_matrix", "forward_matrix",
    "posterior_decode", "posterior_distributions", "path_probability",
    "pbd_pmf_dft", "pbd_pvalue_dft", "dft_tail_resolution_limit",
    "baum_welch", "TrainingTrace", "improvement_decades",
    "run_chain", "run_chains", "ChainResult",
]
