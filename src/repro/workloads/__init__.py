"""``repro.workloads`` — recurrence workloads over semirings over
formats.

The paper's thesis is that number-format behavior is a property of the
*recurrence*, not of one application.  This package makes the third
axis explicit: a :class:`~repro.workloads.semiring.Semiring` names the
recombination algebra (sum-product, max-product, the pair-HMM hybrid),
and every kernel is one :mod:`repro.nd` expression — so each workload
runs on every registered format, under batch or serial plans, with the
registry's exactness guarantees, and is servable through
:mod:`repro.service` as a typed request kind::

    import repro.workloads as wl

    best = wl.viterbi(hmm, "posit(64,12)")     # path + exact-max score
    likes = wl.pairhmm_batch(hap, reads, "log")
    tracks = wl.kalman_batch(zs, "lns(12,50)")

Shipped workloads: ``viterbi`` (max-product decoding with traceback —
max is exact by construction in every format), ``pairhmm`` (the GATK
HaplotypeCaller alignment kernel), ``kalman`` (the
subtraction/cancellation workload).  Accuracy-vs-oracle experiments
live in ``repro.experiments`` as
``fig_<name>_accuracy``.
"""

from .kalman import KalmanEstimate, KalmanParams, kalman_batch, sample_tracks
from .pairhmm import PairHMMParams, match_priors, pairhmm_batch
from .semiring import (
    LOG_SUM_EXP,
    MAX_PRODUCT,
    PAIRHMM_MAX,
    SEMIRINGS,
    SUM_PRODUCT,
    Semiring,
    resolve_semiring,
)
from .viterbi import ViterbiPath, viterbi, viterbi_batch

__all__ = [
    "LOG_SUM_EXP",
    "MAX_PRODUCT",
    "PAIRHMM_MAX",
    "SEMIRINGS",
    "SUM_PRODUCT",
    "Semiring",
    "ViterbiPath",
    "KalmanEstimate",
    "KalmanParams",
    "PairHMMParams",
    "kalman_batch",
    "match_priors",
    "pairhmm_batch",
    "resolve_semiring",
    "sample_tracks",
    "viterbi",
    "viterbi_batch",
]
