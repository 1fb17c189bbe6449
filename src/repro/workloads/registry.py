"""The WORKLOADS table: every registered recurrence workload, by name.

What :data:`repro.arith.registry.REGISTRY` does for formats this table
does for workloads: one entry records a kernel's batch runner,
semiring and the batch/serial equivalence it certifies.  Nothing in
the package reads the table — the service kinds
(:data:`repro.service.workloads.ROW_KINDS`) and the experiments (the
``fig_<name>_accuracy`` modules) wire each kernel by hand — and the
tests pin its entries.  The
``certification`` field states *why* batch and serial plans agree:

* ``"max-exact"`` — every recombination is a max over monotone code
  arrays: no rounding at all, so decisions (scores *and* argmax
  paths) are identical across plans in every format.
* ``"reductions-certified"`` — results follow the format registry's
  reduction certification (bit-identical for binary64/posit/LNS and
  sequential log-space; ulp-close for n-ary log-space).
* ``"elementwise-exact"`` — a straight-line elementwise expression
  (no reductions), so every registered mirror is exact vs the scalar
  fold by the registry's elementwise certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from .kalman import kalman_batch
from .pairhmm import pairhmm_batch
from .semiring import MAX_PRODUCT, PAIRHMM_MAX, SUM_PRODUCT, Semiring
from .viterbi import viterbi_batch


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload: its batch kernel, characteristic
    semiring, and the batch/serial equivalence class it certifies."""

    name: str
    description: str
    semiring: Semiring
    certification: str
    runner: Callable

    def __repr__(self):
        return (f"<WorkloadSpec {self.name} semiring={self.semiring.name} "
                f"{self.certification}>")


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "viterbi",
            "Most probable HMM state path (max-product forward with "
            "back-pointer traceback).",
            MAX_PRODUCT, "max-exact", viterbi_batch),
        WorkloadSpec(
            "pairhmm",
            "Pair-HMM read-vs-haplotype alignment likelihood (the "
            "HaplotypeCaller kernel; max/sum hybrid by default).",
            PAIRHMM_MAX, "reductions-certified", pairhmm_batch),
        WorkloadSpec(
            "kalman",
            "1-D Kalman filtering in convex-combination form — the "
            "subtraction/cancellation workload.",
            SUM_PRODUCT, "elementwise-exact", kalman_batch),
    )
}


def get_workload(name: str) -> WorkloadSpec:
    """The registered spec, or a ValueError naming the known set."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r} "
                         f"(one of {sorted(WORKLOADS)})") from None


__all__ = ["WORKLOADS", "WorkloadSpec", "get_workload"]
