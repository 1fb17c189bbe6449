"""``repro.engine`` — vectorized batch arithmetic and parallel sweeps.

The scalar backends in :mod:`repro.arith` define the reference
semantics; this package's kernels are the *canonical implementations*
of the application recurrences wherever the format registry certifies
the batch mirror exact (the scalar app entry points are B=1 views over
them — see :mod:`repro.arith.registry` and
:mod:`repro.engine.plan`):

* :class:`BatchBinary64`, :class:`BatchLogSpace` — array backends over
  float64 values/logs, bit-identical to the scalar backends (log-space
  in matching ``sum_mode``);
* :class:`BatchPosit` — posit(N<=64, ES) on uint64 bit-pattern arrays,
  element-exact against :class:`~repro.formats.posit.PositEnv`, with one
  rounding path over a decoded plane that :mod:`repro.nd` keeps
  resident across whole expressions (each operand decodes once, codes
  are built only when a value escapes);
* :class:`BatchLNS` — LNS codes on int64 arrays, element-exact against
  :class:`~repro.formats.lns.LNSEnv` (exact memoized Gaussian log);
* :class:`BatchQuire` — exact posit accumulators as uint64 limb
  arrays, element-exact against :class:`~repro.formats.quire.Quire`;
* :mod:`~repro.engine.kernels` — forward/backward algorithms over
  batches of sequences *and* batches of models, Poisson-binomial
  p-values over batches of sites;
* :mod:`~repro.engine.runner` — the chunked multi-process sweep runner;
* :mod:`~repro.engine.plan` — :class:`ExecPlan`, the one object
  carrying batch toggle, group width, worker fan-out, chunking and
  cache policy through apps and experiments.

NumPy is a hard install requirement (setup.py).  Formats without an
array implementation (the BigFloat oracle) take the callers'
per-format scalar loops.
"""

from __future__ import annotations

from typing import Optional

from .plan import (
    CACHE_POLICIES,
    DEFAULT_PLAN,
    PLAN_SCHEMA_VERSION,
    ExecPlan,
    current_plan,
    resolve_plan,
    use_plan,
)

from .batch import (
    SUM_NARY,
    SUM_SEQUENTIAL,
    BatchBackend,
    BatchBinary64,
    BatchLogSpace,
)
from .posit_batch import BatchPosit
from .lns_batch import BatchLNS
from .quire_batch import (
    BatchQuire,
    fused_dot_product_batch,
    fused_sum_batch,
)
from .kernels import (
    backward_batch,
    forward_batch,
    forward_alpha_trace_batch,
    forward_multi_batch,
    pbd_pvalue_batch,
)
from ..core.accuracy import measure_pairs
from .runner import run_sweep_parallel


def batch_backend_for(backend, *,
                      reductions: bool = False) -> Optional["BatchBackend"]:
    """The batch backend mirroring a scalar backend, or None.

    Thin view over the format registry
    (:meth:`repro.arith.registry.FormatRegistry.batch_for`), which owns
    the pairing table.  Formats without an array implementation (the
    BigFloat oracle) return None; callers keep the scalar loop for
    those.  ``reductions=True`` additionally requires the mirror's
    ``sum`` fold to be certified exact against the scalar backend —
    what kernels with reductions (the forward algorithm) need.
    """
    from ..arith.registry import REGISTRY
    return REGISTRY.batch_for(backend, reductions=reductions)


def standard_batch_backends(underflow: str = "saturate") -> dict:
    """Batch backends for the five Figure 3 formats."""
    from ..arith.registry import REGISTRY
    return REGISTRY.standard_batch(underflow)


def plan_batch_backend(backend, plan: "ExecPlan", *,
                       certified: bool = True
                       ) -> Optional["BatchBackend"]:
    """The batch mirror an :class:`ExecPlan` selects for a kernel, or
    None for the scalar path (the plan says so, or no acceptable mirror
    exists).

    This is the one place the apps decide scalar-vs-vectorized.  With
    ``certified=True`` (the B=1 scalar views: ``forward``, ``backward``,
    ``pbd_pvalue``) the mirror must be reduction-certified, so the
    scalar entry points never change results.  Explicitly-batched APIs
    (``forward_batch``, ``forward_models_batch``, ``backward_batch``)
    pass ``certified=False``: their documented contract tolerates
    n-ary log-space's ulp-close batched LSE, and elementwise-only
    kernels (the PBD recurrence) are exact under every pairing anyway.
    """
    if not plan.batch:
        return None
    return batch_backend_for(backend, reductions=certified)


__all__ = [
    "CACHE_POLICIES",
    "DEFAULT_PLAN",
    "PLAN_SCHEMA_VERSION",
    "ExecPlan",
    "current_plan",
    "resolve_plan",
    "use_plan",
    "SUM_NARY",
    "SUM_SEQUENTIAL",
    "BatchBackend",
    "BatchBinary64",
    "BatchLNS",
    "BatchLogSpace",
    "BatchPosit",
    "BatchQuire",
    "batch_backend_for",
    "plan_batch_backend",
    "standard_batch_backends",
    "backward_batch",
    "forward_batch",
    "forward_alpha_trace_batch",
    "forward_multi_batch",
    "fused_dot_product_batch",
    "fused_sum_batch",
    "pbd_pvalue_batch",
    "measure_pairs",
    "run_sweep_parallel",
]
