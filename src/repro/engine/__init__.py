"""``repro.engine`` — vectorized batch arithmetic and parallel sweeps.

The scalar backends in :mod:`repro.arith` define the reference
semantics; this package's array backends are what the application
recurrences — written once, as :mod:`repro.nd` expressions in
:mod:`repro.apps` and :mod:`repro.workloads` — run on wherever the
format registry pairs the format with a batch mirror (the scalar app
entry points are B=1 views over the same expressions — see
:mod:`repro.arith.registry` and :mod:`repro.engine.plan`):

* :class:`BatchBinary64`, :class:`BatchLogSpace` — array backends over
  float64 values/logs, bit-identical to the scalar backends (log-space
  in either ``sum_mode``);
* :class:`BatchPosit` — posit(N<=64, ES) on uint64 bit-pattern arrays,
  element-exact against :class:`~repro.formats.posit.PositEnv`, with one
  rounding path over a decoded plane that :mod:`repro.nd` keeps
  resident across whole expressions (each operand decodes once, codes
  are built only when a value escapes);
* :class:`BatchLNS` — LNS codes on int64 arrays, element-exact against
  :class:`~repro.formats.lns.LNSEnv` (exact memoized Gaussian log);
* :class:`~repro.engine.batch.ScalarPlane` — the scalar reference
  plane: the same interface over object arrays of scalar-backend
  values, looping the scalar backend per element;
* :mod:`~repro.engine.runner` — the chunked multi-process sweep runner;
* :mod:`~repro.engine.plan` — :class:`ExecPlan`, the one object
  carrying batch toggle, worker fan-out, cache policy and the
  measurement switch through apps and experiments.

NumPy is a hard install requirement (setup.py).  Formats without an
array implementation (the BigFloat oracle) and every
``ExecPlan.serial()`` run take the scalar plane (see
:func:`plan_batch_backend`), so every :mod:`repro.nd` array carries a
plane and dispatches one way.
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
    ScalarPlane,
)
from .posit_batch import BatchPosit
from .lns_batch import BatchLNS
from ..core.accuracy import measure_pairs
from .runner import run_sweep_parallel


def batch_backend_for(backend) -> Optional["BatchBackend"]:
    """The batch backend mirroring a scalar backend, or None.

    Thin view over the format registry
    (:meth:`repro.arith.registry.FormatRegistry.batch_for`), which owns
    the pairing table.  Formats without an array implementation (the
    BigFloat oracle) return None; they run on the scalar plane (see
    :func:`plan_batch_backend`).
    """
    from ..arith.registry import REGISTRY
    return REGISTRY.batch_for(backend)


def standard_batch_backends(underflow: str = "saturate") -> dict:
    """Batch backends for the five Figure 3 formats."""
    from ..arith.registry import REGISTRY
    return REGISTRY.standard_batch(underflow)


def plan_batch_backend(backend, plan: "ExecPlan") -> "BatchBackend":
    """The plane an :class:`ExecPlan` selects for a kernel: the
    format's batch mirror, or a :class:`~repro.engine.batch.ScalarPlane`
    over the scalar backend when the plan is serial or the format has
    no mirror.

    This is the one place the apps decide scalar-vs-vectorized.  Every
    mirror is exact against its scalar backend, reductions included,
    so the choice changes only the speed of a result, never its bits.
    """
    bb = batch_backend_for(backend) if plan.batch else None
    return ScalarPlane(backend) if bb is None else bb


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
    "batch_backend_for",
    "plan_batch_backend",
    "standard_batch_backends",
    "measure_pairs",
    "run_sweep_parallel",
]
