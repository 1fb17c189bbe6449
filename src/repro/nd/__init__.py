"""``repro.nd`` — NumPy-style format-tagged arrays over the execution
plane.

PRs 1-3 built the plane (scalar backends, certified batch mirrors, the
format registry, :class:`~repro.engine.plan.ExecPlan`); this package is
its public front end.  A new numeric experiment is array math, not a
new kernel::

    import repro.nd as nd
    from repro.engine import ExecPlan

    with nd.use_format("posit(32,2)"), nd.use_plan(ExecPlan()):
        p = nd.asarray([0.5, 0.25, 0.125])      # rounds once, exactly
        q = 1 - p                               # scalar broadcasting
        joint = nd.sum(p * q)                   # certified reduction
        print(joint.to_floats())

Dispatch per op: ``FArray op -> registry capability lookup -> batch
kernel (canonical) or scalar fallback`` — see :mod:`repro.nd.farray`
for the representation rules and certification tiers, and
:mod:`repro.nd.context` for the ambient ``use_format``/``use_plan``
state that replaces positional ``(backend, plan)`` threading.
"""

from .context import current_backend, current_plan, use_format, use_plan
from .farray import (
    FArray,
    amax,
    argmax,
    array,
    asarray,
    broadcast_to,
    concatenate,
    dot,
    fused_dot,
    fused_sum,
    full,
    logsumexp,
    maximum,
    multiply_add,
    ones,
    ones_like,
    stack,
    sum,
    take_along_axis,
    wrap,
    zeros,
    zeros_like,
)

__all__ = [
    "FArray",
    "amax",
    "argmax",
    "array",
    "asarray",
    "broadcast_to",
    "concatenate",
    "current_backend",
    "current_plan",
    "dot",
    "fused_dot",
    "fused_sum",
    "full",
    "logsumexp",
    "maximum",
    "multiply_add",
    "ones",
    "ones_like",
    "stack",
    "sum",
    "take_along_axis",
    "use_format",
    "use_plan",
    "wrap",
    "zeros",
    "zeros_like",
]
