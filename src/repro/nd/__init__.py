"""``repro.nd`` — NumPy-style format-tagged arrays over the execution
plane.

The plane is the scalar backends, their certified batch mirrors, the
format registry and :class:`~repro.engine.plan.ExecPlan`; this package
is its public front end.  A new numeric experiment is array math, not a
new kernel::

    import repro.nd as nd
    from repro.engine import ExecPlan

    with nd.use_format("posit(32,2)"), nd.use_plan(ExecPlan()):
        p = nd.asarray([0.5, 0.25, 0.125])      # rounds once, exactly
        q = 1 - p                               # scalar broadcasting
        joint = nd.sum(p * q)                   # certified reduction
        print(joint.to_floats())

Dispatch per op is one path: ``FArray op -> the array's plane``, the
format's batch mirror or, for the BigFloat oracle and serial plans,
the :class:`~repro.engine.batch.ScalarPlane` that loops the scalar
backend — chosen once, when the array is built, by
:func:`repro.engine.plan_batch_backend`.  See :mod:`repro.nd.farray`
for the representation rules, and
:mod:`repro.nd.context` for the ambient ``use_format``/``use_plan``
state that replaces positional ``(backend, plan)`` threading.
"""

from .context import current_backend, current_plan, use_format, use_plan
from .farray import (
    FArray,
    asarray,
    broadcast_to,
    concatenate,
    dot,
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
    "asarray",
    "broadcast_to",
    "concatenate",
    "current_backend",
    "current_plan",
    "dot",
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
