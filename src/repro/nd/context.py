"""Ambient execution context for :mod:`repro.nd`.

Two context managers remove the ``(backend, plan)`` pair that every
pre-``nd`` call site had to thread positionally:

* :func:`use_format` installs an ambient *format* (a scalar
  :class:`~repro.arith.Backend`, built from a registry name on the
  fly), picked up by :func:`repro.nd.asarray` and friends when no
  explicit ``format=`` is passed;
* :func:`use_plan` (re-exported from :mod:`repro.engine.plan`)
  installs an ambient :class:`~repro.engine.plan.ExecPlan`, picked up
  by *every* plan-aware entry point — ``nd`` constructors and the app
  layer alike — when no explicit ``plan=`` is passed.

Both use :mod:`contextvars`, so the ambient state is task- and
thread-local and nests (innermost wins)::

    with nd.use_format("posit(32,2)"), nd.use_plan(ExecPlan(n_workers=4)):
        x = nd.asarray([0.5, 0.25, 0.125])
        total = nd.sum(x * x)
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from typing import Iterator, Optional, Union

from ..arith.backend import Backend
from ..arith.registry import REGISTRY
from ..engine.plan import current_plan, use_plan  # noqa: F401  (re-export)

_AMBIENT_FORMAT: contextvars.ContextVar[Optional[Backend]] = \
    contextvars.ContextVar("repro_ambient_format", default=None)


def current_backend() -> Optional[Backend]:
    """The ambient scalar backend (innermost :func:`use_format` block),
    or ``None`` outside any block."""
    return _AMBIENT_FORMAT.get()


@contextlib.contextmanager
def use_format(format: Union[str, Backend], **kwargs) -> Iterator[Backend]:
    """Install a format as the ambient default for the enclosed block.

    ``format`` is a registry name (``"binary64"``, ``"log"``,
    ``"posit(32,2)"``, ``"lns(12,50)"``, ``"bigfloat256"``; ``kwargs``
    reach the factory, e.g. ``sum_mode="sequential"`` for log-space) or
    an already-built scalar :class:`~repro.arith.Backend`.  Yields the
    backend so ``with nd.use_format("log") as backend: ...`` works.
    """
    backend = _resolve_format(format, **kwargs)
    token = _AMBIENT_FORMAT.set(backend)
    try:
        yield backend
    finally:
        _AMBIENT_FORMAT.reset(token)


def _resolve_format(format: Union[str, Backend, None] = None,
                    **kwargs) -> Backend:
    """One scalar backend from a name / instance / the ambient context."""
    if format is None:
        backend = current_backend()
        if backend is None:
            raise TypeError(
                "no format given and no ambient format installed; pass "
                "format=<name or Backend> or enter `with nd.use_format(...)`")
        if kwargs:
            raise TypeError("format kwargs require an explicit format name")
        return backend
    if isinstance(format, Backend):
        if kwargs:
            raise TypeError("format kwargs require a format *name*, not an "
                            "already-built backend")
        return format
    if isinstance(format, str):
        if not kwargs:
            return _default_backend(format)
        return REGISTRY.create(format, **kwargs)
    raise TypeError(f"format must be a registry name or Backend, "
                    f"got {type(format).__name__}")


@functools.lru_cache(maxsize=64)
def _default_backend(name: str) -> Backend:
    """One shared default-constructed backend per format name.

    Repeated ``nd.asarray(values, "lns(12,50)")`` calls must reuse one
    backend instance so the registry's per-backend mirror memoization
    holds (BatchLNS's exact Gaussian-log table in particular survives
    across calls instead of restarting cold).  Kwarg-customized
    backends are deliberately not cached — their numerics differ.
    """
    return REGISTRY.create(name)


__all__ = [
    "current_backend",
    "current_plan",
    "use_format",
    "use_plan",
]
