"""Execution plans: the one object that carries *how* a workload runs.

Before this module, every batch-aware app and experiment grew its own
``batch=``/``n_workers=`` kwarg pair, and the pair had to be threaded
through each call layer by hand.  An :class:`ExecPlan` replaces those
pairs: it names the batch toggle, the vectorized group width, the
worker fan-out, the sweep chunk granularity, and the result-cache
policy once, and flows unchanged from the CLI down to the kernels.

Plans travel two ways:

* **explicitly** — every plan-aware function takes ``plan=``;
* **ambiently** — ``with use_plan(plan): ...`` installs a plan for the
  dynamic extent of a block, and :func:`resolve_plan` (which every
  plan-aware entry point calls) picks it up when no explicit ``plan=``
  was passed.  This is how :mod:`repro.nd` expressions and nested app
  calls agree on one plan without threading it positionally.

The *semantics* of the plan live with the callees:

* ``batch`` — run through the vectorized kernels of
  :mod:`repro.engine.kernels` wherever the format's batch mirror is
  certified exact (see :mod:`repro.arith.registry`); ``False`` forces
  the legacy scalar loops (the baseline the throughput benchmarks
  measure against).  Batch is the *default*: the scalar path is the
  special case now.
* ``batch_size`` — optional ceiling on how many batch elements one
  vectorized kernel call may carry; larger workloads are sliced into
  ``batch_size``-wide groups.  ``None`` means one pass over everything.
* ``n_workers`` — process fan-out for the embarrassingly parallel
  stages (the Figure 3 sweep chunks, the ViCAR oracle pass).  ``None``
  stays serial in-process; ``0``/``1`` use the chunked code path
  without spawning (the deterministic reference).
* ``chunk_size`` — pair-generation granularity of the chunked sweep
  runner (:mod:`repro.engine.runner`).
* ``cache`` — experiment result-cache policy: ``"auto"`` (honor the
  caller's cache setting), ``"off"`` (neither read nor write), or
  ``"refresh"`` (recompute and overwrite).
* ``measure`` — collect wall-clock software-throughput measurements
  where an experiment supports them (fig6's software MMAPS columns).
  Runs that measure wall-clock are never served from the cache.
* ``compiled`` — accepted and ignored, so plan-schema v2 payloads keep
  parsing.  There is no separate fused tier to select: the batch path
  keeps posit's decoded plane resident through every :mod:`repro.nd`
  expression.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, fields, replace
from typing import Iterator, Optional

CACHE_POLICIES = ("auto", "off", "refresh")

#: Version of the plan's JSON wire schema (bumped when fields change
#: incompatibly).  :meth:`ExecPlan.from_json` names this version in its
#: rejection errors so a schema mismatch is diagnosable from the
#: message alone.  v2 added ``compiled`` (v1 payloads still parse:
#: absent fields keep their defaults; the field now selects nothing).
PLAN_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ExecPlan:
    """How to execute a workload: batching, fan-out, chunking, caching."""

    batch: bool = True
    batch_size: Optional[int] = None
    n_workers: Optional[int] = None
    chunk_size: int = 250
    cache: str = "auto"
    measure: bool = False
    compiled: bool = False

    def __post_init__(self):
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_workers is not None and self.n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.cache not in CACHE_POLICIES:
            raise ValueError(f"unknown cache policy {self.cache!r}; "
                             f"expected one of {CACHE_POLICIES}")

    @classmethod
    def serial(cls, **overrides) -> "ExecPlan":
        """The legacy scalar path: no vectorized kernels, no fan-out."""
        overrides.setdefault("batch", False)
        return cls(**overrides)

    def with_(self, **overrides) -> "ExecPlan":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    @property
    def parallel(self) -> bool:
        """True when the plan fans work across >1 worker process."""
        return self.n_workers is not None and self.n_workers > 1

    def group_slices(self, n: int):
        """Slices partitioning ``n`` batch elements into groups of at
        most ``batch_size`` (one slice covering everything when no
        ceiling is set)."""
        if n < 0:
            raise ValueError("n must be >= 0")
        width = self.batch_size if self.batch_size is not None else max(n, 1)
        return [slice(lo, min(lo + width, n))
                for lo in range(0, n, width)] or [slice(0, 0)]

    # ------------------------------------------------------------------
    # JSON wire form (plans travel inside repro.service requests)
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The plan as one JSON-serializable dict (all fields, plus the
        ``plan_version`` schema tag :meth:`from_json` validates)."""
        payload = {"plan_version": PLAN_SCHEMA_VERSION}
        for f in fields(self):
            payload[f.name] = getattr(self, f.name)
        return payload

    @classmethod
    def from_json(cls, data) -> "ExecPlan":
        """Rebuild a plan from :meth:`to_json` output.

        Unknown fields are *rejected* with a versioned
        :class:`ValueError` (not a bare ``TypeError``): a request built
        against a newer schema must fail with a message that names both
        schema versions instead of an opaque constructor error.  Every
        field is optional — absent fields keep their defaults, so old
        payloads keep parsing as the schema grows.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"ExecPlan JSON (schema v{PLAN_SCHEMA_VERSION}) must be an "
                f"object, got {type(data).__name__}")
        data = dict(data)
        version = data.pop("plan_version", PLAN_SCHEMA_VERSION)
        if not isinstance(version, int) or isinstance(version, bool) \
                or version < 1:
            raise ValueError(
                f"ExecPlan JSON: plan_version must be a positive integer, "
                f"got {version!r} (this build speaks schema "
                f"v{PLAN_SCHEMA_VERSION})")
        if version > PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"ExecPlan JSON schema v{version} is newer than this "
                f"build's v{PLAN_SCHEMA_VERSION}; upgrade the receiver or "
                f"send a v{PLAN_SCHEMA_VERSION} plan")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"ExecPlan JSON (schema v{PLAN_SCHEMA_VERSION}) does not "
                f"define field(s) {', '.join(map(repr, unknown))}; known "
                f"fields: {', '.join(sorted(known))}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"ExecPlan JSON (schema v{PLAN_SCHEMA_VERSION}) rejected: "
                f"{exc}") from exc

    def __repr__(self):
        """Non-default fields only: ``ExecPlan()`` is the canonical
        plan, ``ExecPlan(batch=False)`` the serial baseline."""
        shown = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                shown.append(f"{f.name}={value!r}")
        return f"ExecPlan({', '.join(shown)})"


#: The canonical plan: batch kernels on, serial, cache honored.
DEFAULT_PLAN = ExecPlan()

#: The ambient plan installed by :func:`use_plan` (``None`` outside any
#: ``with use_plan(...)`` block).  Context-variable semantics make the
#: ambient plan task- and thread-local.
_AMBIENT_PLAN: contextvars.ContextVar[Optional[ExecPlan]] = \
    contextvars.ContextVar("repro_ambient_plan", default=None)


def current_plan() -> ExecPlan:
    """The ambient :class:`ExecPlan` (innermost :func:`use_plan` block),
    or :data:`DEFAULT_PLAN` outside any block."""
    plan = _AMBIENT_PLAN.get()
    return plan if plan is not None else DEFAULT_PLAN


@contextlib.contextmanager
def use_plan(plan: ExecPlan) -> Iterator[ExecPlan]:
    """Install ``plan`` as the ambient plan for the enclosed block.

    Every plan-aware entry point called without an explicit ``plan=``
    (and every :mod:`repro.nd` array built without one) picks it up::

        with use_plan(ExecPlan(n_workers=4)):
            run_vicar(config, backends)   # fans the oracle pass out

    Blocks nest; the innermost plan wins.
    """
    if not isinstance(plan, ExecPlan):
        raise TypeError(f"plan must be an ExecPlan, got {type(plan).__name__}")
    token = _AMBIENT_PLAN.set(plan)
    try:
        yield plan
    finally:
        _AMBIENT_PLAN.reset(token)


def resolve_plan(plan: Optional[ExecPlan] = None, *,
                 where: str = "this function") -> ExecPlan:
    """Normalize an optional ``plan=`` argument into one
    :class:`ExecPlan`: an explicit plan wins, otherwise the ambient
    :func:`use_plan` plan, otherwise :data:`DEFAULT_PLAN`.

    (The PR 3 ``batch=``/``n_workers=`` deprecation shims that this
    helper used to fold in are gone; those kwargs now raise
    :class:`TypeError` like any other unknown keyword.)
    """
    if plan is None:
        return current_plan()
    if not isinstance(plan, ExecPlan):
        raise TypeError(f"{where}(): plan must be an ExecPlan, "
                        f"got {type(plan).__name__}")
    return plan


__all__ = [
    "CACHE_POLICIES",
    "DEFAULT_PLAN",
    "PLAN_SCHEMA_VERSION",
    "ExecPlan",
    "current_plan",
    "resolve_plan",
    "use_plan",
]
