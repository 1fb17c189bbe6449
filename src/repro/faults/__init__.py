"""``repro.faults`` — deterministic fault injection for the execution
plane.

The ROADMAP's north star is a service that survives real production
weather: worker processes die mid-sweep, cache entries tear, batches
poison, connections drop.  The recovery paths for all of those live in
this PR — and none of them would be trustworthy without a way to
*cause* the failures on purpose.  This package is that way: a
contextvar-scoped :class:`FaultPlan` naming **injection sites** threaded
through the stack, each firing deterministically from a seeded stream.

Sites shipped with the tree (the glossary in README "Resilience"):

=========================  ==========================================
``kernel.<name>``          entry of each wrapper in
                           :mod:`repro.engine.kernels`; only direct
                           callers reach it (the apps, experiments and
                           service do not go through these wrappers)
``batch.measure``          the batch branch of
                           :func:`repro.core.accuracy.measure_pairs`
                           (the batch -> serial rung)
``runner.chunk``           one sweep chunk in a worker process
                           (``kill`` mode exits the worker: the
                           crash-recovery path)
``cache.read``             one ``.repro-cache`` entry read (``corrupt``
                           mode truncates the bytes: the checksum path)
``service.batch``          one microbatch execution in the scheduler
                           (``delay`` mode stalls it past deadlines)
``service.connection``     one HTTP response about to be written
                           (``error`` mode drops the connection)
=========================  ==========================================

Design mirrors :mod:`repro.telemetry` exactly:

* **zero-cost when disabled** — :func:`fire` returns after one
  module-level integer check; no ContextVar touch, no allocation
  (gated < 3% on the batched forward by
  ``benchmarks/test_faults_overhead.py`` / ``BENCH_faults.json``);
* **scoped** — ``with faults.inject(plan):`` installs a plan for the
  current context; ``globally=True`` installs it process-wide (the
  chaos harness needs the server's connection tasks and executor
  threads, which do not inherit the harness coroutine's context);
* **deterministic** — every probabilistic draw comes from a blake2b
  stream over ``(seed, site, key-or-call-index)`` (the same
  process-stable idiom as :func:`repro.core.sweep.stable_chunk_seed`),
  so the same seed and plan replay the same fault schedule in any
  process, with any worker count.  Sites that retry pass an
  attempt-bearing ``key`` so a retried unit draws a fresh decision.

Triggers compose per rule: ``at``/``every`` (nth-call, on the per-site
call counter) AND ``p`` (probability, on the seeded stream).  Modes:
``error`` raises :class:`InjectedFault`; ``delay`` sleeps ``delay_s``;
``kill`` hard-exits the process where the site allows it (worker
chunks) and degrades to ``error`` elsewhere; ``corrupt`` returns the
mode string for the site to mangle its own data.

The **degradation ladder** (:mod:`repro.faults.degrade`) rides on top:
a tier that faults at runtime is quarantined for the process with a
``faults.degraded.<tier>`` telemetry event, and every later call keeps
the next tier down (batch -> serial).  Tiers are exact mirrors of each
other, so degrading never changes results.

Usage::

    from repro import faults

    plan = faults.FaultPlan([
        faults.FaultRule("runner.chunk", mode="kill", p=0.25),
        faults.FaultRule("cache.read", mode="corrupt", at=(0,)),
    ], seed=7)
    with faults.inject(plan):
        run_sweep_parallel(...)     # crashes injected AND survived
    print(plan.fired)               # the reproducible schedule
"""

from __future__ import annotations

import hashlib
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import telemetry as _tele
from .degrade import (
    degrade,
    quarantine,
    quarantined,
    quarantined_tiers,
    reset_quarantine,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "MODES",
    "active",
    "degrade",
    "fire",
    "inject",
    "quarantine",
    "quarantined",
    "quarantined_tiers",
    "reset_quarantine",
]

#: Supported rule modes.
MODES = ("error", "delay", "kill", "corrupt")

#: Worker-process exit status for ``kill`` mode (distinctive in
#: BrokenProcessPool postmortems).
KILL_EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """A failure raised on purpose by an injection site.

    Recovery layers treat it like any other runtime failure — that is
    the point — but tests can assert on :attr:`site` to pin *which*
    injection produced an observed recovery.
    """

    def __init__(self, site: str, message: Optional[str] = None):
        super().__init__(message or f"injected fault at site {site!r}")
        self.site = site


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, what, and when.

    ``site`` matches an injection-site name exactly, or by prefix when
    it ends with ``*`` (``"kernel.*"`` covers every kernel wrapper).
    ``at`` fires on those 0-based call indices of the site; ``every``
    fires on each Nth call; ``p`` draws from the plan's seeded stream.
    All given conditions must hold.  ``max_fires`` retires the rule
    after N injections (0 = never).
    """

    site: str
    mode: str = "error"
    p: float = 1.0
    at: Tuple[int, ...] = ()
    every: int = 0
    max_fires: int = 0
    delay_s: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, "
                             f"got {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.every < 0 or self.max_fires < 0 or self.delay_s < 0:
            raise ValueError("every/max_fires/delay_s must be >= 0")
        object.__setattr__(self, "at", tuple(self.at))

    def matches(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site


@dataclass
class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s plus per-process state.

    The rules and seed define the schedule; the mutable counters are
    per-process bookkeeping (pickling a plan into a sweep worker ships
    rules + seed only, and the worker's decisions stay deterministic
    because its sites pass process-independent ``key``\\ s).
    :attr:`fired` records every injection as ``(site, token, mode)``
    for schedule-determinism assertions.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    fired: List[tuple] = field(default_factory=list)

    def __init__(self, rules=(), seed: int = 0):
        self.rules = tuple(rules)
        self.seed = seed
        self._reset_state()

    def _reset_state(self) -> None:
        self.fired = []
        self._calls: Dict[str, int] = {}
        self._rule_fires: Dict[int, int] = {}

    # Ship rules + seed across process boundaries; counters restart.
    def __getstate__(self):
        return {"rules": self.rules, "seed": self.seed}

    def __setstate__(self, state):
        self.rules = state["rules"]
        self.seed = state["seed"]
        self._reset_state()

    def _unit(self, site: str, token) -> float:
        """Deterministic uniform draw in [0, 1) for one decision."""
        payload = f"{self.seed}:{site}:{token!r}"
        digest = hashlib.blake2b(payload.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    def check(self, site: str, key=None, *,
              kill_ok: bool = False) -> Optional[str]:
        """One site hit: count the call, evaluate the rules, act.

        Returns the triggered rule's mode for non-raising modes
        (``delay`` after sleeping, ``corrupt`` for the caller to apply)
        or ``None``; raises :class:`InjectedFault` for ``error`` (and
        for ``kill`` where the site does not allow a hard exit).
        """
        count = self._calls.get(site, 0)
        self._calls[site] = count + 1
        token = key if key is not None else count
        for index, rule in enumerate(self.rules):
            if not rule.matches(site):
                continue
            if rule.max_fires and \
                    self._rule_fires.get(index, 0) >= rule.max_fires:
                continue
            if rule.at and count not in rule.at:
                continue
            if rule.every and (count + 1) % rule.every != 0:
                continue
            if rule.p < 1.0 and self._unit(site, token) >= rule.p:
                continue
            self._rule_fires[index] = self._rule_fires.get(index, 0) + 1
            self.fired.append((site, token, rule.mode))
            _tele.event(f"faults.injected.{site}")
            if rule.mode == "delay":
                time.sleep(rule.delay_s)
                return "delay"
            if rule.mode == "corrupt":
                return "corrupt"
            if rule.mode == "kill" and kill_ok:
                os._exit(KILL_EXIT_CODE)
            raise InjectedFault(site)
        return None


#: The active plan for the current context (None outside any
#: ``inject()`` scope).
_plan_var: ContextVar[Optional[FaultPlan]] = ContextVar(
    "repro_fault_plan", default=None)

#: Process-wide plan stack for ``inject(..., globally=True)`` — server
#: connection tasks and executor threads do not inherit the injecting
#: coroutine's context, so the chaos harness installs globally.
_global_plans: List[FaultPlan] = []

#: Module-level fast check, exactly like ``telemetry._active_scopes``:
#: zero means no scope of either kind exists, so the disabled path is
#: one integer comparison.
_active_plans = 0


def active() -> Optional[FaultPlan]:
    """The installed :class:`FaultPlan`, or None (the fast path).

    Sites that must build a ``key`` before firing check this first so
    the disabled path allocates nothing.
    """
    if _active_plans == 0:
        return None
    plan = _plan_var.get()
    if plan is not None:
        return plan
    return _global_plans[-1] if _global_plans else None


def fire(site: str, key=None, *, kill_ok: bool = False) -> Optional[str]:
    """Hit one injection site (no-op without an installed plan).

    Returns the mode of a non-raising injection (``"delay"`` /
    ``"corrupt"``) or ``None``; raises :class:`InjectedFault` when an
    ``error`` (or inline ``kill``) rule triggers.
    """
    if _active_plans == 0:
        return None
    plan = _plan_var.get()
    if plan is None:
        plan = _global_plans[-1] if _global_plans else None
        if plan is None:
            return None
    return plan.check(site, key, kill_ok=kill_ok)


class inject:
    """Context manager installing a :class:`FaultPlan`.

    Default is contextvar-scoped (mirrors ``telemetry.collect``);
    ``globally=True`` pushes the plan on a process-wide stack instead,
    visible to every task and thread — what the service chaos harness
    needs, since asyncio connection handlers and executor threads run
    outside the installing context.
    """

    __slots__ = ("_plan", "_globally", "_token")

    def __init__(self, plan: FaultPlan, *, globally: bool = False):
        self._plan = plan
        self._globally = globally
        self._token = None

    def __enter__(self) -> FaultPlan:
        global _active_plans
        if self._globally:
            _global_plans.append(self._plan)
        else:
            self._token = _plan_var.set(self._plan)
        _active_plans += 1
        return self._plan

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _active_plans
        _active_plans -= 1
        if self._globally:
            _global_plans.remove(self._plan)
        else:
            _plan_var.reset(self._token)
        return False
