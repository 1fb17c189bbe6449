"""The graceful-degradation ladder: quarantine a faulting kernel tier.

The execution plane offers the same math at two tiers — batch (the
certified mirrors) and serial (the scalar backends) — and the registry's
*capability* fallback already picks the best tier a format supports.
This module extends that into a *runtime* fallback: when a tier raises
mid-call, the caller reports it with :func:`degrade`, the tier is
quarantined **process-wide**, and every subsequent selection keeps the
next tier down.  Because the tiers are exact mirrors of one another
(bit-identical / element-exact, pinned by the equivalence suites),
degrading never changes results — it only changes speed.

The rung wired into the tree:

* ``batch`` — consulted and reported by
  :func:`repro.core.accuracy.measure_pairs`, which re-measures the
  chunk through the scalar loop.

Each first quarantine emits a ``faults.degraded.<tier>`` telemetry
event; every avoided selection afterwards counts
``faults.fallback.<tier>``.  :func:`reset_quarantine` restores all
tiers (tests; long-lived servers that want to re-probe).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from .. import telemetry as _tele

#: Tiers the degradation ladder knows, fastest first.
TIERS = ("batch", "serial")

_quarantined: Set[str] = set()


def quarantined(tier: str) -> bool:
    """Whether a tier is quarantined in this process.

    Tier-selection points call this; when it answers True they count a
    ``faults.fallback.<tier>`` and pick the next rung down.
    """
    if tier in _quarantined:
        _tele.count(f"faults.fallback.{tier}")
        return True
    return False


def quarantine(tier: str) -> None:
    """Quarantine a tier for the rest of the process (idempotent)."""
    if tier not in _quarantined:
        _quarantined.add(tier)
        _tele.event(f"faults.degraded.{tier}")


def degrade(tier: str, exc: Optional[BaseException] = None) -> None:
    """Report a runtime failure inside a tier and quarantine it.

    Called from the except-clause of a tier invocation right before
    the caller falls through to the next rung; ``exc`` is accepted for
    call-site readability (the telemetry event is the record).
    """
    quarantine(tier)


def quarantined_tiers() -> FrozenSet[str]:
    """The currently quarantined tiers (inspection/tests)."""
    return frozenset(_quarantined)


def reset_quarantine() -> None:
    """Lift every quarantine (tests; deliberate re-probing)."""
    _quarantined.clear()


__all__ = ["TIERS", "degrade", "quarantine", "quarantined",
           "quarantined_tiers", "reset_quarantine"]
