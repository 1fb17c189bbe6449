"""The format registry: one execution-plane entry point per number
format.

Before this module the knowledge of "which formats exist, how to build
their scalar backends, which batch backend mirrors each one, and what
each mirror guarantees" was scattered across six modules
(``standard_backends`` here, ``standard_batch_backends`` and
``batch_backend_for`` in :mod:`repro.engine`, plus ad-hoc pairing calls
inside the apps).  The registry owns all three concerns:

* **construction** — :meth:`FormatRegistry.create` builds a scalar
  backend from a format *name* (``"binary64"``, ``"log"``,
  ``"posit(64,9)"``, ``"lns(12,50)"``, ``"bigfloat256"``; posit/LNS
  names parse generically, so ``"posit(32,6)"`` works too);
* **pairing** — :meth:`FormatRegistry.batch_for` maps a scalar backend
  *instance* to the batch backend mirroring it (or ``None``), with an
  explicit ``reductions=True`` tier for callers whose kernel performs
  reductions (the forward algorithm's ``sum``) and therefore needs the
  stronger certification;
* **capabilities** — :meth:`FormatRegistry.capabilities` reports each
  format's exactness class, fused ops, and maximum datapath width, so
  callers can branch on *declared* guarantees instead of
  ``isinstance`` checks.

Exactness classes (the scalar<->batch agreement contract, enforced by
the equivalence suites):

* ``bit-identical`` — the batch mirror reproduces the scalar backend
  bit for bit (binary64; log-space elementwise ops always, reductions
  only in ``sequential`` sum mode);
* ``element-exact`` — batch values decode to exactly the scalar values
  (posit, LNS, and the quire accumulators);
* ``oracle`` — arbitrary-precision reference; no array implementation,
  every caller keeps the scalar loop.

The registry does not import :mod:`repro.engine` at module load (the
engine's batch backends import :mod:`repro.arith`): pairing factories
resolve lazily.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .backend import Backend

#: Exactness classes.
BIT_IDENTICAL = "bit-identical"
ELEMENT_EXACT = "element-exact"
ORACLE = "oracle"

#: The five formats of Figure 3, in table order.
STANDARD_FORMATS = ("binary64", "log", "posit(64,9)", "posit(64,12)",
                    "posit(64,18)")

#: The native vectorized op set every registered batch mirror provides
#: (sub/div landed with the decoded-plane/Gaussian-log kernels; axpy is
#: the fused ``a*x + y``; maximum/amax/argmax are the max-semiring order
#: ops — exact by construction on every mirror's monotone code space).
FULL_BATCH_OPS = ("add", "sub", "mul", "div", "sum", "dot", "axpy",
                  "maximum", "amax", "argmax")

_POSIT_NAME = re.compile(r"^posit\((\d+),(\d+)\)$")
_LNS_NAME = re.compile(r"^lns\((\d+),(\d+)\)$")
_BIGFLOAT_NAME = re.compile(r"^bigfloat(\d+)$")


@dataclass(frozen=True)
class FormatCapabilities:
    """Declared guarantees of one format's execution plane."""

    #: Scalar<->batch agreement class (module docstring).
    exactness: str
    #: Whether a vectorized array backend exists at all.
    batch: bool
    #: Whether the *default-constructed* backend's batch reductions
    #: reproduce the scalar ``sum`` fold exactly.  Log-space is the one
    #: format where this is mode-dependent (``sequential`` yes,
    #: ``nary`` no); instance-level certification lives in
    #: :meth:`FormatRegistry.batch_for`.
    reductions_certified: bool
    #: Fused operations beyond add/mul the format's stack offers.
    fused_ops: Tuple[str, ...] = ()
    #: Widest datapath in bits (None for the unbounded oracle).
    max_width: Optional[int] = None
    #: Elementwise ops the batch mirror implements natively (vectorized,
    #: certified against the scalar backend); empty for scalar-only
    #: formats, whose callers keep the per-element loop.
    batch_ops: Tuple[str, ...] = ()

    def __repr__(self):
        parts = [self.exactness,
                 "batched" if self.batch else "scalar-only"]
        if self.reductions_certified:
            parts.append("reductions-certified")
        if self.batch_ops:
            parts.append(f"ops={','.join(self.batch_ops)}")
        if self.fused_ops:
            parts.append(f"fused={','.join(self.fused_ops)}")
        if self.max_width is not None:
            parts.append(f"width<={self.max_width}")
        return f"<caps {' '.join(parts)}>"


@dataclass(frozen=True)
class FormatSpec:
    """One registered format: name, scalar factory, capabilities."""

    name: str
    factory: Callable[..., Backend]
    caps: FormatCapabilities
    #: Part of the standard Figure 3 comparison set?
    standard: bool = False

    def __repr__(self):
        star = " standard" if self.standard else ""
        return f"<FormatSpec {self.name}{star} {self.caps!r}>"


@dataclass(frozen=True)
class BatchPairing:
    """How to mirror one scalar-backend class onto its batch backend."""

    scalar_cls: type
    #: ``factory(backend) -> BatchBackend`` (called lazily, NumPy-side).
    factory: Callable[[Backend], Any]
    #: Per-instance certification that batch *reductions* reproduce the
    #: scalar fold exactly (elementwise ops are exact for every
    #: registered pairing).
    reductions_certified: Callable[[Backend], bool] = lambda backend: True


class FormatRegistry:
    """Registry of arithmetic formats and their batch pairings."""

    def __init__(self):
        self._specs: Dict[str, FormatSpec] = {}
        self._pairings: List[BatchPairing] = []
        # One batch mirror per scalar backend instance: mirrors carry
        # useful state (BatchLNS memoizes its exact Gaussian-log table
        # per distinct gap), so repeated pairing calls must not start
        # it cold.  Weak keys let backends be garbage collected.
        self._mirrors = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, spec: FormatSpec) -> FormatSpec:
        if spec.name in self._specs:
            raise ValueError(f"format {spec.name!r} already registered")
        self._specs[spec.name] = spec
        return spec

    def register_pairing(self, pairing: BatchPairing) -> BatchPairing:
        self._pairings.append(pairing)
        return pairing

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return list(self._specs)

    def standard_names(self) -> List[str]:
        return [n for n, s in self._specs.items() if s.standard]

    def spec(self, name: str) -> FormatSpec:
        found = self._specs.get(name) or self._parse_dynamic(name)
        if found is None:
            known = ", ".join(self._specs)
            raise KeyError(f"unknown format {name!r} (registered: {known})")
        return found

    def capabilities(self, name: str) -> FormatCapabilities:
        return self.spec(name).caps

    def describe(self) -> str:
        """The registry as an aligned text table (one row per
        registered format): exactness class, batch mirror, reduction
        certification, fused ops, datapath width.  This is what
        ``python -m repro.experiments --formats`` prints."""
        from ..report.tables import render_table
        rows = []
        for name in self.names():
            spec = self._specs[name]
            caps = spec.caps
            rows.append({
                "format": name,
                "exactness": caps.exactness,
                "batch": "yes" if caps.batch else "-",
                "batch ops": ", ".join(caps.batch_ops) or "-",
                "reductions": "certified" if caps.reductions_certified
                              else ("mode-dependent" if caps.batch else "-"),
                "fused ops": ", ".join(caps.fused_ops) or "-",
                "width": caps.max_width if caps.max_width is not None
                         else "unbounded",
                "fig3 set": "*" if spec.standard else "",
            })
        return render_table(
            rows, title="Registered formats (dynamic names — "
                        "posit(N,ES), lns(I,F), bigfloatP — parse too)")

    def __repr__(self):
        return (f"<FormatRegistry {len(self._specs)} formats, "
                f"{len(self._pairings)} batch pairings>")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def create(self, name: str, **kwargs) -> Backend:
        """Build the named format's scalar backend.

        ``kwargs`` reach the factory (``underflow=`` for posits,
        ``sum_mode=``/``prec=`` for log-space, ...).
        """
        return self.spec(name).factory(**kwargs)

    def create_pair(self, name: str, **kwargs):
        """(scalar backend, batch mirror or None) for one format name."""
        backend = self.create(name, **kwargs)
        return backend, self.batch_for(backend)

    def standard(self, underflow: str = "saturate") -> Dict[str, Backend]:
        """The five scalar backends of Figure 3, keyed by name."""
        kwargs: Dict[str, Dict] = {
            name: {"underflow": underflow} if name.startswith("posit") else {}
            for name in STANDARD_FORMATS}
        return {name: self.create(name, **kwargs[name])
                for name in STANDARD_FORMATS}

    def standard_batch(self, underflow: str = "saturate"):
        """Batch mirrors of :meth:`standard`, keyed by name."""
        return {name: self.batch_for(backend)
                for name, backend in self.standard(underflow).items()}

    # ------------------------------------------------------------------
    # Pairing
    # ------------------------------------------------------------------
    def batch_for(self, backend: Backend, *, reductions: bool = False):
        """The batch backend mirroring a scalar backend instance, or
        ``None`` when no (sufficiently exact) mirror exists.

        With ``reductions=False`` the mirror only has to be elementwise
        exact — enough for kernels built from ``add``/``mul`` alone
        (the PBD recurrence, the Figure 3 op sweep).  ``reductions=True``
        additionally requires the batch ``sum`` fold to be certified
        against the scalar one — what the forward-algorithm kernels
        need.  Log-space in the default ``nary`` sum mode passes the
        first tier but not the second (NumPy's SIMD ``exp`` is not
        libm's); the oracle passes neither.
        """
        for pairing in self._pairings:
            if isinstance(backend, pairing.scalar_cls):
                if reductions and not pairing.reductions_certified(backend):
                    return None
                try:
                    mirror = self._mirrors.get(backend)
                except TypeError:  # unhashable/unweakrefable backend
                    return pairing.factory(backend)
                if mirror is None:
                    mirror = pairing.factory(backend)
                    self._mirrors[backend] = mirror
                return mirror
        return None

    # ------------------------------------------------------------------
    # Dynamic (pattern) formats: posit(N,ES), lns(I,F), bigfloatP
    # ------------------------------------------------------------------
    def _parse_dynamic(self, name: str) -> Optional[FormatSpec]:
        m = _POSIT_NAME.match(name)
        if m:
            nbits, es = int(m.group(1)), int(m.group(2))
            return _posit_spec(nbits, es)
        m = _LNS_NAME.match(name)
        if m:
            int_bits, frac_bits = int(m.group(1)), int(m.group(2))
            return _lns_spec(int_bits, frac_bits)
        m = _BIGFLOAT_NAME.match(name)
        if m:
            return _bigfloat_spec(int(m.group(1)))
        return None


# ----------------------------------------------------------------------
# Spec factories (shared by static registration and dynamic parsing)
# ----------------------------------------------------------------------
def _posit_spec(nbits: int, es: int, standard: bool = False) -> FormatSpec:
    def factory(underflow: str = "saturate"):
        from ..formats.posit import PositEnv
        from .backends import PositBackend
        return PositBackend(PositEnv(nbits, es, underflow))

    return FormatSpec(
        name=f"posit({nbits},{es})",
        factory=factory,
        caps=FormatCapabilities(
            exactness=ELEMENT_EXACT, batch=True, reductions_certified=True,
            fused_ops=("quire_fused_sum", "quire_fused_dot"),
            max_width=nbits, batch_ops=FULL_BATCH_OPS),
        standard=standard)


def _lns_spec(int_bits: int, frac_bits: int) -> FormatSpec:
    def factory():
        from ..formats.lns import LNSEnv
        from .backends import LNSBackend
        return LNSBackend(LNSEnv(int_bits, frac_bits))

    return FormatSpec(
        name=f"lns({int_bits},{frac_bits})",
        factory=factory,
        caps=FormatCapabilities(
            exactness=ELEMENT_EXACT, batch=True, reductions_certified=True,
            fused_ops=("exact_mul",),
            # sign + zero flag + integer + fraction bits of the code.
            max_width=2 + int_bits + frac_bits,
            batch_ops=FULL_BATCH_OPS),
        standard=False)


def _bigfloat_spec(prec: int) -> FormatSpec:
    def factory():
        from .backends import BigFloatBackend
        return BigFloatBackend(prec)

    return FormatSpec(
        name=f"bigfloat{prec}",
        factory=factory,
        caps=FormatCapabilities(
            exactness=ORACLE, batch=False, reductions_certified=False,
            fused_ops=(), max_width=None),
        standard=False)


def _binary64_spec() -> FormatSpec:
    def factory():
        from .backends import Binary64Backend
        return Binary64Backend()

    return FormatSpec(
        name="binary64",
        factory=factory,
        caps=FormatCapabilities(
            exactness=BIT_IDENTICAL, batch=True, reductions_certified=True,
            fused_ops=(), max_width=64, batch_ops=FULL_BATCH_OPS),
        standard=True)


def _log_spec() -> FormatSpec:
    def factory(**kwargs):
        from .backends import LogSpaceBackend
        return LogSpaceBackend(**kwargs)

    return FormatSpec(
        name="log",
        factory=factory,
        caps=FormatCapabilities(
            exactness=BIT_IDENTICAL, batch=True,
            # The default backend sums in "nary" mode, whose batch
            # reduction is ulp-close, not bit-exact; sequential-mode
            # instances are certified per-instance in batch_for().
            reductions_certified=False,
            fused_ops=("lse_nary",), max_width=64,
            batch_ops=FULL_BATCH_OPS),
        standard=True)


def _default_registry() -> FormatRegistry:
    registry = FormatRegistry()
    registry.register(_binary64_spec())
    registry.register(_log_spec())
    for es in (9, 12, 18):
        registry.register(_posit_spec(64, es, standard=True))
    registry.register(_lns_spec(12, 50))
    registry.register(_bigfloat_spec(256))

    from .backends import (
        Binary64Backend,
        LNSBackend,
        LogSpaceBackend,
        PositBackend,
    )

    def _batch_binary64(backend):
        from ..engine.batch import BatchBinary64
        return BatchBinary64(scalar=backend)

    def _batch_log(backend):
        from ..engine.batch import BatchLogSpace
        return BatchLogSpace(scalar=backend)

    def _batch_posit(backend):
        from ..engine.posit_batch import BatchPosit
        return BatchPosit(backend.env, scalar=backend)

    def _batch_lns(backend):
        from ..engine.lns_batch import BatchLNS
        return BatchLNS(scalar=backend)

    registry.register_pairing(BatchPairing(Binary64Backend, _batch_binary64))
    registry.register_pairing(BatchPairing(
        LogSpaceBackend, _batch_log,
        reductions_certified=lambda b: b.sum_mode == "sequential"))
    registry.register_pairing(BatchPairing(PositBackend, _batch_posit))
    registry.register_pairing(BatchPairing(LNSBackend, _batch_lns))
    return registry


#: The process-wide registry every app and experiment consults.
REGISTRY = _default_registry()


__all__ = [
    "BIT_IDENTICAL",
    "FULL_BATCH_OPS",
    "ELEMENT_EXACT",
    "ORACLE",
    "STANDARD_FORMATS",
    "BatchPairing",
    "FormatCapabilities",
    "FormatRegistry",
    "FormatSpec",
    "REGISTRY",
]
