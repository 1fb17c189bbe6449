"""Batched arithmetic backends: the array counterpart of
:class:`repro.arith.Backend`.

The scalar backends pay a Python-interpreter round trip per operation —
fine for per-op accuracy measurement, hopeless for application-scale
workloads (the paper's own point about software-emulated formats).  A
:class:`BatchBackend` performs the *same* operation on whole NumPy arrays
of backend values, preserving the scalar backends' numerics:

* ``BatchBinary64`` is trivially bit-identical (the ops are the same IEEE
  ops).
* ``BatchLogSpace`` uses ``np.logaddexp`` for probability addition, which
  routes through the C library's scalar ``exp``/``log1p`` and is
  bit-identical to :func:`repro.formats.logspace.lse2` (verified by the
  equivalence tests).  N-ary accumulation offers two modes, defaulting
  to ``"nary"`` like the scalar backend: ``"nary"`` is the Equation-3
  max/exp/log dataflow, bit-identical to :func:`lse_n` (both run NumPy's
  float64 ``exp``/``log`` kernels in the same order); ``"sequential"``
  is the binary-LSE fold.  Either way the mirror equals the scalar
  backend constructed with the same mode.
* ``BatchPosit`` (see :mod:`repro.engine.posit_batch`) is element-exact
  against :class:`repro.formats.posit.PositEnv`.
* ``ScalarPlane`` is the scalar backend itself behind the same
  interface, on object arrays: the plane of serial plans and of
  formats without a mirror (the BigFloat oracle).

Values enter through :meth:`BatchBackend.from_bigfloats`, which performs
the conversion with the *scalar* backend element by element — conversions
are input-side and must be bit-identical, so they are never re-derived in
floating point.
"""

from __future__ import annotations

import abc
import functools
from typing import Iterable, List, Optional

import numpy as np

from .. import telemetry as _tele
from ..arith.backend import Backend
from ..arith.backends import Binary64Backend, LogSpaceBackend
from ..bigfloat import BigFloat, DEFAULT_PRECISION

SUM_SEQUENTIAL = "sequential"
SUM_NARY = "nary"


class BatchBackend(abc.ABC):
    """Arithmetic over arrays of values in one number representation.

    Arrays hold raw backend values (float64 probabilities, float64 logs,
    uint64 posit patterns).  All binary operations broadcast like NumPy
    ufuncs.  ``sum`` reduces along an axis with *scalar-faithful* order:
    the result of ``sum`` must equal folding the scalar backend's
    ``sum`` over the same values in the same order.
    """

    #: Short identifier, matching the scalar backend's ``name``.
    name: str = "abstract-batch"
    #: NumPy dtype of value arrays.
    dtype: np.dtype = np.dtype(np.float64)
    #: The plane this backend runs on: ``"batch"`` for the array
    #: mirrors, ``"scalar"`` for :class:`ScalarPlane`.  It names the
    #: ``nd.<op>.<format>.<plane>`` telemetry counters.
    plane = "batch"
    #: Whether :mod:`repro.nd` keeps this mirror's arrays in a decoded
    #: plane between operations.  A resident mirror provides
    #: ``decode_once``/``encode_once`` and an ``<op>_unpacked`` plane op
    #: for every op :mod:`repro.nd` dispatches — add, sub, mul, div,
    #: sum, dot, axpy, maximum, amax and argmax (see
    #: :class:`~repro.engine.posit_batch.BatchPosit`).
    resident = False

    @property
    @abc.abstractmethod
    def scalar(self) -> Backend:
        """The scalar backend whose numerics this batch backend mirrors."""

    # ------------------------------------------------------------------
    # Conversions (always via the scalar backend: input-side, exact)
    # ------------------------------------------------------------------
    def from_bigfloats(self, values: Iterable[BigFloat]) -> np.ndarray:
        return np.array([self.scalar.from_bigfloat(v) for v in values],
                        dtype=self.dtype)

    def from_floats(self, values) -> np.ndarray:
        return np.array([self.scalar.from_float(float(v)) for v in
                         np.asarray(values).ravel()],
                        dtype=self.dtype).reshape(np.asarray(values).shape)

    def to_bigfloats(self, arr: np.ndarray) -> List[BigFloat]:
        return [self.scalar.to_bigfloat(v.item()) for v in
                np.asarray(arr).ravel()]

    def item(self, arr: np.ndarray, index=()):
        """One element as a scalar-backend value (for scoring)."""
        return np.asarray(arr)[index].item()

    def from_items(self, values, shape=None) -> np.ndarray:
        """Scalar-backend values back into a code array — the inverse
        of :meth:`item` (used by :mod:`repro.nd` when an object-mode
        array re-enters the vectorized representation)."""
        arr = np.array(list(values), dtype=self.dtype)
        return arr if shape is None else arr.reshape(shape)

    # ------------------------------------------------------------------
    # Array constructors
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def zeros(self, shape) -> np.ndarray:
        """Array of the additive identity (probability 0)."""

    @abc.abstractmethod
    def ones(self, shape) -> np.ndarray:
        """Array of the multiplicative identity (probability 1)."""

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise probability addition (LSE in log-space)."""

    @abc.abstractmethod
    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise probability multiplication."""

    @abc.abstractmethod
    def is_zero(self, arr: np.ndarray) -> np.ndarray:
        """Boolean mask of exact zero probabilities."""

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise probability subtraction ``a - b``.

        Every registered mirror implements this natively (element-exact
        against the scalar backend's ``sub``); the default mirrors the
        scalar protocol and raises for exotic mirrors without one.
        """
        raise NotImplementedError(
            f"{self.name} batch backend does not support subtraction")

    def div(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise probability division ``a / b`` (see :meth:`sub`
        for the native-coverage contract)."""
        raise NotImplementedError(
            f"{self.name} batch backend does not support division")

    def recip(self, arr: np.ndarray) -> np.ndarray:
        """Elementwise reciprocal: ``div(1, x)`` through the native
        division kernel."""
        return self.div(self.ones(np.shape(arr)), arr)

    def axpy(self, a: np.ndarray, x: np.ndarray, y: np.ndarray
             ) -> np.ndarray:
        """``a*x + y`` with both intermediate roundings — exactly
        ``add(mul(a, x), y)``.  Mirrors with a decoded plane
        (:class:`~repro.engine.posit_batch.BatchPosit`) override this
        with a fused kernel that decodes each operand once."""
        return self.add(self.mul(a, x), y)

    def sum(self, arr: np.ndarray, axis: int = -1) -> np.ndarray:
        """Reduce along ``axis`` in index order, matching the scalar
        backend's ``sum`` fold (``acc = add(acc, v)`` starting from
        zero).  Subclasses override when the scalar backend overrides."""
        arr = np.asarray(arr)
        moved = np.moveaxis(arr, axis, -1)
        acc = self.zeros(moved.shape[:-1])
        for i in range(moved.shape[-1]):
            acc = self.add(acc, moved[..., i])
        return acc

    # ------------------------------------------------------------------
    # Order (the max semirings: Viterbi, pair-HMM recombination)
    # ------------------------------------------------------------------
    def _order_key(self, arr: np.ndarray) -> np.ndarray:
        """``arr``'s codes mapped onto a NumPy-comparable array whose
        ``<`` order equals the probability order — the certification
        behind :meth:`maximum`/:meth:`amax`/:meth:`argmax`.  The
        registered code spaces are monotone (float64 values, float64
        logs, LNS int64 codes with the zero sentinel at int64 min), so
        max is *exact by construction*: no decode, no rounding, no tie
        hazard.  Posit compares its decoded planes in the same order
        instead (:class:`~repro.engine.posit_batch.BatchPosit`).
        Exotic mirrors without a monotone code space leave the default,
        which raises (mirroring ``sub``/``div``)."""
        raise NotImplementedError(
            f"{self.name} batch backend does not define a monotone "
            f"code order (no max/argmax)")

    def maximum(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise larger probability (``a`` wins ties, matching
        the scalar :meth:`Backend.maximum` fold and ``np.argmax``'s
        first-index tie-break)."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        return np.where(self._order_key(b) > self._order_key(a), b, a)

    def amax(self, arr: np.ndarray, axis: int = -1) -> np.ndarray:
        """Reduce along ``axis`` to the largest probability (exact —
        no fold roundings, unlike ``sum``)."""
        arr = np.asarray(arr, dtype=self.dtype)
        moved = np.moveaxis(arr, axis, -1)
        idx = np.argmax(np.moveaxis(self._order_key(arr), axis, -1),
                        axis=-1)
        return np.take_along_axis(moved, np.expand_dims(idx, -1),
                                  axis=-1)[..., 0]

    def argmax(self, arr: np.ndarray, axis: int = -1) -> np.ndarray:
        """Index of the largest probability along ``axis`` (first index
        on ties — identical to folding the scalar backend's strict
        :meth:`Backend.gt`)."""
        arr = np.asarray(arr, dtype=self.dtype)
        return np.argmax(self._order_key(arr), axis=axis)

    def dot(self, a: np.ndarray, b: np.ndarray, axis: int = -1) -> np.ndarray:
        """Sum of elementwise products along ``axis``."""
        return self.sum(self.mul(a, b), axis=axis)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class BatchBinary64(BatchBackend):
    """Native IEEE binary64 on arrays; ops are bit-identical to the
    scalar :class:`Binary64Backend` because they are the same IEEE ops."""

    name = "binary64"
    dtype = np.dtype(np.float64)

    def __init__(self, scalar: Optional[Binary64Backend] = None):
        self._scalar = scalar if scalar is not None else Binary64Backend()

    @property
    def scalar(self) -> Backend:
        return self._scalar

    def from_bigfloats(self, values: Iterable[BigFloat]) -> np.ndarray:
        return np.array([v.to_float() for v in values], dtype=self.dtype)

    def from_floats(self, values) -> np.ndarray:
        # Rounding an exact float64 to binary64 is the identity, so the
        # vectorized cast IS the scalar ``from_float`` per element (the
        # copy keeps the FArray from aliasing caller memory).
        return np.array(values, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def ones(self, shape) -> np.ndarray:
        return np.ones(shape, dtype=self.dtype)

    def add(self, a, b) -> np.ndarray:
        return np.add(a, b)

    def mul(self, a, b) -> np.ndarray:
        return np.multiply(a, b)

    def sub(self, a, b) -> np.ndarray:
        return np.subtract(a, b)

    def div(self, a, b) -> np.ndarray:
        """Bit-identical to the scalar ``a / b``, including Python's
        division-by-zero error (any zero divisor lane raises)."""
        b = np.asarray(b, dtype=self.dtype)
        if (b == 0.0).any():
            raise ZeroDivisionError("float division by zero")
        with np.errstate(over="ignore", under="ignore"):
            # Finite/finite overflow returns inf silently, as CPython's
            # float division does.
            return np.divide(a, b)

    def is_zero(self, arr) -> np.ndarray:
        return np.asarray(arr) == 0.0

    def _order_key(self, arr) -> np.ndarray:
        # IEEE floats order by value in the NaN-free probability domain.
        return np.asarray(arr, dtype=self.dtype)


class BatchLogSpace(BatchBackend):
    """Log-space probabilities (natural logs in float64) on arrays.

    ``add`` is ``np.logaddexp`` — bit-identical to the scalar ``lse2``
    (both evaluate ``m + log1p(exp(min - m))`` through the C library).
    ``mul`` is float addition with the ``-inf`` short-circuit of
    :func:`log_mul`.  ``sum_mode`` selects the reduction dataflow and
    defaults to ``"nary"``, mirroring the scalar backend's default; both
    modes reproduce the scalar fold of the same mode bit for bit (see
    module docstring).
    """

    name = "log"
    dtype = np.dtype(np.float64)

    def __init__(self, prec: int = DEFAULT_PRECISION,
                 sum_mode: Optional[str] = None,
                 scalar: Optional[LogSpaceBackend] = None):
        if scalar is not None:
            # The mirror contract requires one reduction dataflow on
            # both sides; inherit it, and refuse a contradiction.
            if sum_mode is not None and sum_mode != scalar.sum_mode:
                raise ValueError(
                    f"sum_mode {sum_mode!r} contradicts the scalar "
                    f"backend's {scalar.sum_mode!r}")
            sum_mode = scalar.sum_mode
        elif sum_mode is None:
            sum_mode = SUM_NARY
        if sum_mode not in (SUM_SEQUENTIAL, SUM_NARY):
            raise ValueError(f"unknown sum_mode {sum_mode!r}")
        self.sum_mode = sum_mode
        if scalar is not None:
            self._scalar = scalar
        else:
            self._scalar = LogSpaceBackend(prec, sum_mode=sum_mode)

    @property
    def scalar(self) -> Backend:
        return self._scalar

    def zeros(self, shape) -> np.ndarray:
        return np.full(shape, -np.inf, dtype=self.dtype)

    def ones(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def add(self, a, b) -> np.ndarray:
        return np.logaddexp(a, b)

    def mul(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        out = a + b
        # log_mul: zero probability absorbs (avoids -inf + inf = nan; in
        # the probability domain plain addition already yields -inf).
        neg_inf = np.isneginf(a) | np.isneginf(b)
        if neg_inf.any():
            out = np.where(neg_inf, -np.inf, out)
        if _tele.current() is not None:
            # Lanes driven to -inf by the float sum itself: the log
            # representation ran out of range (probability underflow).
            n = int(np.count_nonzero(np.isneginf(out) & ~neg_inf))
            if n:
                _tele.event("log.underflow", n)
        return out

    def sub(self, a, b) -> np.ndarray:
        """Probability subtraction via log-diff-exp:
        ``a + log1p(-exp(b - a))`` for ``b < a``.

        Bit-identical to :meth:`LogSpaceBackend.sub
        <repro.arith.backends.LogSpaceBackend.sub>` by construction —
        both evaluate the interior through NumPy's ``exp``/``log1p``
        kernels, which are elementwise-consistent between scalars and
        arrays.  The scalar's domain errors are preserved: any lane
        that would produce a negative probability raises.
        """
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        zb = np.isneginf(b)
        bad = ~zb & (np.isneginf(a) | (b > a))
        if bad.any():
            raise ValueError(
                "log-space subtraction would produce a negative probability")
        with np.errstate(divide="ignore", invalid="ignore"):
            # a == b lanes: log1p(-1) = -inf, the exact-zero result.
            out = a + np.log1p(-np.exp(b - a))
        # b == -inf lanes return a unchanged (the scalar short-circuit;
        # also guards the a == b == -inf lane, where b - a is NaN).
        return np.where(zb, a, out)

    def div(self, a, b) -> np.ndarray:
        """Probability division: float subtraction of the logs, with
        the scalar's division-by-zero error (any zero divisor lane
        raises)."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if np.isneginf(b).any():
            raise ZeroDivisionError("log-space division by zero probability")
        return a - b

    def is_zero(self, arr) -> np.ndarray:
        return np.isneginf(arr)

    def _order_key(self, arr) -> np.ndarray:
        # log is strictly monotone: float log order == probability
        # order (zero = -inf sorts first), exactly the scalar gt.
        return np.asarray(arr, dtype=self.dtype)

    def sum(self, arr: np.ndarray, axis: int = -1) -> np.ndarray:
        if self.sum_mode == SUM_SEQUENTIAL:
            # The base fold *is* the sequential binary-LSE: zeros() is
            # -inf and add() is np.logaddexp.
            return super().sum(arr, axis=axis)
        arr = np.asarray(arr, dtype=self.dtype)
        moved = np.moveaxis(arr, axis, -1)
        if moved.shape[-1] == 0:
            # An empty sum is probability 0, as in the scalar fold.
            return self.zeros(moved.shape[:-1])
        # N-ary LSE (Equation 3): one max, a sequential sum of exps in
        # index order, one log -- lse_n's kernels in lse_n's order.
        m = np.max(moved, axis=-1)
        # Lanes whose max is infinite return it, as lse_n does.
        safe_m = np.where(np.isinf(m), 0.0, m)
        total = np.zeros(moved.shape[:-1], dtype=self.dtype)
        for i in range(moved.shape[-1]):
            total = total + np.exp(moved[..., i] - safe_m)
        with np.errstate(divide="ignore"):
            out = safe_m + np.log(total)
        return np.where(np.isinf(m), m, out)


class ScalarPlane(BatchBackend):
    """The scalar reference plane: a :class:`BatchBackend` over object
    arrays of the scalar backend's own values.

    Every op loops the scalar backend element by element: ``add``,
    ``mul``, ``sub``, ``div``, ``maximum`` and ``is_zero`` through
    ``np.frompyfunc``, and ``sum``/``amax``/``argmax`` fold each lane
    with the backend's own ``sum``/``maximum``/``gt`` (``dot`` and
    ``axpy`` keep the base ``sum(mul)`` and ``add(mul)``).  It is the
    plane of ``ExecPlan.serial()`` runs and of formats without an array
    mirror (the BigFloat oracle, wrappers unknown to the registry), and
    the reference every mirror is certified against.
    """

    plane = "scalar"
    dtype = np.dtype(object)

    def __init__(self, scalar: Backend):
        self._scalar = scalar
        self.name = scalar.name

    @property
    def scalar(self) -> Backend:
        return self._scalar

    def _map(self, op: str, *arrays) -> np.ndarray:
        fn = np.frompyfunc(getattr(self._scalar, op), len(arrays), 1)
        return np.asarray(fn(*arrays), dtype=object)

    @staticmethod
    def _lanes(arr, axis: int, fold, dtype=object) -> np.ndarray:
        """``fold`` over each lane along ``axis``."""
        moved = np.moveaxis(arr, axis, -1)
        out = np.empty(moved.shape[:-1], dtype=dtype)
        for idx in np.ndindex(*out.shape):
            out[idx] = fold(moved[idx])
        return out

    def to_bigfloats(self, arr: np.ndarray) -> List[BigFloat]:
        return [self._scalar.to_bigfloat(v) for v in arr.ravel()]

    def item(self, arr: np.ndarray, index=()):
        return arr[index]

    def zeros(self, shape) -> np.ndarray:
        return np.full(shape, self._scalar.zero(), dtype=object)

    def ones(self, shape) -> np.ndarray:
        return np.full(shape, self._scalar.one(), dtype=object)

    def add(self, a, b) -> np.ndarray:
        return self._map("add", a, b)

    def mul(self, a, b) -> np.ndarray:
        return self._map("mul", a, b)

    def sub(self, a, b) -> np.ndarray:
        return self._map("sub", a, b)

    def div(self, a, b) -> np.ndarray:
        return self._map("div", a, b)

    def maximum(self, a, b) -> np.ndarray:
        return self._map("maximum", a, b)

    def is_zero(self, arr) -> np.ndarray:
        return self._map("is_zero", arr).astype(bool)

    def sum(self, arr, axis: int = -1) -> np.ndarray:
        return self._lanes(arr, axis, lambda v: self._scalar.sum(list(v)))

    def amax(self, arr, axis: int = -1) -> np.ndarray:
        return self._lanes(arr, axis,
                           lambda v: functools.reduce(self._scalar.maximum, v))

    def argmax(self, arr, axis: int = -1) -> np.ndarray:
        def first_max(v):
            best = 0
            for i in range(1, len(v)):
                if self._scalar.gt(v[i], v[best]):
                    best = i
            return best
        return self._lanes(arr, axis, first_max, dtype=np.intp)
