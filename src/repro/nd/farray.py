"""``FArray``: a format-tagged array over the registry + ExecPlan plane.

An :class:`FArray` is the NumPy-style front end of the execution
plane: it pairs a *format* (binary64, log-space, posit, LNS, the
BigFloat oracle) with an array of that format's values and the
:class:`~repro.engine.batch.BatchBackend` the plan selects for it
(:func:`repro.engine.plan_batch_backend`), and sends every operation
to that backend — one dispatch path:

* **batch plane** — when the active :class:`~repro.engine.plan.ExecPlan`
  has ``batch=True`` and the registry pairs the format with a batch
  mirror, the array holds the mirror's *packed code representation*
  (float64 values/logs, int64 LNS codes, uint64 posit patterns) and
  ``+``/``*``/reductions run through the mirror's certified array
  kernels.  Posit arrays also carry the mirror's decoded planes
  between operations (see :class:`FArray`);
* **scalar plane** — otherwise (the BigFloat oracle, a serial plan),
  the backend is a :class:`~repro.engine.batch.ScalarPlane`: the array
  holds scalar backend values in an object array and every op loops
  through the scalar backend — the reference.

The two planes hold *the same values* (that is the registry's
certification), so an expression's result never depends on which one
ran — only its speed does.  Every op counts its result elements under
``nd.<op>.<format>.<plane>``.

Values are immutable by convention: no ``__setitem__``; build new
arrays with expressions, ``concatenate``, or ``where`` you write
yourself from masks.
"""

from __future__ import annotations

import numbers
from typing import List, Optional, Sequence

import numpy as np

from .. import telemetry as _tele
from ..arith.backend import Backend
from ..bigfloat import BigFloat
from ..engine import plan_batch_backend
from ..engine.batch import ScalarPlane
from ..engine.plan import ExecPlan, resolve_plan
from .context import _resolve_format

__all__ = [
    "FArray",
    "asarray",
    "broadcast_to",
    "concatenate",
    "dot",
    "maximum",
    "multiply_add",
    "ones",
    "ones_like",
    "stack",
    "sum",
    "take_along_axis",
    "wrap",
    "zeros",
    "zeros_like",
]


def _tally_nd(op: str, fmt: str, plane: str, n: int) -> None:
    """Count ``n`` result elements under ``nd.{op}.{fmt}.{plane}``.

    Callers guard with ``telemetry.current() is not None`` so the
    disabled path never builds the key string."""
    _tele.count(f"nd.{op}.{fmt}.{plane}", int(n))


def _same_numerics(a: Backend, b: Backend) -> bool:
    """Whether two scalar backends define the same arithmetic.

    Name equality is not enough: log-space's ``sum_mode`` changes the
    reduction fold and posit's ``underflow`` mode changes rounding,
    neither appearing in the format name; and two backends of one name
    must also be the same implementation class.  Backends passing this
    test may share arrays freely (their code spaces and op results
    coincide).
    """
    if a is b:
        return True
    return (type(a) is type(b) and a.name == b.name
            and getattr(a, "sum_mode", None) == getattr(b, "sum_mode", None)
            and getattr(getattr(a, "env", None), "underflow", None)
            == getattr(getattr(b, "env", None), "underflow", None))


def _exact(value) -> BigFloat:
    """One input as an exact BigFloat (the paper's input-side
    methodology: operands are exact, rounding happens on format entry)."""
    if isinstance(value, BigFloat):
        return value
    if isinstance(value, numbers.Integral):
        return BigFloat.from_int(int(value))
    if isinstance(value, numbers.Real):
        return BigFloat.from_float(float(value))
    raise TypeError(f"cannot convert {type(value).__name__} to a "
                    f"probability value")


def _index(p: np.ndarray, key) -> np.ndarray:
    """``p[key]``, keeping a full index as a 0-d array."""
    out = p[key]
    if not isinstance(out, np.ndarray):
        out = np.asarray(out, dtype=p.dtype)
    return out


class FArray:
    """A format-tagged N-dimensional array of probabilities.

    Build with :func:`asarray` / :func:`zeros` / :func:`ones` /
    :func:`wrap`; combine with ``+ - * / @``, slicing, and the
    reductions in this module.  ``item``/``tolist``/``to_bigfloats``
    exit back to scalar-backend values.

    Every array carries the plane its plan selected (``_bb``: a batch
    mirror or the :class:`~repro.engine.batch.ScalarPlane`), and every
    op goes to it.  On a *resident* mirror (posit) an array holds
    packed codes, decoded planes, or both: the planes are decoded at
    most once and cached, views and gathers map the planes only, every
    op (``+ - * / @``, ``dot``, ``sum``, ``multiply_add``,
    ``maximum``, ``max``, ``argmax``) runs on the planes and returns
    planes only, and codes are assembled (once) only when a value
    escapes — :attr:`data`, :meth:`item`, :meth:`to_bigfloats` and the
    service wire.  Either form holds the same values, so only the speed
    depends on which one an array carries.
    """

    __slots__ = ("_bb", "_codes", "_planes")
    #: NumPy must not try to handle ``ndarray <op> FArray`` itself.
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, data: Optional[np.ndarray], bb, planes=None):
        self._bb = bb
        self._codes = data
        self._planes = planes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def format(self) -> str:
        """The registry format name this array is tagged with."""
        return self._bb.scalar.name

    @property
    def backend(self) -> Backend:
        """The scalar backend defining this array's numerics."""
        return self._bb.scalar

    @property
    def batch(self) -> bool:
        """True on a batch mirror's plane (packed codes); False on the
        scalar plane."""
        return self._bb.plane == "batch"

    @property
    def data(self) -> np.ndarray:
        """The raw storage: packed codes (batch plane) or scalar
        backend values in an object array (scalar plane)."""
        return self._data

    @property
    def _data(self) -> np.ndarray:
        """The codes, built from the planes at most once."""
        if self._codes is None:
            self._codes = self._bb.encode_once(self._planes)
        return self._codes

    def _decoded(self):
        """The decoded planes (resident mirrors), decoded at most once."""
        if self._planes is None:
            self._planes = self._bb.decode_once(self._codes)
        return self._planes

    @property
    def shape(self):
        if self._codes is None:
            return self._planes.shape
        return self._codes.shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of unsized object")
        return self.shape[0]

    def __repr__(self):
        return f"<FArray {self.format} shape={self.shape} {self._bb.plane}>"

    # ------------------------------------------------------------------
    # Shape manipulation (never touches values)
    # ------------------------------------------------------------------
    def _view(self, fn) -> "FArray":
        """``fn`` applied to the storage: on a resident mirror to the
        planes only — decoded first (once), so every view of an array
        stays in the plane, and its codes are built only if its value
        escapes — else to the codes."""
        if self._bb.resident:
            return FArray(None, self._bb, self._decoded().map(fn))
        return FArray(fn(self._codes), self._bb)

    def __getitem__(self, key) -> "FArray":
        if isinstance(key, FArray):
            key = key._data
        return self._view(lambda p: _index(p, key))

    @property
    def T(self) -> "FArray":
        return self._view(lambda p: p.T)

    def reshape(self, *shape) -> "FArray":
        return self._view(lambda p: p.reshape(*shape))

    def ravel(self) -> "FArray":
        return self._view(np.ravel)

    # ------------------------------------------------------------------
    # Exits (scalar values / exact values / floats)
    # ------------------------------------------------------------------
    def item(self, index=()):
        """One element as a scalar-backend value (for scoring, ratio
        tests, ``backend.to_bigfloat`` ...)."""
        return self._bb.item(self._data, index)

    def tolist(self):
        """Nested lists of scalar-backend values (row-major)."""
        out = np.empty(self.size, dtype=object)
        out[:] = self._items_flat()
        return out.reshape(self.shape).tolist()

    def to_bigfloats(self) -> List[BigFloat]:
        """Exact (or correctly rounded) values, flattened row-major."""
        return self._bb.to_bigfloats(self._data)

    def to_floats(self) -> np.ndarray:
        """Lossy float64 readout (underflows below 2**-1074 — which is
        often the point).  Raises where an element has no value (NaR)."""
        return np.array([bf.to_float() for bf in self.to_bigfloats()],
                        dtype=np.float64).reshape(self.shape)

    def is_zero(self) -> np.ndarray:
        """Boolean mask of exactly-zero probabilities: a fresh mask off
        the zero plane when there are planes (NaR overrides a zero flag)."""
        u = self._planes
        if u is not None:
            return np.asarray(u.zero & ~u.nar)
        return np.asarray(self._bb.is_zero(self._data), dtype=bool)

    # ------------------------------------------------------------------
    # Representation plumbing
    # ------------------------------------------------------------------
    def _items_flat(self) -> list:
        """Every element as a scalar-backend value, row-major."""
        flat = self._data.ravel()
        return [self._bb.item(flat, i) for i in range(flat.size)]

    def _as_mode(self, bb) -> "FArray":
        """This array on plane ``bb`` (same format, so values are
        preserved exactly).  Two planes of one kind share the code
        space (and the decoded-plane layout), so only a move between
        the batch and the scalar plane re-encodes."""
        if bb.plane == self._bb.plane:
            return self
        return FArray(bb.from_items(self._items_flat(), self.shape), bb)

    def _coerce(self, other) -> Optional["FArray"]:
        """``other`` as an FArray in this array's format and
        representation (None when the type is not coercible)."""
        if isinstance(other, FArray):
            if not _same_numerics(self.backend, other.backend):
                raise TypeError(
                    f"format mismatch: {self.format} vs {other.format} "
                    f"(or differing backend modes, e.g. log sum_mode); "
                    f"convert explicitly with astype()")
            return other._as_mode(self._bb)
        if isinstance(other, (BigFloat, numbers.Number)):
            return FArray(self._bb.from_bigfloats([_exact(other)])
                          .reshape(()), self._bb)
        if isinstance(other, (list, tuple, np.ndarray)):
            return _convert(other, self._bb)
        return None

    # ------------------------------------------------------------------
    # Arithmetic (one dispatch: the array's plane)
    # ------------------------------------------------------------------
    def _run(self, op: str, *operands: "FArray", **kw):
        """Mirror op ``op`` over ``operands`` (this array's format and
        plane): ``<op>_unpacked`` on the decoded planes when the mirror
        keeps them resident, else ``op`` on the stored codes or values.

        Every plane implements the full op set (``BatchBackend.sub``/
        ``div`` raise for exotic mirrors without one — there is no
        silent per-element fallback)."""
        bb = self._bb
        if bb.resident:
            return getattr(bb, op + "_unpacked")(
                *(x._decoded() for x in operands), **kw)
        return getattr(bb, op)(*(x._data for x in operands), **kw)

    def _plane_op(self, op: str, *operands: "FArray", **kw) -> "FArray":
        """:meth:`_run` as an array of this format and plane."""
        bb = self._bb
        out = self._run(op, *operands, **kw)
        out = FArray(None, bb, out) if bb.resident \
            else FArray(np.asarray(out), bb)
        if _tele.current() is not None:
            _tally_nd(op, self.format, bb.plane, out.size)
        return out

    def _binary(self, other, op: str, reflected: bool = False):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = (rhs, self) if reflected else (self, rhs)
        return self._plane_op(op, a, b)

    def __add__(self, other):
        return self._binary(other, "add")

    def __radd__(self, other):
        return self._binary(other, "add", reflected=True)

    def __mul__(self, other):
        return self._binary(other, "mul")

    def __rmul__(self, other):
        return self._binary(other, "mul", reflected=True)

    def __sub__(self, other):
        return self._binary(other, "sub")

    def __rsub__(self, other):
        return self._binary(other, "sub", reflected=True)

    def __truediv__(self, other):
        return self._binary(other, "div")

    def __rtruediv__(self, other):
        return self._binary(other, "div", reflected=True)

    def maximum(self, other) -> "FArray":
        """Elementwise larger probability (first operand on ties).

        Exact by construction on every plane: the batch mirrors compare
        monotone code arrays (float values/logs, LNS codes) or, for
        posit, the decoded planes in the order of its two's-complement
        patterns; the scalar plane uses the backend's
        representation-native ``gt`` — the same total order, so the max
        semirings decide identically on both planes.
        """
        out = self._binary(other, "maximum")
        if out is NotImplemented:
            raise TypeError(f"cannot take maximum of an FArray and "
                            f"{type(other).__name__}")
        return out

    def __matmul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _matmul(self, rhs)

    def __rmatmul__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return _matmul(lhs, self)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None) -> "FArray":
        """Reduce along ``axis`` (or everything) in index order with the
        format's ``sum`` fold — vectorized through the batch mirror,
        the scalar backend's fold per lane on the scalar plane (the
        same bits either way).
        """
        if axis is None:
            return self.ravel().sum(axis=0)
        return self._plane_op("sum", self, axis=axis)

    def dot(self, other, axis: int = -1) -> "FArray":
        """Sum of elementwise products along ``axis`` (mul then the
        ``sum`` fold — the forward algorithm's inner kernel).

        The posit mirror runs it on the decoded planes with every
        intermediate still rounded op-for-op like the fold.
        """
        rhs = self._coerce(other)
        if rhs is None:
            raise TypeError(f"cannot dot {type(other).__name__} with an "
                            f"FArray")
        return self._plane_op("dot", self, rhs, axis=axis)

    def max(self, axis: Optional[int] = None) -> "FArray":
        """Largest probability along ``axis`` (or of everything).

        The max fold is associative and exact in every format (no
        rounding — one of the inputs *is* the result), so the batch and
        scalar planes always agree (ties resolve to the first index, as
        :meth:`argmax` reports).
        """
        if axis is None:
            return self.ravel().max(axis=0)
        return self._plane_op("amax", self, axis=axis)

    def argmax(self, axis: int = -1) -> np.ndarray:
        """Index of the largest probability along ``axis`` (first index
        on ties — ``np.argmax``'s rule), as a plain integer ndarray.

        This is the Viterbi back-pointer primitive; the batch and scalar
        planes decide identically (same total order, same tie-break),
        which is what makes traceback paths plan-invariant.
        """
        out = np.asarray(self._run("argmax", self, axis=axis),
                         dtype=np.intp)
        if _tele.current() is not None:
            _tally_nd("argmax", self.format, self._bb.plane, out.size)
        return out

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def astype(self, format, *, plan: Optional[ExecPlan] = None,
               **format_kwargs) -> "FArray":
        """This array's values rounded into another registry format.

        Conversion is exact on the way out (``to_bigfloat``) and
        correctly rounded on the way in (``from_bigfloat``) — the same
        input-side methodology every app uses, so ``astype`` composes
        with the registry's exactness classes: converting *into* the
        oracle is exact, converting between finite formats rounds once.
        """
        target = _resolve_format(format, **format_kwargs)
        plan = resolve_plan(plan, where="FArray.astype")
        bb = plan_batch_backend(target, plan)
        if _same_numerics(target, self.backend):
            return self._as_mode(bb)
        if _tele.current() is not None:
            _tally_nd("astype", f"{self.format}->{target.name}", bb.plane,
                      self.size)
        return _from_bigfloats(self.to_bigfloats(), self.shape, bb)


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def _from_bigfloats(values: Sequence[BigFloat], shape, bb) -> FArray:
    return FArray(bb.from_bigfloats(values).reshape(shape), bb)


def _convert(values, bb) -> FArray:
    """Nested numbers/BigFloats into an FArray on plane ``bb``."""
    if isinstance(values, np.ndarray) \
            and np.issubdtype(values.dtype, np.floating) \
            and np.isfinite(values).all():
        # Finite float tensors skip the per-element BigFloat round-trip:
        # ``from_floats`` is scalar ``from_float`` per element (itself
        # defined as ``from_bigfloat(BigFloat.from_float(x))``), so the
        # result is bit-identical by construction — pinned by
        # tests/test_nd.py against the exact path.  Non-finite entries
        # fall through so they raise the same error as scalar inputs.
        return FArray(bb.from_floats(values), bb)
    src = np.asarray(values, dtype=object)
    flat = [_exact(v) for v in src.ravel()]
    return _from_bigfloats(flat, src.shape, bb)


def asarray(values, format=None, *, plan: Optional[ExecPlan] = None,
            **format_kwargs) -> FArray:
    """``values`` (numbers, BigFloats, nested lists, NumPy arrays, or
    an FArray) as an :class:`FArray` in the given format.

    ``format`` is a registry name or scalar backend; omitted, the
    ambient :func:`~repro.nd.use_format` format applies.  ``plan``
    (default: the ambient :func:`~repro.nd.use_plan` plan) selects the
    plane — see the module docstring.  Conversion is
    input-side and exact: every element becomes an exact BigFloat
    first, then rounds once into the format.
    """
    backend = _resolve_format(format, **format_kwargs)
    plan = resolve_plan(plan, where="nd.asarray")
    bb = plan_batch_backend(backend, plan)
    if isinstance(values, FArray):
        if _same_numerics(values.backend, backend):
            return values._as_mode(bb)
        return values.astype(backend, plan=plan)
    return _convert(values, bb)


def wrap(data, format=None, *, bb=None) -> FArray:
    """An :class:`FArray` over *already-encoded* storage (no value
    conversion): ``bb`` + a packed code array for its plane, or a
    format + an object array of scalar backend values (the scalar
    plane).  This is the kernel-facing constructor; most callers want
    :func:`asarray`.
    """
    if bb is None:
        bb = ScalarPlane(_resolve_format(format))
    return FArray(np.asarray(data, dtype=bb.dtype), bb)


def _filled(shape, method: str, format, plan, format_kwargs) -> FArray:
    """The shared identity-array body: ``method`` is "zeros"/"ones"."""
    backend = _resolve_format(format, **format_kwargs)
    bb = plan_batch_backend(backend, resolve_plan(plan, where=f"nd.{method}"))
    return FArray(getattr(bb, method)(shape), bb)


def zeros(shape, format=None, *, plan: Optional[ExecPlan] = None,
          **format_kwargs) -> FArray:
    """An array of the additive identity (probability 0)."""
    return _filled(shape, "zeros", format, plan, format_kwargs)


def ones(shape, format=None, *, plan: Optional[ExecPlan] = None,
         **format_kwargs) -> FArray:
    """An array of the multiplicative identity (probability 1)."""
    return _filled(shape, "ones", format, plan, format_kwargs)


def _like(x: FArray, method: str, shape) -> FArray:
    shape = x.shape if shape is None else shape
    return FArray(getattr(x._bb, method)(shape), x._bb)


def zeros_like(x: FArray, shape=None) -> FArray:
    """Probability-0 array in ``x``'s format *and* plane."""
    return _like(x, "zeros", shape)


def ones_like(x: FArray, shape=None) -> FArray:
    """Probability-1 array in ``x``'s format *and* plane."""
    return _like(x, "ones", shape)


# ----------------------------------------------------------------------
# Structural ops
# ----------------------------------------------------------------------
def _common(arrays: Sequence[FArray]) -> Sequence[FArray]:
    if not arrays:
        raise ValueError("need at least one FArray")
    first = arrays[0]
    if not isinstance(first, FArray):
        raise TypeError("nd structural ops take FArrays; build with "
                        "nd.asarray first")
    return [first] + [first._coerce(a) for a in arrays[1:]]


def _join(arrays: Sequence[FArray], fn) -> FArray:
    """``fn`` over the arrays' codes when all carry codes, and over
    their planes (decoding the rest, once each) when any carries
    planes."""
    arrays = _common(arrays)
    first = arrays[0]
    codes = planes = None
    if all(a._codes is not None for a in arrays):
        codes = fn(*(a._codes for a in arrays))
    if first._bb.resident and any(a._planes is not None for a in arrays):
        planes = first._decoded().map(
            fn, *(a._decoded() for a in arrays[1:]))
    return FArray(codes, first._bb, planes)


def concatenate(arrays: Sequence[FArray], axis: int = 0) -> FArray:
    return _join(arrays, lambda *ps: np.concatenate(ps, axis=axis))


def stack(arrays: Sequence[FArray], axis: int = 0) -> FArray:
    return _join(arrays, lambda *ps: np.stack(ps, axis=axis))


def broadcast_to(x: FArray, shape) -> FArray:
    return x._view(lambda p: np.broadcast_to(p, shape))


def take_along_axis(x: FArray, indices: np.ndarray, axis: int) -> FArray:
    indices = np.asarray(indices)
    return x._view(lambda p: np.take_along_axis(p, indices, axis=axis))


# ----------------------------------------------------------------------
# Reductions (module-level spellings)
# ----------------------------------------------------------------------
def sum(x: FArray, axis: Optional[int] = None) -> FArray:  # noqa: A001
    """Index-order probability sum along ``axis`` (see
    :meth:`FArray.sum`)."""
    return x.sum(axis=axis)


def dot(x: FArray, y, axis: int = -1) -> FArray:
    """Sum of elementwise products along ``axis``."""
    return x.dot(y, axis=axis)


def maximum(x: FArray, y) -> FArray:
    """Elementwise larger probability (see :meth:`FArray.maximum`)."""
    return x.maximum(y)


def multiply_add(x: FArray, y, z) -> FArray:
    """Fused ``x*y + z`` — identical results to the spelled-out
    expression (both intermediate roundings preserved), routed through
    the batch mirror's ``axpy`` (the PBD recurrence's inner step)."""
    ry = x._coerce(y)
    rz = x._coerce(z)
    if ry is None or rz is None:
        raise TypeError("multiply_add operands must be coercible to "
                        "the FArray's format")
    return x._plane_op("axpy", x, ry, rz)


def _matmul(a: FArray, b: FArray) -> FArray:
    """NumPy ``@`` semantics built from mul + the ``sum`` fold (so the
    contraction is certified exactly like every other reduction)."""
    if a.ndim == 0 or b.ndim == 0:
        raise ValueError("matmul needs at least 1-d operands")
    if a.ndim == 1 and b.ndim == 1:
        return (a * b).sum(axis=0)
    if b.ndim == 1:
        return (a * b).sum(axis=-1)
    if a.ndim == 1:
        return (a[:, None] * b).sum(axis=-2)
    return (a[..., :, None] * b[..., None, :, :]).sum(axis=-2)
