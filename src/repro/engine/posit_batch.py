"""Vectorized posit(N, ES) arithmetic on uint64 arrays (N <= 64).

The scalar :class:`repro.formats.posit.PositEnv` decodes operands to
exact big-integer rationals, combines them exactly, and re-encodes with a
single round-to-nearest-even on the encoding string.  This module
reproduces that *element-exactly* on whole arrays of bit patterns using
only fixed-width integer array operations:

* significands are kept left-aligned in one 64-bit limb (a decoded posit
  has at most ``nbits - 2`` significant bits);
* products and aligned sums are held in a 128-bit (two-limb) window with
  a sticky bit for everything below the window — sufficient because the
  final rounding position is always within ``nbits - 1`` bits of the
  result's leading bit, and alignment can only discard bits when the
  operands are too far apart to cancel;
* quotients are produced by a restoring long division, one exact bit per
  step, with the remainder as the sticky;
* the one rounding (:meth:`BatchPosit._round_mag`) works on the top 64
  bits of the encoding string (regime + exponent + fraction): the kept
  and guard bits always fit one limb, and every lower bit only matters
  as a boolean sticky.

Every operation runs through the **decoded plane** (:class:`Unpacked`:
zero/NaR/sign flags, the left-aligned significand and scale, and the
rounded magnitude pattern).  ``decode_once`` enters it, the plane ops
(``mul_unpacked``/``add_unpacked``/``sum_unpacked``/``dot_unpacked``)
round each result once — exactly where the scalar chain rounds it — and
``encode_once`` leaves it with a sign/zero/NaR fix-up of the magnitude
pattern the rounding already produced.  :mod:`repro.nd` keeps posit
arrays in this plane between operations, so a chained expression
decodes each operand once and builds codes only when a value escapes;
the packed-pattern API (``add``/``mul``/``dot``/``sum``/``axpy``) is
the same plane ops wrapped in one decode and one fix-up.

Element-for-element equality with ``PositEnv`` is enforced by
``tests/test_engine_posit_batch.py`` (exhaustively at 8 bits for
es = 0, 1, 2, for all four operations, the plane round-trip and the
resident :mod:`repro.nd` chains).
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

import numpy as np

from .. import telemetry as _tele
from ..arith.backend import Backend
from ..arith.backends import PositBackend
from ..bigfloat import BigFloat
from ..formats.posit import FLUSH, PositEnv
from .batch import BatchBackend

_U64 = np.uint64
_I64 = np.int64
_FULL64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_TOP64 = np.uint64(1) << np.uint64(63)
_BELOW_TOP = _TOP64 - _U64(1)
_M32 = np.uint64(0xFFFFFFFF)
_ONE = np.uint64(1)
_U0 = np.uint64(0)
_U64C = np.uint64(64)
_SIXTY_THREE = np.uint64(63)
_I0 = np.int64(0)
_I1 = np.int64(1)
_I63 = np.int64(63)
_I64C = np.int64(64)


def _u64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.uint64)


def _i64(x) -> np.ndarray:
    return np.asarray(x).astype(np.int64)


def _bit_length64(x: np.ndarray) -> np.ndarray:
    """Per-element bit length of uint64 values (0 -> 0), as int64.

    Split at 32 bits so each half converts to float64 exactly, then read
    the bit length off ``frexp``'s exponent — a handful of cheap ufunc
    passes instead of a shift cascade, on any NumPy version.
    """
    x = _u64(x)
    hi = x >> _U64(32)
    big = hi != 0
    _, e = np.frexp(np.where(big, hi, x).astype(np.float64))
    return np.where(big, e + 32, e).astype(np.int64)


def _clamp63(n: np.ndarray) -> np.ndarray:
    """``n`` clamped to [0, 63] as uint64 (shift-count domain).

    minimum/maximum instead of np.clip: the hot kernels call this on
    small arrays where np.clip's dispatch overhead dominates.
    """
    return np.minimum(np.maximum(n, _I0), _I63).astype(np.uint64)


def _shl64(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``x << n`` with per-element ``n``; 0 once ``n >= 64``.

    Out-of-range counts (including negatives on dead lanes that a
    ``where`` discards) are clamped so the shift itself stays defined.
    """
    n = _i64(n)
    return np.where(n >= 64, _U64(0), _u64(x) << _clamp63(n))


def _shr64(x: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``x >> n`` with per-element ``n``; 0 once ``n >= 64``."""
    n = _i64(n)
    return np.where(n >= 64, _U64(0), _u64(x) >> _clamp63(n))


def _low_mask(n: np.ndarray) -> np.ndarray:
    """``(1 << n) - 1`` per element; all-ones once ``n >= 64``."""
    n = _i64(n)
    return np.where(n >= 64, _FULL64,
                    (_U64(1) << _clamp63(n)) - _U64(1))


def _shr128_sticky(hi, lo, n):
    """Right-shift the 128-bit pair ``(hi, lo)`` by ``n >= 0``.

    Returns ``(hi', lo', sticky)`` where ``sticky`` flags any 1-bits
    shifted out below the window.  Any ``n`` (including >= 128) is
    handled through the clamped shift helpers.
    """
    hi, lo, n = _u64(hi), _u64(lo), _i64(n)
    small = n < 64
    hi2 = _shr64(hi, n)
    lo2 = np.where(small, _shr64(lo, n) | _shl64(hi, 64 - n),
                   _shr64(hi, n - 64))
    sticky = ((lo & _low_mask(n)) != 0) | ((hi & _low_mask(n - 64)) != 0)
    return hi2, lo2, sticky


def _shl128(hi, lo, n):
    """Left-shift the 128-bit pair by ``0 <= n < 128`` (no overflow
    tracking; callers guarantee the top bits are clear)."""
    hi, lo, n = _u64(hi), _u64(lo), _i64(n)
    small = n < 64
    hi2 = np.where(small, _shl64(hi, n) | _shr64(lo, 64 - n),
                   _shl64(lo, n - 64))
    lo2 = np.where(small, _shl64(lo, n), _U64(0))
    return hi2, lo2


def _sub128(ahi, alo, bhi, blo, extra):
    """128-bit ``A - B - extra`` with ``A >= B + extra``; ``extra`` in
    {0, 1} per element."""
    lo1 = alo - blo
    b0 = (alo < blo).astype(np.uint64)
    hi1 = ahi - bhi - b0
    e = _u64(extra)
    lo = lo1 - e
    b1 = (lo1 < e).astype(np.uint64)
    return hi1 - b1, lo


def _umul64(a, b):
    """Full 64x64 -> 128-bit product as ``(hi, lo)``."""
    a, b = _u64(a), _u64(b)
    a0, a1 = a & _M32, a >> _U64(32)
    b0, b1 = b & _M32, b >> _U64(32)
    t = a0 * b0
    w0 = t & _M32
    k = t >> _U64(32)
    t = a1 * b0 + k
    w1 = t & _M32
    w2 = t >> _U64(32)
    t = a0 * b1 + w1
    k = t >> _U64(32)
    hi = a1 * b1 + w2 + k
    lo = (t << _U64(32)) | w0
    return hi, lo


class Unpacked(NamedTuple):
    """A posit array in the decoded plane: per-element flags, a
    left-aligned significand and base-2 scale, and the magnitude
    pattern.

    The element value is ``(-1)**sign * frac64 * 2**(scale - 63)`` with
    ``frac64``'s leading 1 at bit 63; ``mag`` is the same value's
    rounded magnitude bit pattern (what the pattern is once the sign is
    applied), so leaving the plane costs no second rounding.
    ``zero``/``nar`` lanes carry well-defined but meaningless
    ``sign``/``frac64``/``scale``/``mag`` planes — every consumer must
    (and every kernel here does) honor the flags.  All planes share one
    shape.
    """

    zero: np.ndarray
    nar: np.ndarray
    sign: np.ndarray
    frac64: np.ndarray
    scale: np.ndarray
    mag: np.ndarray

    @property
    def shape(self):
        return np.shape(self.mag)

    def map(self, fn, *others: "Unpacked") -> "Unpacked":
        """``fn`` applied plane by plane — how views, gathers and joins
        re-view the planes without decoding; ``others`` supply further
        arrays' matching planes as extra arguments."""
        return Unpacked(*[fn(*ps) for ps in zip(self, *others)])

    def moveaxis(self, src, dst) -> "Unpacked":
        return Unpacked(*[np.moveaxis(p, src, dst) for p in self])

    def take(self, index) -> "Unpacked":
        """The planes at ``[..., index]`` (for fold kernels)."""
        return Unpacked(*[p[..., index] for p in self])


class BatchPosit(BatchBackend):
    """Batched posit arithmetic, element-exact against ``PositEnv``.

    Values are arrays of raw bit patterns in ``uint64`` (two's-complement
    within the low ``nbits`` bits, like the scalar environment's ints).
    """

    dtype = np.dtype(np.uint64)
    #: :mod:`repro.nd` keeps this mirror's arrays in the decoded plane
    #: between operations (see :class:`Unpacked`).
    resident = True

    def __init__(self, env: PositEnv, scalar: Optional[PositBackend] = None):
        if env.nbits > 64:
            raise ValueError("BatchPosit supports nbits <= 64")
        if env.es > 59:
            raise ValueError("BatchPosit supports es <= 59")
        self.env = env
        self.name = env.name
        self._scalar = scalar if scalar is not None else PositBackend(env)
        self._mask = _U64(env.mask)
        self._sign_bit = _U64(env.sign_bit)
        self._body_mask = _U64(env.sign_bit - 1)
        self._nar = _U64(env.nar)
        self._maxpos = _U64(env.maxpos)
        self._minpos = _U64(env.minpos)
        self._body_len = env.nbits - 1
        self._one = _U64(env.from_float(1.0))
        self._flush = env.underflow == FLUSH
        # Hoisted per-environment constants (regime/exponent masks and
        # shift counts are fixed by the configuration, so no kernel
        # recomputes them per element).
        self._top_shift = _U64(self._body_len - 1)
        self._e_mask = _U64((1 << env.es) - 1)
        self._kept_shift = _U64(64 - self._body_len)
        self._guard_shift = _U64(63 - self._body_len)
        self._below_mask = _U64((1 << (63 - self._body_len)) - 1)
        self._has_below = self._body_len < 63
        self._max_scale = np.int64(env.max_scale)
        self._useed_log2 = np.int64(env.useed_log2)
        self._es_u = _U64(env.es)
        self._es_i = np.int64(env.es)
        self._body_len_u = _U64(self._body_len)
        if env.es >= 2:
            self._e_top_shift = _U64(64 - env.es)
            self._f_hi_shift = _U64(env.es - 1)
            self._f_lo_shift = _U64(65 - env.es)

    @property
    def scalar(self) -> Backend:
        return self._scalar

    # ------------------------------------------------------------------
    # Protocol plumbing
    # ------------------------------------------------------------------
    def from_bigfloats(self, values: Iterable[BigFloat]) -> np.ndarray:
        return np.array([self.env.encode_bigfloat(v) for v in values],
                        dtype=self.dtype)

    def to_bigfloats(self, arr: np.ndarray) -> List[BigFloat]:
        return [self.env.to_bigfloat(int(v)) for v in
                np.asarray(arr).ravel()]

    def item(self, arr: np.ndarray, index=()):
        return int(np.asarray(arr)[index])

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def ones(self, shape) -> np.ndarray:
        return np.full(shape, self._one, dtype=self.dtype)

    def is_zero(self, arr) -> np.ndarray:
        return (_u64(arr) & self._mask) == 0

    def is_nar(self, arr) -> np.ndarray:
        return (_u64(arr) & self._mask) == self._nar

    def _order_key(self, arr) -> np.ndarray:
        """Posit patterns as two's-complement integers — the standard's
        total order (NaR = the sign-bit pattern sorts below every
        real), matching the scalar backend's ``gt`` exactly."""
        codes = _u64(arr)
        if self.env.nbits == 64:
            return codes.view(np.int64) if codes.dtype == np.uint64 \
                else codes.astype(np.int64)
        signed = codes.astype(np.int64)
        return np.where(signed >= np.int64(self.env.sign_bit),
                        signed - np.int64(1 << self.env.nbits), signed)

    # ------------------------------------------------------------------
    # Entering and leaving the decoded plane
    # ------------------------------------------------------------------
    def _parse_body(self, body: np.ndarray):
        """``(frac64, scale)`` of a magnitude body (sign bit clear).

        ``body == 0`` lanes produce well-defined garbage; callers mask
        them with their own zero flags.
        """
        es = self.env.es
        body_len_u = self._body_len_u
        r1 = (body >> self._top_shift) != 0
        val = np.where(r1, body ^ self._body_mask, body)
        bl = _bit_length64(val)
        run_u = body_len_u - _u64(bl)
        rem_u = body_len_u - np.minimum(run_u + _ONE, body_len_u)
        run_i = run_u.astype(np.int64)
        k = np.where(r1, run_i - _I64(1), -run_i)
        if es:
            e_bits = np.minimum(self._es_u, rem_u)
            f_bits = rem_u - e_bits
            e = ((body >> f_bits) << (self._es_u - e_bits)) & self._e_mask
            scale = k * self._useed_log2 + e.astype(np.int64)
        else:
            f_bits = rem_u
            scale = k
        frac64 = _TOP64 | ((body << (_SIXTY_THREE - f_bits)) & _BELOW_TOP)
        return frac64, scale

    def decode_once(self, bits) -> Unpacked:
        """The decoded-plane form of a pattern array (see
        :class:`Unpacked`) — decode each operand once, then chain plane
        ops on it."""
        with _tele.span("posit.decode"), np.errstate(over="ignore"):
            bits = _u64(bits)
            if self._mask != _FULL64:
                bits = bits & self._mask
            sign = bits >= self._sign_bit
            mag = np.where(sign, _U64(0) - bits, bits) & self._body_mask
            frac64, scale = self._parse_body(mag)
            return Unpacked(bits == 0, bits == self._nar, sign, frac64,
                            scale, mag)

    def encode_once(self, u: Unpacked) -> np.ndarray:
        """Decoded planes back to bit patterns: the sign applied to the
        rounded magnitude, zero and NaR lanes fixed up (no rounding —
        that happened when the planes were produced)."""
        with np.errstate(over="ignore"):
            pattern = np.where(u.sign, (_U64(0) - u.mag) & self._mask,
                               u.mag)
            pattern = np.where(u.zero, _U64(0), pattern)
            return np.where(u.nar, self._nar, pattern)

    def zeros_unpacked(self, shape) -> Unpacked:
        """Probability-0 planes (the fold identity)."""
        return self.decode_once(self.zeros(shape))

    # ------------------------------------------------------------------
    # The one rounding: (scale, frac64, sticky) -> magnitude pattern
    # ------------------------------------------------------------------
    def _round_mag(self, scale, frac64, sticky, live=None):
        """Round an exact ``(scale, frac64, sticky)`` magnitude to the
        nearest-even posit; returns the *magnitude* pattern (sign not
        yet applied).

        Mirrors ``PositEnv.encode_real``/``_round_pattern``: the
        encoding string is regime + exponent + fraction.  Its kept and
        guard bits always fit the top 64 bits, and every lower string
        bit only matters as a boolean, so the string is built in one
        limb with clamped shifts plus any-bits-below masks.

        ``live``, when given, masks the finite-nonzero result lanes and
        enables the ``posit.saturate``/``posit.flush`` event tallies
        (callers only build it while a telemetry collector is active).
        """
        with _tele.span("posit.encode"):
            k = scale >> self._es_i  # arithmetic shift = floor division
            pos = k >= _I0
            run = np.where(pos, k + _I1, -k)  # regime length, >= 1
            big = run >= _I64C  # regime fills the top limb
            rs = np.minimum(run, _I63).view(_U64)
            # Regime in the top limb: `run` ones (k >= 0) or the
            # terminator one at position `run` (k < 0).  Non-saturating
            # positive regimes always fit (run <= nbits - 1 <= 63);
            # oversized positive runs are saturation lanes whose value
            # the final clamp overrides.
            reg = np.where(pos, _FULL64 << (_U64C - rs), _TOP64 >> rs)
            # Exponent + fraction tail: es + 63 bits, top-aligned
            # (constant shifts — es is fixed per environment).
            fraction = frac64 & _BELOW_TOP
            es = self.env.es
            t_lo = None
            if es == 0:
                t_hi = fraction << _ONE
            elif es == 1:
                e = (scale - (k << self._es_i)).view(_U64)
                t_hi = (e << _SIXTY_THREE) | fraction
            else:
                e = (scale - (k << self._es_i)).view(_U64)
                t_hi = ((e << self._e_top_shift)
                        | (fraction >> self._f_hi_shift))
                t_lo = fraction << self._f_lo_shift
            # Drop the tail below the regime: bits landing in the top
            # limb join the window, everything lower is a sticky.
            r1 = run + _I1
            r1_small = r1 < _I64C
            r1c = np.minimum(r1, _I63).view(_U64)
            below = sticky | ((t_hi & np.where(
                r1_small, (_ONE << r1c) - _ONE, _FULL64)) != 0)
            if t_lo is not None:
                below = below | (t_lo != 0)
            if bool(big.any()):
                # A terminator (k < 0) beyond the limb is a dropped
                # 1-bit; oversized positive regimes are saturation
                # lanes (value overridden below).
                reg = np.where(big, _U0, reg)
                below = below | (big & ~pos)
            e_hi = reg | np.where(r1_small, t_hi >> r1c, _U0)

            kept = e_hi >> self._kept_shift
            guard = (e_hi >> self._guard_shift) & _ONE
            if self._has_below:
                below = below | ((e_hi & self._below_mask) != 0)
            round_up = (guard != 0) & (below | ((kept & _ONE) != 0))
            pattern = np.minimum(kept + round_up, self._maxpos)
            sat = scale > self._max_scale
            if live is not None:
                self._tally_rounding(live, sat, scale, frac64, sticky,
                                     pattern)
            if not self._flush:
                # Saturate mode: a nonzero real never rounds to zero.  In
                # flush mode a rounded-to-zero pattern simply stays zero.
                pattern = np.where(pattern == 0, self._minpos, pattern)
            return np.where(sat, self._maxpos, pattern)

    def _tally_rounding(self, live, sat, scale, frac64, sticky, pattern):
        """Tally ``posit.saturate``/``posit.flush`` on live result lanes.

        Only reached when the caller built a ``live`` mask, i.e. while a
        collector was active; re-checks in case the scope closed."""
        c = _tele.current()
        if c is None:
            return
        # |exact| > maxpos == 2**max_scale: either the scale overflows
        # outright, or it sits exactly at max_scale with anything below
        # the leading significand bit set (frac64's leading 1 is bit 63,
        # so the value is frac64 * 2**(scale-63) plus the sticky tail).
        over = live & (sat | ((scale == self._max_scale)
                              & ((frac64 != _TOP64) | sticky)))
        n = int(np.count_nonzero(over))
        if n:
            c.event("posit.saturate", n)
        # Magnitude rounded to zero (kept in flush mode, clamped back to
        # minpos in saturate mode — the rounding event is the same).
        under = live & ~sat & (pattern == 0)
        n = int(np.count_nonzero(under))
        if n:
            c.event("posit.flush", n)

    def _tally_nar(self, nar, dead):
        """Tally ``posit.nar`` result lanes and return the live mask
        (neither NaR nor an exact-zero passthrough lane) for the
        rounding-event tallies.  Only called while a collector is
        active."""
        n = int(np.count_nonzero(nar))
        if n:
            _tele.event("posit.nar", n)
        return ~(nar | dead)

    def _encode(self, sign, scale, frac64, sticky, live=None):
        """Round and sign an exact result straight to bit patterns (the
        callers that never need its planes: conversions, quotients,
        quire read-out)."""
        pattern = self._round_mag(_i64(scale), _u64(frac64),
                                  np.asarray(sticky, dtype=bool), live)
        return np.where(sign, (_U64(0) - pattern) & self._mask, pattern)

    # ------------------------------------------------------------------
    # Arithmetic cores (decoded-plane in, exact pre-rounding result out)
    # ------------------------------------------------------------------
    def _mul_core(self, ua: Unpacked, ub: Unpacked):
        """Exact product: ``(sign, scale, frac64, sticky)``."""
        with _tele.span("posit.core.mul"):
            hi, lo = _umul64(ua.frac64, ub.frac64)
            top = (hi >> _SIXTY_THREE) & _ONE
            top1 = top != 0
            frac = np.where(top1, hi, (hi << _ONE) | (lo >> _SIXTY_THREE))
            low = np.where(top1, lo, lo << _ONE)
            scale = ua.scale + ub.scale + top.astype(np.int64)
            return ua.sign ^ ub.sign, scale, frac, low != 0

    def _add_core(self, ua: Unpacked, ub: Unpacked):
        """Exact sum: ``(sign, scale, frac64, sticky, cancelled,
        same)`` — ``cancelled`` flags exact zero results of
        opposite-sign adds, ``same`` whether the signs agreed."""
        with _tele.span("posit.core.add"):
            sa, fa, ea = ua.sign, ua.frac64, ua.scale
            sb, fb, eb = ub.sign, ub.frac64, ub.scale
            # Dominant operand first (larger magnitude).
            a_small = (ea < eb) | ((ea == eb) & (fa < fb))
            s1 = np.where(a_small, sb, sa)
            f1 = np.where(a_small, fb, fa)
            e1 = np.where(a_small, eb, ea)
            s2 = np.where(a_small, sa, sb)
            f2 = np.where(a_small, fa, fb)
            gap = e1 - np.where(a_small, ea, eb)
            # Align the small operand into a 128-bit window: the
            # clamped-shift identity (f2 << (63-gap)) << 1 equals
            # f2 << (64-gap) for gap in [1, 63] and 0 at gap == 0.
            gbig = gap >= _I64C
            gc = np.minimum(gap, _I63).view(_U64)
            b_hi = f2 >> gc
            b_lo = (f2 << (_SIXTY_THREE - gc)) << _ONE
            if bool(gbig.any()):
                g2 = gap - _I64C
                g2big = g2 >= _I64C
                g2c = np.minimum(g2, _I63).view(_U64)
                b_hi = np.where(gbig, _U0, b_hi)
                b_lo = np.where(gbig,
                                np.where(g2big, _U0, f2 >> g2c), b_lo)
                st_b = gbig & ((f2 & np.where(
                    g2big, _FULL64, (_ONE << g2c) - _ONE)) != 0)
            else:
                st_b = gbig  # all-False, correctly shaped
            same = s1 == s2
            # Operand-dependent gating: probability workloads are almost
            # always sign-uniform (all positive), so compute each branch
            # only where some lane needs it.  Results are identical
            # either way (the merge selects per lane); the exhaustive
            # suites cover mixed batches.  The same-sign path also
            # serves the empty-array case.
            any_diff = not bool(same.all())
            any_same = bool(same.any()) or not any_diff

            if any_same:
                # Same sign: (f1, 0) + aligned B, renormalizing one
                # carry bit.
                lo_s = b_lo
                hi_s = f1 + b_hi
                carry = hi_s < f1
                st_s = st_b | (carry & ((lo_s & _ONE) != 0))
                lo_s = np.where(carry,
                                (lo_s >> _ONE) | (hi_s << _SIXTY_THREE),
                                lo_s)
                hi_s = np.where(carry, (hi_s >> _ONE) | _TOP64, hi_s)
                scale_s = e1 + carry.astype(np.int64)

            if any_diff:
                # Opposite sign: (f1, 0) - aligned B, minus a borrow
                # when the alignment lost bits (true B is larger than
                # its truncation; the lost fraction survives as the
                # sticky).
                hi_d, lo_d = _sub128(f1, np.zeros_like(f1), b_hi, b_lo,
                                     st_b.astype(np.uint64))
                cancelled = (hi_d == 0) & (lo_d == 0) & ~st_b
                msb = np.where(hi_d != 0, 64 + _bit_length64(hi_d),
                               _bit_length64(lo_d)) - 1
                shift_up = np.where(cancelled, 0, 127 - msb)
                hi_d, lo_d = _shl128(hi_d, lo_d, shift_up)
                scale_d = e1 - shift_up
            else:
                cancelled = np.zeros_like(same)

            if not any_diff:
                frac, low, sticky, scale = hi_s, lo_s, st_s, scale_s
            elif not any_same:
                frac, low, sticky, scale = hi_d, lo_d, st_b, scale_d
            else:
                frac = np.where(same, hi_s, hi_d)
                low = np.where(same, lo_s, lo_d)
                sticky = np.where(same, st_s, st_b)
                scale = np.where(same, scale_s, scale_d)
            sticky = sticky | (low != 0)
            return s1, scale, frac, sticky, cancelled, same

    def _divide_frac(self, fa: np.ndarray, fb: np.ndarray):
        """Normalized exact quotient of two left-aligned significands:
        ``(frac64, sticky, dec)`` with value ``frac64 * 2**-63 *
        2**-dec`` and a sticky for the (possibly infinite) tail.

        Restoring long division, one exact quotient bit per step; the
        invariant ``rem < fb`` keeps every intermediate in one limb
        (the shifted-out top bit is folded into the compare/subtract).
        """
        with _tele.span("posit.core.div"):
            ge0 = fa >= fb
            rem = np.where(ge0, fa - fb, fa)
            q = ge0.astype(np.uint64)
            for _ in range(63):
                top = rem >> _SIXTY_THREE
                rem = rem << _ONE
                bit = (top != 0) | (rem >= fb)
                rem = np.where(bit, rem - fb, rem)
                q = (q << _ONE) | bit
            # One more bit for quotients in (1/2, 1).
            top = rem >> _SIXTY_THREE
            rem2 = rem << _ONE
            bit = (top != 0) | (rem2 >= fb)
            rem2 = np.where(bit, rem2 - fb, rem2)
            q2 = (q << _ONE) | bit
            frac = np.where(ge0, q, q2)
            sticky = np.where(ge0, rem, rem2) != 0
            dec = (~ge0).astype(np.int64)
            return frac, sticky, dec

    # ------------------------------------------------------------------
    # Decoded-plane ops (each result rounded once, element-exact)
    # ------------------------------------------------------------------
    def _rounded(self, sign, scale, frac, sticky, zero, nar, live):
        """Planes of a rounded exact result (``zero`` flags lanes known
        to be exact zeros; a flush-to-zero rounding adds its own)."""
        pm = self._round_mag(scale, frac, sticky, live)
        f2, s2 = self._parse_body(pm)
        return Unpacked(zero | (pm == 0), nar, sign, f2, s2, pm)

    def mul_unpacked(self, ua: Unpacked, ub: Unpacked) -> Unpacked:
        """Rounded product in the decoded plane (element-exact)."""
        with np.errstate(over="ignore"):
            sign, scale, frac, sticky = self._mul_core(ua, ub)
            dead = ua.zero | ub.zero
            nar = ua.nar | ub.nar
            live = None
            if _tele.current() is not None:
                live = self._tally_nar(nar, dead)
            return self._rounded(sign, scale, frac, sticky, dead, nar,
                                 live)

    def add_unpacked(self, ua: Unpacked, ub: Unpacked) -> Unpacked:
        """Rounded sum in the decoded plane (element-exact), with the
        zero passthrough merges gated off when no operand lane is
        zero."""
        with np.errstate(over="ignore"):
            za, zb = ua.zero, ub.zero
            s1, scale, frac, sticky, cancelled, same = \
                self._add_core(ua, ub)
            mixed = ~same & cancelled
            nar = ua.nar | ub.nar
            live = None
            if _tele.current() is not None:
                live = self._tally_nar(nar, za | zb | mixed)
            out = self._rounded(s1, scale, frac, sticky, mixed, nar, live)
            if not (bool(za.any()) or bool(zb.any())):
                return out
            # add(0, x) and add(x, 0) pass x through exactly.
            merged = ub.map(
                lambda b, a, r: np.where(za, b, np.where(zb, a, r)),
                ua, out)
            return merged._replace(
                zero=(za & zb) | (~za & ~zb & out.zero), nar=nar)

    def axpy_unpacked(self, a: Unpacked, x: Unpacked,
                      y: Unpacked) -> Unpacked:
        """``a*x + y`` with both roundings, in the decoded plane."""
        return self.add_unpacked(self.mul_unpacked(a, x), y)

    def sum_unpacked(self, u: Unpacked, axis: int = -1) -> Unpacked:
        """Index-order add fold along ``axis``, op-for-op the scalar
        ``acc = add(acc, v)`` fold.  It starts at the first slice:
        ``add(0, x)`` is an exact passthrough, so skipping the zero
        start changes no bit.  An empty axis sums to zero."""
        u = u.moveaxis(axis, -1)
        n = u.shape[-1]
        if n == 0:
            return self.zeros_unpacked(u.shape[:-1])
        acc = u.take(0)
        for i in range(1, n):
            acc = self.add_unpacked(acc, u.take(i))
        return acc

    def dot_unpacked(self, ua: Unpacked, ub: Unpacked,
                     axis: int = -1) -> Unpacked:
        """Sum of products along ``axis`` (of the broadcast shape), op
        for op the base ``sum(mul(a, b))``: one rounding pass over the
        whole broadcast product (far better ufunc amortization than one
        per fold slice), then the index-order fold."""
        return self.sum_unpacked(self.mul_unpacked(ua, ub), axis)

    # ------------------------------------------------------------------
    # Packed-pattern arithmetic (the plane ops, decoded once and fixed
    # up once)
    # ------------------------------------------------------------------
    def mul(self, a, b) -> np.ndarray:
        return self.encode_once(
            self.mul_unpacked(self.decode_once(a), self.decode_once(b)))

    def add(self, a, b) -> np.ndarray:
        return self.encode_once(
            self.add_unpacked(self.decode_once(a), self.decode_once(b)))

    def neg(self, a) -> np.ndarray:
        """Pattern negation (exact; zero and NaR are fixed points)."""
        with np.errstate(over="ignore"):
            return (_U64(0) - _u64(a)) & self._mask

    def sub(self, a, b) -> np.ndarray:
        """``a - b`` — exactly the scalar environment's
        ``add(a, neg(b))``."""
        return self.add(a, self.neg(b))

    def div(self, a, b) -> np.ndarray:
        """Correctly rounded quotient (exact long division + one
        rounding), element-exact against ``PositEnv.div``."""
        with np.errstate(over="ignore"):
            ua, ub = self.decode_once(a), self.decode_once(b)
            fa, fb = np.broadcast_arrays(ua.frac64, ub.frac64)
            frac, sticky, dec = self._divide_frac(fa, fb)
            scale = ua.scale - ub.scale - dec
            nar = ua.nar | ub.nar | ub.zero
            live = None
            if _tele.current() is not None:
                live = self._tally_nar(nar, np.asarray(ua.zero))
            pattern = self._encode(ua.sign ^ ub.sign, scale, frac, sticky,
                                   live)
            pattern = np.where(ua.zero, _U64(0), pattern)
            return np.where(nar, self._nar, pattern)

    def dot(self, a, b, axis: int = -1) -> np.ndarray:
        """Decoded-plane dot product (element-exact against the base
        mul-then-fold, enforced by the engine tests)."""
        return self.encode_once(self.dot_unpacked(
            self.decode_once(a), self.decode_once(b), axis=axis))

    def sum(self, arr: np.ndarray, axis: int = -1) -> np.ndarray:
        """Index-order fold through the decoded plane (one decode for
        the whole array; op-for-op the base ``add`` fold)."""
        return self.encode_once(
            self.sum_unpacked(self.decode_once(arr), axis=axis))

    def axpy(self, a, x, y) -> np.ndarray:
        """``a*x + y`` with one decode per operand (both intermediate
        roundings preserved — element-exact against ``add(mul(a, x),
        y)``)."""
        return self.encode_once(self.axpy_unpacked(
            self.decode_once(a), self.decode_once(x), self.decode_once(y)))

    # ------------------------------------------------------------------
    # Float conversions (convenience; encode side is exact)
    # ------------------------------------------------------------------
    def from_floats(self, values) -> np.ndarray:
        """Exact float64 -> posit conversion (vectorized encode)."""
        with np.errstate(over="ignore"):
            x = np.asarray(values, dtype=np.float64)
            finite = np.isfinite(x)
            m, e = np.frexp(np.where(finite, x, 0.0))
            mant = np.abs(m * 9007199254740992.0).astype(np.uint64)  # 2**53
            bl = _bit_length64(mant)
            frac64 = _shl64(mant, 64 - bl)
            scale = e.astype(np.int64) - 54 + bl
            pattern = self._encode(np.signbit(x), scale, frac64,
                                   np.zeros(x.shape, dtype=bool))
            pattern = np.where(x == 0.0, _U64(0), pattern)
            return np.where(~finite, self._nar, pattern)

    def to_floats(self, arr) -> np.ndarray:
        """Posit -> float64, rounding the (up to 62-bit) significand to
        double precision.  Values beyond double range overflow/underflow
        as IEEE does; unlike the scalar ``to_float`` this path may
        double-round in the subnormal range."""
        with np.errstate(over="ignore"):
            u = self.decode_once(arr)
            x = np.ldexp(u.frac64.astype(np.float64),
                         (u.scale - 63).astype(np.int32))
            x = np.where(u.sign, -x, x)
            x = np.where(u.zero, 0.0, x)
            return np.where(u.nar, np.nan, x)
