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
* the one rounding (:meth:`BatchPosit._round_mag`) works on the
  planes and returns planes, for every regime: nearest even on
  ``frac64`` where the cut keeps a fraction bit, on the scale where it
  falls in the exponent field, and maxpos/minpos/zero where the regime
  fills the body — the bits the scalar rounding of the encoding string
  gives, with no string built;
* operand constants are read-only 0-d arrays, which a ufunc takes
  without the per-call conversion a NumPy scalar costs — at the 16–128
  lanes of the workloads an op costs its NumPy calls, not its lanes.
  The intended uint64 wraparounds always have an array operand or are
  explicit ufunc calls, which never warn, so no op enters
  ``np.errstate``.

Every operation runs through the **decoded plane** (:class:`Unpacked`:
zero/NaR/sign flags and the left-aligned significand and scale).
``decode_once`` enters it (the only place a pattern is parsed), the
plane ops (``mul``/``add``/``sub``/``div``/``sum``/``dot``/``axpy``
``_unpacked``) round each result once — exactly where the scalar chain
rounds it — the order ops (``maximum``/``amax``/``argmax``
``_unpacked``) compare the planes, and ``encode_once`` leaves it by
assembling the exact pattern from the planes, with no rounding.
:mod:`repro.nd` keeps posit arrays in this plane between operations,
so a chained expression decodes each operand once and builds codes
only when a value escapes; the packed-pattern API is the same plane
ops wrapped in one decode and one assembly.

Element-for-element equality with ``PositEnv`` is enforced by
``tests/test_engine_posit_batch.py`` (exhaustively at 8 bits for
es = 0, 1, 2, for all four operations, the order ops and the plane
round-trip) and, regime by regime at 64 bits with the event tallies,
by ``tests/test_posit_rounding_structured.py``.
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


def _const(value, dtype=np.uint64) -> np.ndarray:
    """A read-only 0-d array operand: a ufunc takes it without the
    per-call conversion of a NumPy scalar (a 16-lane add: 0.46 against
    0.69 us, on a 2-vCPU Xeon)."""
    c = np.array(value, dtype=dtype)
    c.flags.writeable = False
    return c


_FULL64 = _const(0xFFFFFFFFFFFFFFFF)
_TOP64 = _const(1 << 63)
_BELOW_TOP = _const((1 << 63) - 1)
_M32 = _const(0xFFFFFFFF)
_ONE = _const(1)
_U0 = _const(0)
_U32 = _const(32)
_U64C = _const(64)
_TWO = _const(2)
_SIXTY_ONE = _const(61)
_SIXTY_THREE = _const(63)
_I0 = _const(0, _I64)
_I1 = _const(1, _I64)
_I62 = _const(62, _I64)
_I63 = _const(63, _I64)
_I64C = _const(64, _I64)
_I64MIN = _const(np.iinfo(np.int64).min, _I64)
#: The highest guard-bit position in ``frac64`` where the rounding
#: cut keeps the whole exponent and at least one fraction bit (regime
#: runs up to ``nbits - 3 - es``); calls with no live lane past it skip
#: the long-regime cases.
_GUARD_MAX = _const(61, _I64)


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
    hi = x >> _U32
    big = hi != 0
    _, e = np.frexp(np.where(big, hi, x).astype(np.float64))
    return np.where(big, e + 32, e).astype(np.int64)


def _shl128(hi, lo, n):
    """Left-shift the 128-bit pair by ``0 <= n < 128`` (no overflow
    tracking; callers guarantee the top bits are clear).

    Plain shifts: NumPy gives 0 for counts of 64 or more, and a count
    that wraps does so only on a lane the ``where`` discards."""
    hi, lo, n = _u64(hi), _u64(lo), _u64(n)
    small = n < _U64C
    hi2 = np.where(small, (hi << n) | (lo >> (_U64C - n)),
                   lo << (n - _U64C))
    return hi2, np.where(small, lo << n, _U0)


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
    a0, a1 = a & _M32, a >> _U32
    b0, b1 = b & _M32, b >> _U32
    t = a0 * b0
    w0 = t & _M32
    k = t >> _U32
    t = a1 * b0 + k
    w1 = t & _M32
    w2 = t >> _U32
    t = a0 * b1 + w1
    k = t >> _U32
    hi = a1 * b1 + w2 + k
    lo = (t << _U32) | w0
    return hi, lo


class Unpacked(NamedTuple):
    """A posit array in the decoded plane: per-element flags and a
    left-aligned significand and base-2 scale.

    The element value is ``(-1)**sign * frac64 * 2**(scale - 63)`` with
    ``frac64``'s leading 1 at bit 63, and it is always a posit value:
    every plane op rounds its result once, so the pattern can be
    assembled from the planes exactly (``encode_once``) when the value
    escapes, and no plane op needs it.  ``zero``/``nar`` lanes carry
    well-defined but meaningless ``sign``/``frac64``/``scale`` planes —
    every consumer must (and every kernel here does) honor the flags.
    All five planes share one shape.
    """

    zero: np.ndarray
    nar: np.ndarray
    sign: np.ndarray
    frac64: np.ndarray
    scale: np.ndarray

    @property
    def shape(self):
        return np.shape(self.frac64)

    def map(self, fn, *others: "Unpacked") -> "Unpacked":
        """``fn`` applied plane by plane — how views, gathers and joins
        re-view the planes without decoding; ``others`` supply further
        arrays' matching planes as extra arguments."""
        return Unpacked(*[fn(*ps) for ps in zip(self, *others)])


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
        # The int64 scale plane holds exact products, up to 2*max_scale.
        if max(env.max_scale, env.useed_log2) >= 1 << 62:
            raise ValueError("BatchPosit supports max_scale and 2**es "
                             "below 2**62 (es <= 56 at 64 bits)")
        self.env = env
        self.name = env.name
        self._scalar = scalar if scalar is not None else PositBackend(env)
        self._mask = _const(env.mask)
        self._sign_bit = _const(env.sign_bit)
        self._body_mask = _const(env.sign_bit - 1)
        self._nar = _const(env.nar)
        self._body_len = env.nbits - 1
        self._one = _const(env.from_float(1.0))
        self._flush = env.underflow == FLUSH
        # Hoisted per-environment constants (regime/exponent masks and
        # shift counts are fixed by the configuration, so no kernel
        # recomputes them per element).
        self._top_shift = _const(self._body_len - 1)
        self._e_mask = _const((1 << env.es) - 1)
        self._kept_shift = _const(64 - self._body_len)
        self._guard_base = _const(65 - env.nbits + env.es, _I64)
        # Bit es + 2 of _round_mag's scale word is read only by a cut at
        # q = es, as its kept lsb: the terminator of k = nbits - 3 (0) or
        # 2 - nbits (1), k's low bit for odd nbits, else its complement.
        self._terminator_flip = _const((1 - env.nbits % 2) << (env.es + 2))
        # The word's bits under the terminator (exponent, top fraction
        # bit, sticky), read when that is the guard (k = 1 - nbits).
        self._under_terminator = _const((1 << (env.es + 2)) - 1)
        self._k_floor = _const(1 - env.nbits, _I64)
        self._key_base = _const(env.max_scale + 1, _I64)
        self._max_scale = _const(env.max_scale, _I64)
        self._min_scale = _const(-env.max_scale, _I64)
        self._useed_log2 = _const(env.useed_log2, _I64)
        self._es_u = _const(env.es)
        self._es_i = _const(env.es, _I64)
        self._body_len_u = _const(self._body_len)
        if env.es:
            self._e_top_shift = _const(64 - env.es)
            self._f_hi_shift = _const(env.es - 1)

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
        k = np.where(r1, run_i - _I1, -run_i)
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
        with _tele.span("posit.decode"):
            bits = _u64(bits)
            if self._mask != _FULL64:
                bits = bits & self._mask
            sign = bits >= self._sign_bit
            mag = np.where(sign, _U0 - bits, bits) & self._body_mask
            frac64, scale = self._parse_body(mag)
            return Unpacked(bits == 0, bits == self._nar, sign, frac64,
                            scale)

    def encode_once(self, u: Unpacked) -> np.ndarray:
        """Decoded planes back to bit patterns (when a value escapes):
        the encoding string of each lane's planes cut to the body —
        they hold a posit value, so no bit set is dropped and nothing
        rounds — signed, with zero and NaR lanes fixed up."""
        k = u.scale >> self._es_i
        pos = k >= _I0
        run = np.where(pos, k + _I1, -k).view(_U64)  # regime length, >= 1
        # `run` ones (k >= 0) or the terminator one after `run` zeros.
        reg = np.where(pos, _FULL64 << (_U64C - run), _TOP64 >> run)
        # Exponent + fraction, top-aligned (constant shifts — es is
        # fixed per environment).
        fraction = u.frac64 & _BELOW_TOP
        if self.env.es:
            tail = (((u.scale.view(_U64) & self._e_mask) << self._e_top_shift)
                    | (fraction >> self._f_hi_shift))
        else:
            tail = fraction << _ONE
        mag = (reg | (tail >> (run + _ONE))) >> self._kept_shift
        pattern = np.where(u.sign, (_U0 - mag) & self._mask, mag)
        pattern = np.where(u.zero, _U0, pattern)
        return np.where(u.nar, self._nar, pattern)

    def zeros_unpacked(self, shape) -> Unpacked:
        """Probability-0 planes (the fold identity)."""
        return self.decode_once(self.zeros(shape))

    # ------------------------------------------------------------------
    # The one rounding: (scale, frac64, sticky) -> planes
    # ------------------------------------------------------------------
    def _round_mag(self, scale, frac64, sticky, dead, tally=False):
        """Round exact ``(scale, frac64, sticky)`` magnitudes to the
        nearest-even posit: the rounded planes ``(frac64, scale,
        flushed)``, ``flushed`` flagging lanes a flush-mode rounding
        took to zero (None when none can be).  ``dead`` flags lanes the
        caller's flags decide (zero, NaR, passthrough, cancelled):
        their scales are meaningless, so they neither tally nor make a
        call run the long-regime cases.  ``tally`` enables the
        ``posit.saturate``/``posit.flush`` tallies (callers pass it
        while a collector is active).  The guard is bit ``g = run + 64
        - nbits + es`` of ``frac64``, for regime run ``run``:

        * ``g <= 61`` (the cut keeps a fraction bit): nearest even on
          ``frac64``; a round-up out of the top bit carries 1.0 into
          the next scale.
        * ``q = g - 62`` in ``[0, es]`` (the cut drops ``q`` exponent
          bits): nearest even on the scale at ``2**q``, in one word of
          the scale's low bits, the top fraction bit and a sticky; the
          kept lsb is scale bit ``q``, or the regime terminator (1
          below 1.0, 0 above) when ``q = es``; ``frac64`` is 1.0.
        * ``q > es`` (the regime fills the body): maxpos above 1.0;
          below it minpos when the terminator is the guard (``k = 1 -
          nbits``) with anything set under it, else zero (flush mode)
          or minpos.
        """
        with _tele.span("posit.encode"):
            k = scale >> self._es_i  # arithmetic shift = floor division
            # The guard bit's position in frac64, (run - 1) + 65 - N + es
            # (k ^ (k >> 63) is run - 1 for either sign of k).
            g = (k ^ (k >> _I63)) + self._guard_base
            long = g > _GUARD_MAX
            any_long = np.count_nonzero(long > dead)
            g_u = g.view(_U64)
            up = _FULL64 << g_u  # the guard bit and every bit above
            # Nearest even in one add: the dropped bits (the sticky
            # joins them at bit 0, below the guard) plus half an ulp
            # less one, plus the kept lsb, carry into the kept bits
            # exactly when rounding goes up.  A carry out of bit 63
            # wraps (np.add never warns) and leaves the kept bits 0.
            fs = frac64 | sticky
            lsb = (fs >> g_u) >> _ONE & _ONE
            t = np.add(fs, ~up + lsb)
            r_frac = (t & (up << _ONE)) | _TOP64
            r_scale = scale + (~t >> _SIXTY_THREE).view(_I64)
            if not any_long:
                return r_frac, r_scale, None
            # The same add on the scale word: guard at bit q + 1, kept
            # lsb at q + 2, and a carry into it adds 2**q to the scale.
            # A regime that fills the body rounds as if cut at q = es:
            # its scale lands past +-max_scale, and the clamp makes it
            # maxpos or minpos.
            q = np.minimum(g - _I62, self._es_i)
            q_u = q.view(_U64)
            lsb_at = q_u + _TWO
            w = ((scale.view(_U64) << _TWO) | ((fs >> _SIXTY_ONE) & _TWO)
                 | np.minimum(fs << _TWO, _ONE)) ^ self._terminator_flip
            t = np.add(w, (_ONE << (q_u + _ONE)) - _ONE
                       + ((w >> lsb_at) & _ONE))
            carry = (((t ^ w) >> lsb_at) & _ONE).view(_I64)
            r_scale = np.where(long, np.minimum(np.maximum(
                ((scale >> q) + carry) << q, self._min_scale),
                self._max_scale), r_scale)
            # Below minpos, and not rounding up to it: k below 1 - N, or
            # k = 1 - N (the terminator is the guard) with nothing under
            # the terminator.
            under = (k < self._k_floor) | (
                (k == self._k_floor) & ((w & self._under_terminator) == _U0))
            if tally:
                self._tally_rounding(~dead, scale, frac64, sticky, under)
            return (np.where(long, _TOP64, r_frac), r_scale,
                    under if self._flush else None)

    def _tally_rounding(self, live, scale, frac64, sticky, under):
        """Tally ``posit.saturate``/``posit.flush`` on live result lanes.

        Only reached when the caller asked for tallies, i.e. while a
        collector was active; re-checks in case the scope closed."""
        c = _tele.current()
        if c is None:
            return
        # |exact| > maxpos == 2**max_scale: either the scale overflows
        # outright, or it sits exactly at max_scale with anything below
        # the leading significand bit set (frac64's leading 1 is bit 63,
        # so the value is frac64 * 2**(scale-63) plus the sticky tail).
        over = live & ((scale > self._max_scale)
                       | ((scale == self._max_scale)
                          & ((frac64 != _TOP64) | sticky)))
        n = int(np.count_nonzero(over))
        if n:
            c.event("posit.saturate", n)
        # Magnitude rounded to zero (kept in flush mode, clamped back to
        # minpos in saturate mode — the rounding event is the same).
        n = int(np.count_nonzero(live & under))
        if n:
            c.event("posit.flush", n)

    def _rounded(self, sign, scale, frac, sticky, zero, nar,
                 tally=True) -> Unpacked:
        """Planes of a rounded exact result.  ``zero`` flags lanes the
        caller fixes at zero (exact zeros, and any lane whose planes it
        replaces); a flush-to-zero rounding adds its own.  While a
        collector is active the ``posit.nar`` and rounding events are
        tallied, unless ``tally`` is False."""
        dead = zero | nar
        tally = tally and _tele.current() is not None
        if tally:
            n = int(np.count_nonzero(nar))
            if n:
                _tele.event("posit.nar", n)
        f2, s2, flushed = self._round_mag(scale, frac, sticky, dead, tally)
        if flushed is not None:
            zero = zero | flushed
        return Unpacked(zero, nar, sign, f2, s2)

    def _encode(self, sign, scale, frac64, sticky, zero, nar):
        """Round and sign an exact result straight to bit patterns, with
        no event tallies (the float conversions)."""
        return self.encode_once(self._rounded(
            sign, _i64(scale), _u64(frac64), np.asarray(sticky, dtype=bool),
            zero, nar, tally=False))

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
        """Exact sum: ``(sign, scale, frac64, sticky, cancelled)`` —
        ``cancelled`` flags the exact zero results of opposite-sign
        adds (None when every lane adds same-sign operands)."""
        with _tele.span("posit.core.add"):
            sa, fa, ea = ua.sign, ua.frac64, ua.scale
            sb, fb, eb = ub.sign, ub.frac64, ub.scale
            same = sa == sb
            # Operand-dependent gating: probability workloads are almost
            # always sign-uniform (all positive), so compute each branch
            # only where some lane needs it.  Results are identical
            # either way (the merge selects per lane); the exhaustive
            # suites cover mixed batches.  The same-sign path also
            # serves the empty-array case.
            n_same = np.count_nonzero(same)
            any_diff = n_same != np.size(same)
            any_same = n_same != 0 or not any_diff
            # Dominant operand first: the larger scale, which is all a
            # same-sign sum needs (at equal scales it commutes), and at
            # equal scales the larger significand when a difference
            # needs the larger magnitude.
            a_small = ea < eb
            if any_diff:
                a_small = a_small | ((ea == eb) & (fa < fb))
            f1 = np.where(a_small, fb, fa)
            f2 = np.where(a_small, fa, fb)
            e1 = np.maximum(ea, eb)
            gap = e1 - np.minimum(ea, eb)
            # Align the small operand into a 128-bit window.  Shifts of
            # 64 or more give 0, so these two shifts place it for any
            # gap in [0, 64] (at gap > 64 the low count wraps past 63).
            gap_u = gap.view(_U64)
            b_hi = f2 >> gap_u
            b_lo = f2 << (_U64C - gap_u)
            gbig = gap >= _I64C
            any_big = np.count_nonzero(gbig)
            if any_big:
                # Past the high limb: the low limb holds f2 >> (gap-64)
                # and the bits shifted out below it are the sticky.
                g2 = gap_u - _U64C
                b_lo = np.where(gbig, f2 >> g2, b_lo)
                st_b = gbig & ((f2 & ((_ONE << g2) - _ONE)) != _U0)
            else:
                st_b = gbig  # all-False, correctly shaped

            if any_same:
                # Same sign: (f1, 0) + aligned B.  A carry renormalizes
                # by one bit, and the bit it shifts out joins the
                # sticky (``hi_s & carry`` is that bit on carry lanes).
                hi_s = f1 + b_hi
                carry = hi_s < f1
                frac_s = np.where(carry, (hi_s >> _ONE) | _TOP64, hi_s)
                sticky_s = (b_lo | (hi_s & carry)) != _U0
                if any_big:
                    sticky_s = sticky_s | st_b
                scale_s = e1 + carry

            if any_diff:
                # Opposite sign: (f1, 0) - aligned B, minus a borrow
                # when the alignment lost bits (true B is larger than
                # its truncation; the lost fraction survives as the
                # sticky).
                hi_d, lo_d = _sub128(f1, _U0, b_hi, b_lo,
                                     st_b.astype(np.uint64))
                cancelled = (hi_d == 0) & (lo_d == 0) & ~st_b
                msb = np.where(hi_d != 0, 64 + _bit_length64(hi_d),
                               _bit_length64(lo_d)) - 1
                shift_up = np.where(cancelled, 0, 127 - msb)
                hi_d, lo_d = _shl128(hi_d, lo_d, shift_up)
                scale_d = e1 - shift_up
                sticky_d = st_b | (lo_d != _U0)
                cancelled = cancelled & ~same
                s1 = np.where(a_small, sb, sa)
            else:
                cancelled = None
                s1 = sa | sb  # equal lane for lane, at the result shape

            if not any_diff:
                return s1, scale_s, frac_s, sticky_s, None
            if not any_same:
                return s1, scale_d, hi_d, sticky_d, cancelled
            return (s1, np.where(same, scale_s, scale_d),
                    np.where(same, frac_s, hi_d),
                    np.where(same, sticky_s, sticky_d), cancelled)

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
    def mul_unpacked(self, ua: Unpacked, ub: Unpacked) -> Unpacked:
        """Rounded product in the decoded plane (element-exact)."""
        sign, scale, frac, sticky = self._mul_core(ua, ub)
        return self._rounded(sign, scale, frac, sticky, ua.zero | ub.zero,
                             ua.nar | ub.nar)

    def add_unpacked(self, ua: Unpacked, ub: Unpacked) -> Unpacked:
        """Rounded sum in the decoded plane (element-exact), with the
        zero passthrough merges gated off when no operand lane is
        zero."""
        za, zb = ua.zero, ub.zero
        s1, scale, frac, sticky, mixed = self._add_core(ua, ub)
        # Passthrough lanes take an operand's planes below, so they are
        # rounded as zeros (dead lanes) like the cancelled ones.
        passed = za | zb
        zero = passed if mixed is None else passed | mixed
        out = self._rounded(s1, scale, frac, sticky, zero, ua.nar | ub.nar)
        if not np.count_nonzero(passed):
            return out
        # add(0, x) and add(x, 0) pass x through exactly.
        merged = ub.map(
            lambda b, a, r: np.where(za, b, np.where(zb, a, r)), ua, out)
        return merged._replace(zero=(za & zb) | (~passed & out.zero),
                               nar=out.nar)

    def sub_unpacked(self, ua: Unpacked, ub: Unpacked) -> Unpacked:
        """``a - b``: the sum with ``b``'s sign plane flipped — the
        scalar environment's ``add(a, neg(b))``, as negation is exact
        and fixes zero and NaR."""
        return self.add_unpacked(ua, ub._replace(sign=~ub.sign))

    def div_unpacked(self, ua: Unpacked, ub: Unpacked) -> Unpacked:
        """Correctly rounded quotient in the decoded plane (exact long
        division + one rounding), element-exact against
        ``PositEnv.div``: NaR for a zero or NaR divisor."""
        fa, fb, za = np.broadcast_arrays(ua.frac64, ub.frac64, ua.zero)
        frac, sticky, dec = self._divide_frac(fa, fb)
        return self._rounded(ua.sign ^ ub.sign, ua.scale - ub.scale - dec,
                             frac, sticky, za, ua.nar | ub.nar | ub.zero)

    def axpy_unpacked(self, a: Unpacked, x: Unpacked,
                      y: Unpacked) -> Unpacked:
        """``a*x + y`` with both roundings, in the decoded plane."""
        return self.add_unpacked(self.mul_unpacked(a, x), y)

    def sum_unpacked(self, u: Unpacked, axis: int = -1) -> Unpacked:
        """Index-order add fold along ``axis``, op-for-op the scalar
        ``acc = add(acc, v)`` fold.  It starts at the first slice:
        ``add(0, x)`` is an exact passthrough, so skipping the zero
        start changes no bit.  An empty axis sums to zero."""
        shape = u.shape
        n = shape[axis]
        lead = (slice(None),) * (axis % len(shape))
        if n == 0:
            return self.zeros_unpacked(shape[:len(lead)]
                                       + shape[len(lead) + 1:])
        acc = Unpacked(*[p[lead + (0,)] for p in u])
        for i in range(1, n):
            acc = self.add_unpacked(
                acc, Unpacked(*[p[lead + (i,)] for p in u]))
        return acc

    def dot_unpacked(self, ua: Unpacked, ub: Unpacked,
                     axis: int = -1) -> Unpacked:
        """Sum of products along ``axis`` (of the broadcast shape), op
        for op the base ``sum(mul(a, b))``: one rounding pass over the
        whole broadcast product (far better ufunc amortization than one
        per fold slice), then the index-order fold."""
        return self.sum_unpacked(self.mul_unpacked(ua, ub), axis)

    # ------------------------------------------------------------------
    # Order on the decoded plane (exact: no rounding)
    # ------------------------------------------------------------------
    def _order_planes(self, u: Unpacked):
        """``(hi, lo)`` int64/uint64 keys whose lexicographic order is
        the standard's total order of the patterns as two's-complement
        integers: NaR below every real, then the reals by value — the
        scalar ``gt``.  Finite nonzero lanes key on ``(scale,
        frac64)``, mirrored for negative values; zero keys ``(0, 0)``
        and NaR ``(int64 min, 0)``."""
        hi = u.scale + self._key_base  # >= 1 on finite nonzero lanes
        lo = u.frac64
        if np.count_nonzero(u.sign):
            hi = np.where(u.sign, -hi, hi)
            lo = np.where(u.sign, ~lo, lo)
        special = u.zero | u.nar
        if np.count_nonzero(special):
            hi = np.where(special, _I64MIN * u.nar, hi)
            lo = np.where(special, _U0, lo)
        return hi, lo

    def maximum_unpacked(self, ua: Unpacked, ub: Unpacked) -> Unpacked:
        """Elementwise larger value on the planes (``a`` on ties), the
        code-order ``maximum``'s choice lane for lane."""
        ha, la = self._order_planes(ua)
        hb, lb = self._order_planes(ub)
        take = (hb > ha) | ((hb == ha) & (lb > la))
        return ua.map(lambda a, b: np.where(take, b, a), ub)

    def argmax_unpacked(self, u: Unpacked, axis: int = -1) -> np.ndarray:
        """First index of the largest value along ``axis`` on the
        planes: the lanes holding the top ``hi`` key, then the first of
        them holding their top ``lo`` key."""
        hi, lo = self._order_planes(u)
        top = hi == hi.max(axis=axis, keepdims=True)
        lo = np.where(top, lo, _U0)
        return np.argmax(top & (lo == lo.max(axis=axis, keepdims=True)),
                         axis=axis)

    def amax_unpacked(self, u: Unpacked, axis: int = -1) -> Unpacked:
        """The largest value along ``axis``: the planes at
        :meth:`argmax_unpacked`'s index (the max fold keeps its first
        maximal element, so no rounding and no tie hazard)."""
        idx = np.expand_dims(self.argmax_unpacked(u, axis), axis)
        return u.map(lambda p: np.squeeze(
            np.take_along_axis(p, idx, axis=axis), axis))

    # ------------------------------------------------------------------
    # Packed-pattern arithmetic (the plane ops, decoded once and
    # assembled once)
    # ------------------------------------------------------------------
    def mul(self, a, b) -> np.ndarray:
        return self.encode_once(
            self.mul_unpacked(self.decode_once(a), self.decode_once(b)))

    def add(self, a, b) -> np.ndarray:
        return self.encode_once(
            self.add_unpacked(self.decode_once(a), self.decode_once(b)))

    def sub(self, a, b) -> np.ndarray:
        """``a - b`` — exactly the scalar environment's
        ``add(a, neg(b))``."""
        return self.encode_once(
            self.sub_unpacked(self.decode_once(a), self.decode_once(b)))

    def div(self, a, b) -> np.ndarray:
        """Correctly rounded quotient, element-exact against
        ``PositEnv.div``."""
        return self.encode_once(
            self.div_unpacked(self.decode_once(a), self.decode_once(b)))

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

    def maximum(self, a, b) -> np.ndarray:
        return self.encode_once(self.maximum_unpacked(
            self.decode_once(a), self.decode_once(b)))

    def amax(self, arr, axis: int = -1) -> np.ndarray:
        return self.encode_once(
            self.amax_unpacked(self.decode_once(arr), axis))

    def argmax(self, arr, axis: int = -1) -> np.ndarray:
        return self.argmax_unpacked(self.decode_once(arr), axis)

    # ------------------------------------------------------------------
    # Float conversions (convenience; encode side is exact)
    # ------------------------------------------------------------------
    def from_floats(self, values) -> np.ndarray:
        """Exact float64 -> posit conversion (vectorized encode)."""
        x = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(x)
        m, e = np.frexp(np.where(finite, x, 0.0))
        mant = np.abs(m * 9007199254740992.0).astype(np.uint64)  # 2**53
        bl = _bit_length64(mant)
        frac64 = mant << (_U64C - _u64(bl))
        scale = e.astype(np.int64) - 54 + bl
        return self._encode(np.signbit(x), scale, frac64, False, x == 0.0,
                            ~finite)

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
