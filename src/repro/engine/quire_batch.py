"""Batched quire accumulation: exact posit sums as uint64 limb arrays.

The scalar :class:`repro.formats.quire.Quire` holds one exact
fixed-point accumulator as an arbitrary-precision Python int scaled by
``2**-frac_bits``.  A :class:`BatchQuire` holds a whole *array* of such
accumulators as a ``(..., n_limbs)`` uint64 array — two's-complement,
little-endian limbs — and performs every accumulate/round step with
fixed-width integer array operations:

* a decoded posit (or an exact 128-bit posit product) lands in at most
  three limbs; the per-element limb offset scatter and the multi-limb
  carry propagation are both vectorized;
* the quire is sized like the scalar one (``frac_bits =
  2*|min_scale| + 2*nbits``) plus integer range for ``maxpos**2`` and a
  64-bit carry guard, so sums of up to ``2**63`` extreme products
  cannot wrap;
* the final :meth:`to_posit` rounding normalizes the limb array to a
  left-aligned 64-bit significand plus a sticky bit and reuses
  :class:`~repro.engine.posit_batch.BatchPosit`'s exact encoder.

Element-for-element equality with the scalar ``Quire`` is enforced by
``tests/test_engine_quire_batch.py`` (exhaustively at 8 bits).

Widths: the quire for posit(N, ES) spans ``4*(N-2)*2**ES + O(N)`` bits,
so the paper's posit(64, >=9) configurations would need thousands of
limbs per element — the quire-impracticality flip side of the paper's
large-ES accuracy argument.  The default ``max_limbs`` refuses such
configurations; pass a larger cap to pay the memory anyway.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry as _tele
from ..formats.posit import PositEnv
from .posit_batch import (
    BatchPosit,
    _bit_length64,
    _shr128,
    _u64,
    _umul64,
)

_U64 = np.uint64
_TOP64 = np.uint64(1) << np.uint64(63)


def quire_limbs(env: PositEnv) -> int:
    """Limbs needed for an exact accumulator over ``env``:
    fraction down to ``minpos**2``, integers up to ``maxpos**2``, a
    64-bit carry guard and a sign bit."""
    frac_bits = 2 * abs(env.min_scale) + 2 * env.nbits
    total = frac_bits + 2 * env.max_scale + 1 + 64 + 1
    return -(-total // 64)


class BatchQuire:
    """An array of exact accumulators bound to one posit environment.

    ``shape`` is the accumulator array shape; every accumulate method
    takes pattern arrays broadcastable to it.
    """

    def __init__(self, env: PositEnv, shape=(), max_limbs: int = 1024,
                 batch: BatchPosit = None):
        self.env = env
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        #: Fixed-point position: products reach down to minpos^2.
        self.frac_bits = 2 * abs(env.min_scale) + 2 * env.nbits
        self.n_limbs = quire_limbs(env)
        if self.n_limbs > max_limbs:
            raise ValueError(
                f"{env.name} needs a {self.n_limbs}-limb quire "
                f"(> max_limbs={max_limbs}); large-ES posits make wide "
                f"accumulators impractical — raise max_limbs to force it")
        self._batch = batch if batch is not None else BatchPosit(env)
        self._value = np.zeros(self.shape + (self.n_limbs,), dtype=np.uint64)
        self._nar = np.zeros(self.shape, dtype=bool)
        #: Scratch addend reused across accumulate calls (chained
        #: ``add_posit``/``add_product`` must not reallocate per term).
        self._addend = np.zeros_like(self._value)

    # ------------------------------------------------------------------
    def clear(self) -> "BatchQuire":
        self._value[...] = 0
        self._nar[...] = False
        return self

    @property
    def is_nar(self) -> np.ndarray:
        return self._nar.copy()

    # ------------------------------------------------------------------
    # Limb plumbing
    # ------------------------------------------------------------------
    def _gather(self, idx: np.ndarray) -> np.ndarray:
        """``value[..., idx]`` with per-element ``idx``; 0 out of range."""
        idx = np.asarray(idx)
        safe = np.clip(idx, 0, self.n_limbs - 1)
        out = np.take_along_axis(self._value, safe[..., None], axis=-1)
        out = out[..., 0]
        return np.where((idx < 0) | (idx >= self.n_limbs), _U64(0), out)

    def _scatter_chunks(self, bitpos: np.ndarray, chunks) -> np.ndarray:
        """The reusable addend limb array with ``chunks[j]`` placed at
        bit offset ``bitpos + 64*j``.  ``bitpos`` must be >= 0; writes
        beyond the top limb carry no set bits (guard sizing) and are
        dropped.

        Each piece lands in its own limb per element (offsets are
        ``limb + i`` for distinct ``i``), so pieces scatter straight
        into the preallocated addend — processed highest-first so a
        clamped out-of-range write never clobbers an in-range one.
        """
        limb = (bitpos // 64).astype(np.intp)
        off = _u64(bitpos - limb * 64)  # in [0, 63]: plain shifts apply
        off_zero = off == 0
        spill = (_U64(64) - off) & _U64(63)  # shift count for the carry
        prev_hi = np.zeros(self.shape, dtype=np.uint64)
        pieces = []
        for chunk in chunks:
            chunk = _u64(chunk)
            pieces.append((chunk << off) | prev_hi)
            # off == 0 spills nothing (spill is 0 there, a no-op shift
            # that the mask discards).
            prev_hi = np.where(off_zero, _U64(0), chunk >> spill)
        pieces.append(prev_hi)
        addend = self._addend
        addend[...] = 0
        top = self.n_limbs - 1
        for j in range(len(pieces) - 1, -1, -1):
            idx = limb + j
            in_range = idx <= top
            np.put_along_axis(
                addend, np.minimum(idx, top)[..., None],
                np.where(in_range, pieces[j], _U64(0))[..., None], axis=-1)
        return addend

    def _accumulate(self, addend: np.ndarray, negate: np.ndarray) -> None:
        """``value += addend`` (or ``-= `` on negated lanes), two's
        complement across limbs; wraparound is precluded by the guard
        sizing.  Runs in place on the limb views (no per-term
        temporaries beyond the carry lane)."""
        negate = np.broadcast_to(negate, self.shape)
        carry = negate.astype(np.uint64)
        value = self._value
        for i in range(self.n_limbs):
            a_i = np.where(negate, ~addend[..., i], addend[..., i])
            v_i = value[..., i]
            np.add(v_i, a_i, out=v_i)
            c1 = v_i < a_i
            np.add(v_i, carry, out=v_i)
            c2 = v_i < carry
            carry = (c1 | c2).astype(np.uint64)

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add_posit(self, bits, negate=False) -> "BatchQuire":
        """Accumulate one array of posit values exactly."""
        with np.errstate(over="ignore"):
            bits = np.broadcast_to(_u64(bits), self.shape)
            u = self._batch.decode_once(bits)
            if _tele.current() is not None:
                self._tally(u.nar)
            self._nar |= u.nar
            dead = u.zero | u.nar
            frac64 = np.where(dead, _U64(0), u.frac64)
            # Value = frac64 * 2**(scale - 63): bit 0 of frac64 sits at
            # fixed-point position frac_bits + scale - 63.  When that is
            # negative the low frac64 bits there are zeros by
            # construction (a decoded posit has <= nbits-2 significant
            # bits), so the pre-shift is exact.
            bitpos = np.where(dead, 0, self.frac_bits + u.scale - 63)
            under = np.maximum(-bitpos, 0)
            frac64 = frac64 >> _u64(under)
            bitpos = np.maximum(bitpos, 0)
            addend = self._scatter_chunks(bitpos, [frac64])
            self._accumulate(addend, np.asarray(u.sign) ^ bool(negate))
        return self

    def sub_posit(self, bits) -> "BatchQuire":
        return self.add_posit(bits, negate=True)

    def add_product(self, a_bits, b_bits, negate=False) -> "BatchQuire":
        """Fused multiply-accumulate: += (or -=) a*b, exactly."""
        with np.errstate(over="ignore"):
            a_bits = np.broadcast_to(_u64(a_bits), self.shape)
            b_bits = np.broadcast_to(_u64(b_bits), self.shape)
            ua = self._batch.decode_once(a_bits)
            ub = self._batch.decode_once(b_bits)
            if _tele.current() is not None:
                self._tally(ua.nar | ub.nar)
            self._nar |= ua.nar | ub.nar
            dead = ua.zero | ub.zero | ua.nar | ub.nar
            hi, lo = _umul64(ua.frac64, ub.frac64)
            hi = np.where(dead, _U64(0), hi)
            lo = np.where(dead, _U64(0), lo)
            # Product = (hi, lo) * 2**(ea + eb - 126); the two factors
            # carry at most 2*(nbits - 2) significant bits between them,
            # so a negative bit position only ever shifts out zeros.
            bitpos = np.where(dead, 0,
                              self.frac_bits + ua.scale + ub.scale - 126)
            under = np.maximum(-bitpos, 0)
            hi, lo = _shr128(hi, lo, under)
            bitpos = np.maximum(bitpos, 0)
            addend = self._scatter_chunks(bitpos, [lo, hi])
            self._accumulate(addend,
                             np.asarray(ua.sign ^ ub.sign) ^ bool(negate))
        return self

    def _tally(self, nar_in: np.ndarray) -> None:
        """Count accumulated terms and newly NaR-poisoned lanes (only
        called while a telemetry collector is active)."""
        _tele.count("quire.accumulate", int(np.prod(self.shape or (1,))))
        n = int(np.count_nonzero(nar_in & ~self._nar))
        if n:
            _tele.event("quire.nar", n)

    # ------------------------------------------------------------------
    # Rounding
    # ------------------------------------------------------------------
    def to_posit(self) -> np.ndarray:
        """Round every accumulator to a posit (the only rounding)."""
        if _tele.current() is not None:
            _tele.count("quire.to_posit",
                        int(np.prod(self.shape or (1,))))
        with np.errstate(over="ignore"):
            return self._to_posit()

    def _to_posit(self) -> np.ndarray:
        value = self._value
        sign = (value[..., -1] & _TOP64) != 0
        # |value| limbs: two's-complement negate the negative lanes.
        mag = np.where(sign[..., None], ~value, value)
        carry = sign.astype(np.uint64)
        for i in range(self.n_limbs):
            s = mag[..., i] + carry
            carry = (s < carry).astype(np.uint64)
            mag[..., i] = s
        nonzero = mag != 0
        # Highest nonzero limb via one argmax over the reversed limb
        # axis, then one bit-length on that limb alone.
        any_nz = nonzero.any(axis=-1)
        top_idx = (self.n_limbs - 1
                   - np.argmax(nonzero[..., ::-1], axis=-1).astype(np.int64))
        top_limb = np.take_along_axis(mag, top_idx[..., None],
                                      axis=-1)[..., 0]
        msb = np.where(any_nz, top_idx * 64 + _bit_length64(top_limb) - 1,
                       np.int64(-1))
        is_zero = msb < 0
        scale = msb - self.frac_bits
        # 64-bit window [msb-63, msb] + sticky for everything below.
        shift_r = msb - 63  # may be negative (small values)
        limb = np.floor_divide(shift_r, 64).astype(np.intp)
        off = _u64(shift_r - limb * 64)
        low = self._take_mag(mag, limb)
        high = self._take_mag(mag, limb + 1)
        frac64 = (low >> off) | (high << (_U64(64) - off))  # high << 64 is 0
        below = np.zeros(self.shape + (self.n_limbs,), dtype=bool)
        below[..., 1:] = np.logical_or.accumulate(nonzero, axis=-1)[..., :-1]
        below_limb = np.take_along_axis(
            below, np.clip(limb, 0, self.n_limbs - 1)[..., None],
            axis=-1)[..., 0] & (limb > 0)
        sticky = below_limb | ((low & ((_U64(1) << off) - _U64(1))) != 0)
        sticky = np.where(limb < 0, False, sticky)
        frac64 = np.where(is_zero, _U64(1) << _U64(63), frac64)
        return self._batch._encode(sign, np.where(is_zero, 0, scale),
                                   frac64, sticky, is_zero, self._nar)

    def _take_mag(self, mag: np.ndarray, idx: np.ndarray) -> np.ndarray:
        safe = np.clip(idx, 0, self.n_limbs - 1)
        out = np.take_along_axis(mag, safe[..., None], axis=-1)[..., 0]
        return np.where((idx < 0) | (idx >= self.n_limbs), _U64(0), out)

    def __repr__(self):
        return (f"BatchQuire({self.env.name}: shape={self.shape}, "
                f"{self.n_limbs} limbs)")


# ----------------------------------------------------------------------
# Fused reductions (the standard's fdp, batched)
# ----------------------------------------------------------------------
def fused_dot_product_batch(env: PositEnv, xs, ys, axis: int = -1,
                            max_limbs: int = 1024) -> np.ndarray:
    """Correctly rounded dot products along ``axis``: one rounding per
    output element (the batched counterpart of
    :func:`repro.formats.quire.fused_dot_product`)."""
    xs = np.moveaxis(_u64(xs), axis, -1)
    ys = np.moveaxis(_u64(ys), axis, -1)
    xs, ys = np.broadcast_arrays(xs, ys)
    q = BatchQuire(env, xs.shape[:-1], max_limbs=max_limbs)
    for i in range(xs.shape[-1]):
        q.add_product(xs[..., i], ys[..., i])
    return q.to_posit()


def fused_sum_batch(env: PositEnv, arr, axis: int = -1,
                    max_limbs: int = 1024) -> np.ndarray:
    """Exact sums along ``axis``, rounded once per output element (the
    batched counterpart of :meth:`PositEnv.fused_sum`)."""
    arr = np.moveaxis(_u64(arr), axis, -1)
    q = BatchQuire(env, arr.shape[:-1], max_limbs=max_limbs)
    for i in range(arr.shape[-1]):
        q.add_posit(arr[..., i])
    return q.to_posit()
