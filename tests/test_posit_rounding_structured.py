"""The one posit rounding, pinned scale by scale at 64 bits.

Random patterns rarely produce long regimes, where the rounding cut
falls inside the exponent field or the regime itself.  These cases walk
the scale axis instead: every regime ``k`` in [-64, 63] (one past
saturation and past minpos on each side), exponent values {0, 1,
2**(es-1), 2**es - 1}, and every class of dropped bits at the cut
(exact, below half, tie to an even or odd kept pattern, above half, and
an all-ones tail whose round-up carries through the kept fraction into
the exponent, the regime or saturation), with the sticky tail off or
on.  ``BatchPosit``'s rounding must give ``PositEnv.encode_real``'s
pattern, and the planes it produces must be the planes ``decode_once``
reads off that pattern.  Decoding is pinned the same way, on every
regime/exponent boundary pattern against ``PositEnv.decode``.
"""

import random

import numpy as np
import pytest

from repro.engine import BatchPosit
from repro.formats import PositEnv
from repro.formats.posit import FLUSH, NAR, SATURATE, ZERO
from repro.formats.real import Real

_ES = (9, 12, 18)
_MODES = (SATURATE, FLUSH)
_CUTS = ("exact", "below", "tie_even", "tie_odd", "above", "carry")
_BODY = 63  # body bits of a 64-bit posit (after the sign)
_FRAC = 63  # fraction bits below frac64's leading 1
_FRAC_MASK = (1 << _FRAC) - 1
_BASE_FRAC = _FRAC_MASK // 3  # alternating kept fraction bits


def _exponents(es):
    return sorted({0, 1, 1 << (es - 1), (1 << es) - 1})


def _tail(k, e, cut, es):
    """The exponent + fraction tail (``es + 63`` bits) for regime ``k``
    with the dropped bits below the cut set by ``cut``.  Where the cut
    falls inside the exponent field, ``cut`` overrides its low bits."""
    run = k + 1 if k >= 0 else -k
    tail_len = es + _FRAC
    kept = min(max(_BODY - (run + 1), 0), tail_len)
    drop = tail_len - kept  # >= 1: the fraction never fits whole
    low = (1 << drop) - 1
    half = 1 << (drop - 1)
    if cut == "carry":
        return (e << _FRAC) | _FRAC_MASK | low
    tail = ((e << _FRAC) | _BASE_FRAC) & ~low
    tail |= {"exact": 0, "below": half >> 1, "tie_even": half,
             "tie_odd": half, "above": half | 1}[cut]
    if kept and cut in ("tie_even", "tie_odd"):
        parity = 1 << drop  # the kept pattern's last bit
        tail = tail | parity if cut == "tie_odd" else tail & ~parity
    return tail


def _rounding_cases(es):
    """Deduplicated ``(sign, scale, frac64, sticky)`` cases, each with
    the ``(k, e, cut, sticky)`` that produced it."""
    cases = {}
    for k in range(-64, 64):
        for e in _exponents(es):
            for cut in _CUTS:
                tail = _tail(k, e, cut, es)
                scale = (k << es) + (tail >> _FRAC)
                frac64 = (1 << 63) | (tail & _FRAC_MASK)
                for sticky in (False, True):
                    key = (bool(k & 1), scale, frac64, sticky)
                    cases.setdefault(key, (k, e, cut, sticky))
    return cases


def _reference(env, sign, scale, frac64, sticky):
    """``PositEnv.encode_real`` of ``frac64 * 2**(scale - 63)`` plus a
    nonzero tail below it when ``sticky``."""
    return env.encode_real(Real(int(sign), (frac64 << 1) | int(sticky),
                                scale - 64))


def _arrays(keys):
    sign, scale, frac64, sticky = zip(*keys)
    return (np.array(sign, dtype=bool), np.array(scale, dtype=np.int64),
            np.array(frac64, dtype=np.uint64), np.array(sticky, dtype=bool))


def _assert_planes_match_decode(bp, u, expected, where):
    """Every plane of the rounded result ``u`` equals the plane
    ``decode_once`` reads off its pattern: ``nar`` everywhere, ``zero``
    off NaR lanes, and the value planes on finite nonzero lanes, where
    they carry a value (the flags override the rest, as in
    ``encode_once``)."""
    ref = bp.decode_once(expected)
    bad = np.flatnonzero((u.nar != ref.nar) | (~ref.nar & (u.zero != ref.zero)))
    assert bad.size == 0, f"flags differ at {where(bad[0])}"
    live = ~(ref.zero | ref.nar)
    for name in ("sign", "frac64", "scale", "mag"):
        bad = np.flatnonzero(live & (getattr(u, name) != getattr(ref, name)))
        assert bad.size == 0, f"{name} plane differs at {where(bad[0])}"


def _check_rounding(env, keys, label):
    bp = BatchPosit(env)
    sign, scale, frac64, sticky = _arrays(keys)
    expected = np.array([_reference(env, *c) for c in keys],
                        dtype=np.uint64)
    got = bp._encode(sign, scale, frac64, sticky)
    bad = np.flatnonzero(got != expected)
    assert bad.size == 0, (
        f"{len(bad)} mismatches in {env!r}; first {label(bad[0])}: "
        f"got {int(got[bad[0]]):#x}, want {int(expected[bad[0]]):#x}")
    none = np.zeros(sign.shape, dtype=bool)
    u = bp._rounded(sign, scale, frac64, sticky, none, none, None)
    assert np.array_equal(bp.encode_once(u), expected)
    _assert_planes_match_decode(bp, u, expected, label)


@pytest.mark.parametrize("es", _ES)
@pytest.mark.parametrize("underflow", _MODES)
def test_rounding_matches_encode_real_at_every_scale(es, underflow):
    env = PositEnv(64, es, underflow)
    cases = _rounding_cases(es)
    keys = list(cases)
    _check_rounding(env, keys,
                    lambda i: "(k, e, cut, sticky) = %r" % (cases[keys[i]],))


@pytest.mark.parametrize("nbits,es", [(64, 0), (64, 2), (64, 9), (64, 12),
                                      (64, 18), (32, 2), (16, 1), (8, 0),
                                      (8, 2)])
@pytest.mark.parametrize("underflow", _MODES)
def test_rounding_matches_encode_real_on_sampled_scales(nbits, es,
                                                        underflow):
    """Random significands at scales drawn across the whole range (and
    a regime beyond it on each side), in narrower configurations too."""
    env = PositEnv(nbits, es, underflow)
    rng = random.Random(nbits * 100 + es)
    reach = env.max_scale + 2 * env.useed_log2
    keys = [(rng.random() < 0.5, rng.randint(-reach, reach),
             (1 << 63) | rng.getrandbits(63), rng.random() < 0.5)
            for _ in range(1500)]
    _check_rounding(env, keys, lambda i: "case %r" % (keys[i],))


def _boundary_patterns(env):
    """Patterns at every regime/exponent boundary of a 64-bit posit:
    each regime ``k`` with the exponent values of :func:`_exponents`
    and an empty, lowest, top or full fraction, truncated to the body,
    with both neighbours and both signs."""
    es = env.es
    pats = {0, env.nar}
    for k in range(-62, 63):
        run = k + 1 if k >= 0 else -k
        regime = ((1 << run) - 1) << 1 if k >= 0 else 1
        length = run + 1 + es + _FRAC
        for e in _exponents(es):
            for f in (0, 1, 1 << 62, _FRAC_MASK):
                body = ((((regime << es) | e) << _FRAC) | f) \
                    >> (length - _BODY)
                for b in (body - 1, body, body + 1):
                    if 0 < b < env.sign_bit:
                        pats.update((b, (-b) & env.mask))
    return sorted(pats)


@pytest.mark.parametrize("es", _ES)
def test_decode_planes_match_scalar_decode_at_boundaries(es):
    env = PositEnv(64, es)
    pats = _boundary_patterns(env)
    u = BatchPosit(env).decode_once(np.array(pats, dtype=np.uint64))
    for i, p in enumerate(pats):
        value = env.decode(p)
        sign = p >= env.sign_bit
        mag = ((-p) & env.mask if sign else p) & (env.sign_bit - 1)
        got = (bool(u.zero[i]), bool(u.nar[i]), int(u.mag[i]))
        assert got == (value is ZERO, value is NAR, mag), hex(p)
        if value is ZERO or value is NAR:
            continue
        mb = value.mantissa.bit_length()
        assert (bool(u.sign[i]), int(u.frac64[i]), int(u.scale[i])) == (
            bool(value.sign), value.mantissa << (64 - mb),
            value.exponent + mb - 1), hex(p)


@pytest.mark.parametrize("es", _ES)
@pytest.mark.parametrize("underflow", _MODES)
def test_op_planes_match_decode_once_of_their_patterns(es, underflow):
    """The planes ``mul_unpacked``/``add_unpacked`` hand to the next op
    are the planes a fresh decode of their result pattern gives."""
    env = PositEnv(64, es, underflow)
    bp = BatchPosit(env)
    pats = _boundary_patterns(env)
    rng = random.Random(es)
    a = np.array(pats, dtype=np.uint64)
    b = np.array(rng.sample(pats, len(pats)), dtype=np.uint64)
    ua, ub = bp.decode_once(a), bp.decode_once(b)
    for op in ("mul", "add"):
        u = getattr(bp, op + "_unpacked")(ua, ub)
        expected = bp.encode_once(u)
        for i in range(0, len(pats), 97):
            assert int(expected[i]) == getattr(env, op)(int(a[i]),
                                                        int(b[i]))
        _assert_planes_match_decode(
            bp, u, expected,
            lambda i: f"{op}({int(a[i]):#x}, {int(b[i]):#x})")
