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
reads off that pattern.

A call whose live lanes all have regime runs up to ``nbits - 3 - es``
(the cut keeps a fraction bit) skips the long-regime cases.  So every
regime also rounds in a call of its own, the runs around the cut's
moves into the exponent field and into the regime are pinned in every
configuration, and one call per configuration mixes every regime with
lanes flagged zero and NaR.  Every call rounds while a collector
tallies, and the ``posit.saturate``/``posit.flush`` tallies must count
the cases above maxpos and those flush mode takes to zero.  Pattern
assembly (``encode_once``) is pinned on a structured set of
exactly representable planes, and decoding on every regime/exponent
boundary pattern, against ``PositEnv``.
"""

import random

import numpy as np
import pytest

from repro import telemetry
from repro.engine import BatchPosit
from repro.engine.posit_batch import Unpacked
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
#: Every configuration the rounding is checked in (an odd width too:
#: the regime terminator's parity against the scale depends on it).
_CONFIGS = [(64, 0), (64, 2), (64, 9), (64, 12), (64, 18), (32, 2),
            (32, 6), (16, 1), (9, 1), (8, 0), (8, 2)]


def _exponents(es):
    return sorted({0, 1, 1 << (es - 1), (1 << es) - 1}) if es else [0]


def _tail(k, e, cut, es, body=_BODY):
    """The exponent + fraction tail (``es + 63`` bits) for regime ``k``
    of a posit with ``body`` bits after the sign, with the dropped bits
    below the cut set by ``cut``.  Where the cut falls inside the
    exponent field, ``cut`` overrides its low bits."""
    run = k + 1 if k >= 0 else -k
    tail_len = es + _FRAC
    kept = min(max(body - (run + 1), 0), tail_len)
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


def _rounding_cases(es, regimes=range(-64, 64), body=_BODY):
    """Deduplicated ``(sign, scale, frac64, sticky)`` cases, each with
    the ``(k, e, cut, sticky)`` that produced it."""
    cases = {}
    for k in regimes:
        for e in _exponents(es):
            for cut in _CUTS:
                tail = _tail(k, e, cut, es, body)
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
    for name in ("sign", "frac64", "scale"):
        bad = np.flatnonzero(live & (getattr(u, name) != getattr(ref, name)))
        assert bad.size == 0, f"{name} plane differs at {where(bad[0])}"


def _regime(env, scale):
    return scale >> env.es


def _run(env, scale):
    """The regime run of an exact value's scale (unbounded by the
    body)."""
    k = _regime(env, scale)
    return k + 1 if k >= 0 else -k


def _above_maxpos(env, scale, frac64, sticky):
    """``|x| > maxpos = 2**max_scale`` for ``x`` in ``[2**scale,
    2**(scale + 1))``: equal to ``2**scale`` only with no bit set below
    the leading one."""
    return scale > env.max_scale or (
        scale == env.max_scale and (frac64 != 1 << 63 or sticky))


def _check_call(env, keys, label, zero=None, nar=None):
    """Round ``keys`` in one call, ``zero``/``nar`` flagging the lanes
    the caller decides (their planes are meaningless): the patterns
    must be ``encode_real``'s (0 and NaR on flagged lanes) and the
    planes ``decode_once``'s of them.  The call runs while a collector
    tallies: ``posit.nar`` counts the NaR lanes, ``posit.saturate`` the
    live cases above maxpos and ``posit.flush`` those flush mode rounds
    to zero, in either mode."""
    bp = BatchPosit(env)
    sign, scale, frac64, sticky = _arrays(keys)
    none = np.zeros(sign.shape, dtype=bool)
    zero = none if zero is None else np.asarray(zero)
    nar = none if nar is None else np.asarray(nar)
    live = [c for c, dead in zip(keys, zero | nar) if not dead]
    expected = np.array([0 if z else env.nar if n else _reference(env, *c)
                         for c, z, n in zip(keys, zero, nar)],
                        dtype=np.uint64)
    flush_env = PositEnv(env.nbits, env.es, FLUSH)
    with telemetry.collect() as t:
        u = bp._rounded(sign, scale, frac64, sticky, zero, nar)
    got = bp.encode_once(u)
    bad = np.flatnonzero(got != expected)
    assert bad.size == 0, (
        f"{len(bad)} mismatches in {env!r}; first {label(bad[0])}: "
        f"got {int(got[bad[0]]):#x}, want {int(expected[bad[0]]):#x}")
    _assert_planes_match_decode(bp, u, expected, label)
    tallies = (t.events.get("posit.nar", 0),
               t.events.get("posit.saturate", 0),
               t.events.get("posit.flush", 0))
    assert tallies == (
        int(np.count_nonzero(nar)),
        sum(_above_maxpos(env, *c[1:]) for c in live),
        sum(_reference(flush_env, *c) == 0 for c in live)), env


def _check_rounding(env, keys, label):
    """:func:`_check_call` once per regime ``k`` of the exact values,
    so the regimes whose cut keeps a fraction bit round in calls that
    skip the long-regime cases."""
    by_k = {}
    for i, key in enumerate(keys):
        by_k.setdefault(_regime(env, key[1]), []).append(i)
    for idx in by_k.values():
        _check_call(env, [keys[i] for i in idx],
                    lambda j, idx=idx: label(idx[j]))


@pytest.mark.parametrize("es", _ES)
@pytest.mark.parametrize("underflow", _MODES)
def test_rounding_matches_encode_real_at_every_scale(es, underflow):
    env = PositEnv(64, es, underflow)
    cases = _rounding_cases(es)
    keys = list(cases)
    _check_rounding(env, keys,
                    lambda i: "(k, e, cut, sticky) = %r" % (cases[keys[i]],))


@pytest.mark.parametrize("nbits,es", _CONFIGS)
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


def _labelled(cases):
    keys = list(cases)
    return keys, lambda i: "(k, e, cut, sticky) = %r" % (cases[keys[i]],)


@pytest.mark.parametrize("nbits,es", _CONFIGS)
@pytest.mark.parametrize("underflow", _MODES)
def test_gate_boundary(nbits, es, underflow):
    """Either side of the gate that skips the long-regime cases: regime
    runs ``nbits - 3 - es`` (the last whose cut keeps a fraction bit),
    ``nbits - 2 - es`` (the first cut in the exponent field) and
    ``nbits - 1`` (the regime fills the body), above and below 1, each
    in a call of its own; then every regime in one call with lanes
    flagged zero and NaR at both ends of the scale range.  Every call's
    patterns, planes and tallies are ``encode_real``'s."""
    env = PositEnv(nbits, es, underflow)
    limit = nbits - 3 - es
    for run in (limit, limit + 1, nbits - 1):
        for k in (run - 1, -run):  # k >= 0 has run k + 1, k < 0 has -k
            keys, label = _labelled(_rounding_cases(es, [k], nbits - 1))
            # The first two calls hold fraction cuts only.
            assert {_run(env, c[1]) for c in keys} == {run}
            _check_call(env, keys, label)
    keys, label = _labelled(_rounding_cases(es, range(-nbits, nbits),
                                            nbits - 1))
    runs = {_run(env, c[1]) for c in keys}
    assert min(runs) <= limit and nbits - 1 in runs and max(runs) > nbits - 1
    far = [(False, -8 * env.max_scale, 1 << 63, True),
           (True, 8 * env.max_scale, (1 << 64) - 1, False)] * 2
    flags = [False] * len(keys)
    _check_call(env, keys + far, label,
                zero=flags + [True, True, False, False],
                nar=flags + [False, False, True, True])


def _assembly_patterns(env):
    """Every regime of ``env`` (minpos to maxpos) with the exponent
    values of :func:`_exponents` and a fraction of 0, its last kept bit
    or all ones, cut to the body where the regime leaves no room, in
    both signs."""
    es, body_len = env.es, env.nbits - 1
    pats = set()
    for k in range(-(env.nbits - 2), env.nbits - 1):
        run = k + 1 if k >= 0 else -k
        regime = ((1 << run) - 1) << 1 if k >= 0 else 1
        f_len = max(body_len - (run + 1) - es, 0)
        length = run + 1 + es + f_len
        for e in _exponents(es):
            for f in {0, 1 if f_len else 0, (1 << f_len) - 1}:
                body = ((((regime << es) | e) << f_len) | f) \
                    >> (length - body_len)
                pats.update((body, (-body) & env.mask))
    return sorted(pats)


@pytest.mark.parametrize("nbits,es", [(64, 9), (64, 12), (64, 18), (32, 2),
                                      (32, 6), (16, 1)])
def test_encode_once_assembles_the_scalar_pattern(nbits, es):
    """``encode_once`` builds the exact pattern from planes holding a
    posit value — ``PositEnv``'s pattern, with no rounding — and fixes
    zero and NaR lanes whatever their planes hold."""
    env = PositEnv(nbits, es)
    pats = _assembly_patterns(env)
    sign, frac64, scale = [], [], []
    for p in pats:
        value = env.decode(p)
        mb = value.mantissa.bit_length()
        sign.append(bool(value.sign))
        frac64.append(value.mantissa << (64 - mb))
        scale.append(value.exponent + mb - 1)
    flags = [False] * len(pats)
    u = Unpacked(np.array(flags + [True, False]),
                 np.array(flags + [False, True]),
                 np.array(sign + [True, True]),
                 np.array(frac64 + [(1 << 64) - 1] * 2, dtype=np.uint64),
                 np.array(scale + [3, -3 * env.max_scale], dtype=np.int64))
    got = BatchPosit(env).encode_once(u).tolist()
    assert got == pats + [0, env.nar]


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
        got = (bool(u.zero[i]), bool(u.nar[i]))
        assert got == (value is ZERO, value is NAR), hex(p)
        if value is ZERO or value is NAR:
            continue
        mb = value.mantissa.bit_length()
        assert (bool(u.sign[i]), int(u.frac64[i]), int(u.scale[i])) == (
            bool(value.sign), value.mantissa << (64 - mb),
            value.exponent + mb - 1), hex(p)


@pytest.mark.parametrize("es", _ES)
@pytest.mark.parametrize("underflow", _MODES)
def test_op_planes_match_decode_once_of_their_patterns(es, underflow):
    """The planes the rounding plane ops hand to the next op are the
    planes a fresh decode of their result pattern gives."""
    env = PositEnv(64, es, underflow)
    bp = BatchPosit(env)
    pats = _boundary_patterns(env)
    rng = random.Random(es)
    a = np.array(pats, dtype=np.uint64)
    b = np.array(rng.sample(pats, len(pats)), dtype=np.uint64)
    ua, ub = bp.decode_once(a), bp.decode_once(b)
    for op in ("mul", "add", "sub", "div"):
        u = getattr(bp, op + "_unpacked")(ua, ub)
        expected = bp.encode_once(u)
        for i in range(0, len(pats), 97):
            assert int(expected[i]) == getattr(env, op)(int(a[i]),
                                                        int(b[i]))
        _assert_planes_match_decode(
            bp, u, expected,
            lambda i: f"{op}({int(a[i]):#x}, {int(b[i]):#x})")
