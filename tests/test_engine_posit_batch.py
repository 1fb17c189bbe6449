"""BatchPosit must be element-exact against the scalar PositEnv.

The scalar environment is itself validated against an independent posit
reference (tests/test_posit_independent_reference.py), so agreement here
chains the batched datapath to that oracle.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine import BatchPosit
from repro.formats import PositEnv, Real
from repro.formats.posit import FLUSH, SATURATE


def _special_patterns(env):
    return [0, env.nar, env.minpos, env.maxpos, env.minpos + 1,
            env.maxpos - 1, env.mask, (env.sign_bit + 1) & env.mask,
            env.from_float(1.0), env.from_float(-1.0)]


def _random_patterns(env, n, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(env.nbits) for _ in range(n)]


def _check_ops(env, a_list, b_list):
    bp = BatchPosit(env)
    a = np.array(a_list, dtype=np.uint64)
    b = np.array(b_list, dtype=np.uint64)
    got_add = bp.add(a, b)
    got_mul = bp.mul(a, b)
    for i, (pa, pb) in enumerate(zip(a_list, b_list)):
        assert int(got_add[i]) == env.add(pa, pb), \
            f"add({pa:#x}, {pb:#x}) in {env!r}"
        assert int(got_mul[i]) == env.mul(pa, pb), \
            f"mul({pa:#x}, {pb:#x}) in {env!r}"


@pytest.mark.parametrize("nbits,es", [(64, 9), (64, 12), (64, 18),
                                      (32, 2), (16, 1), (8, 0)])
@pytest.mark.parametrize("underflow", [SATURATE, FLUSH])
def test_random_patterns_element_exact(nbits, es, underflow):
    env = PositEnv(nbits, es, underflow)
    n = 300
    a = _random_patterns(env, n, seed=nbits * 100 + es)
    b = _random_patterns(env, n, seed=nbits * 100 + es + 1)
    spec = _special_patterns(env)
    _check_ops(env, a + spec, b + list(reversed(spec)))


def test_special_cross_product_64_12():
    env = PositEnv(64, 12)
    spec = _special_patterns(env)
    a = [x for x in spec for _ in spec]
    b = [y for _ in spec for y in spec]
    _check_ops(env, a, b)


def test_deep_magnitudes_and_cancellation():
    """Operand pairs engineered into the hard corners: huge alignment
    gaps (sticky-only contributions), near-total cancellation, and
    sub-minpos results in both underflow modes."""
    for underflow in (SATURATE, FLUSH):
        env = PositEnv(64, 9, underflow)
        tiny = env.minpos
        big = env.maxpos
        x = env.from_float(1.0 + 2 ** -40)
        y = env.neg(env.from_float(1.0))
        pairs = [
            (tiny, tiny),                  # deepest same-sign add
            (tiny, env.neg(tiny)),         # exact cancellation -> zero
            (big, tiny),                   # alignment gap >> 128 bits
            (big, env.neg(tiny)),          # sticky borrow path
            (x, y),                        # catastrophic cancellation
            (tiny, env.neg(env.minpos + 1)),
            (env.from_float(2.0 ** -300), env.from_float(2.0 ** -300)),
        ]
        _check_ops(env, [p[0] for p in pairs], [p[1] for p in pairs])
        # mul products land below minpos -> saturate/flush divergence
        deep = env.from_float(2.0 ** -1000)
        muls = [(deep, deep), (tiny, tiny), (tiny, env.neg(tiny))]
        _check_ops(env, [p[0] for p in muls], [p[1] for p in muls])


def _regime_run(env, pattern):
    """The regime run of a pattern's magnitude (None for zero, NaR)."""
    if pattern in (0, env.nar):
        return None
    mag = (-pattern) & env.mask if pattern >= env.sign_bit else pattern
    body = format(mag, f"0{env.nbits - 1}b")
    return len(body) - len(body.lstrip(body[0]))


def _calls_by_result_regime(env, a, b, want):
    """Index groups of one op's pattern pairs, one rounding call each:
    the pairs with a zero or NaR operand (lanes the flags decide) spread
    over every group, the others grouped by the regime run of the
    reference result — so the calls whose results keep a fraction bit
    skip the long-regime cases of the rounding."""
    dead = np.isin(a, [0, env.nar]) | np.isin(b, [0, env.nar])
    runs = {}
    for i in np.flatnonzero(~dead):
        runs.setdefault(_regime_run(env, int(want[i])), []).append(i)
    groups = list(runs.values())
    for j, i in enumerate(np.flatnonzero(dead)):
        groups[j % len(groups)].append(i)
    return [np.array(g) for g in groups]


def _plane_call(bp, op, *operands, **kw):
    """``<op>_unpacked`` on the operand patterns: its result as
    assembled patterns, or the indices of ``argmax``."""
    out = getattr(bp, op + "_unpacked")(
        *(bp.decode_once(x) for x in operands), **kw)
    return out if op == "argmax" else bp.encode_once(out)


def _check_exhaustive(env, ops):
    """Every posit(8, es) pattern pair through each rounding op's plane
    form, one call per :func:`_calls_by_result_regime` group, and
    through the packed op in one call, against the scalar
    environment."""
    bp = BatchPosit(env)
    pats = np.arange(256, dtype=np.uint64)
    a, b = [g.ravel() for g in np.meshgrid(pats, pats)]
    for op in ops:
        want = np.fromiter(
            (getattr(env, op)(int(x), int(y)) for x, y in zip(a, b)),
            dtype=np.uint64, count=a.size)
        for idx in _calls_by_result_regime(env, a, b, want):
            got = _plane_call(bp, op, a[idx], b[idx])
            bad = np.flatnonzero(got != want[idx])
            assert bad.size == 0, (
                f"{op}({int(a[idx][bad[0]]):#x}, {int(b[idx][bad[0]]):#x})"
                f" in {env!r}")
        assert (getattr(bp, op)(a, b) == want).all(), (op, env)


@pytest.mark.parametrize("underflow", [SATURATE, FLUSH])
def test_exhaustive_posit8(underflow):
    """Every posit(8, es) pattern pair — the full 256x256 space, es 0,
    1 and 2 — for both add and mul, in both underflow modes."""
    for es in (0, 1, 2):
        _check_exhaustive(PositEnv(8, es, underflow), ("add", "mul"))


def test_decode_encode_roundtrip_is_identity():
    env = PositEnv(64, 12)
    bp = BatchPosit(env)
    pats = np.array(_random_patterns(env, 500, seed=7), dtype=np.uint64)
    zero, nar, sign, frac, scale = bp.decode_once(pats)
    re = bp._encode(sign, scale, frac, np.zeros(pats.shape, bool), zero,
                    nar)
    assert (re == pats).all()


def test_from_floats_matches_scalar():
    env = PositEnv(64, 9)
    bp = BatchPosit(env)
    rng = np.random.default_rng(3)
    xs = np.concatenate([
        rng.uniform(-2.0, 2.0, 200),
        10.0 ** rng.uniform(-308, 308, 200),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310]),
    ])
    got = bp.from_floats(xs)
    for i, x in enumerate(xs):
        assert int(got[i]) == env.from_float(float(x)), f"x={x!r}"


def test_to_floats_roundtrip_in_double_range():
    env = PositEnv(64, 9)
    bp = BatchPosit(env)
    xs = np.array([0.0, 1.0, -1.0, 0.3, 2.0 ** -500, -2.0 ** 500])
    back = bp.to_floats(bp.from_floats(xs))
    assert back == pytest.approx(xs, rel=1e-12)
    assert np.isnan(bp.to_floats(np.array([env.nar], dtype=np.uint64)))[0]


def test_rejects_wide_configs():
    with pytest.raises(ValueError):
        BatchPosit(PositEnv(65, 2))


def test_es_bound_is_the_scale_planes_range():
    """The int64 scale plane holds exact products and quotients of
    magnitude up to ``2 * max_scale + 1``: posit(64, 56), with max_scale
    just under 2**62, is exact at the extremes, and posit(64, 57) is
    refused (its maxpos * maxpos would wrap).  The scalar reference
    reaches the extremes too: an add or sub across the whole range
    returns the far larger operand without aligning the other."""
    env = PositEnv(64, 56)
    assert env.max_scale < 1 << 62 <= 2 * env.max_scale
    bp = BatchPosit(env)
    ext = [env.maxpos, env.minpos, env.neg(env.maxpos), env.neg(env.minpos)]
    a = np.array([x for x in ext for _ in ext], dtype=np.uint64)
    b = np.array([y for _ in ext for y in ext], dtype=np.uint64)
    for op in ("add", "sub", "mul", "div"):
        assert getattr(bp, op)(a, b).tolist() == [
            getattr(env, op)(int(x), int(y)) for x, y in zip(a, b)], op
    for es in (57, 58, 59, 62):
        with pytest.raises(ValueError):
            BatchPosit(PositEnv(64, es))


@pytest.mark.parametrize("es", [12, 18])
@pytest.mark.parametrize("underflow", [SATURATE, FLUSH])
@settings(max_examples=200, deadline=None)
@given(a=st.integers(1, (1 << 63) - 1), negate=st.booleans(),
       offset=st.integers(-8, 8), sign=st.integers(0, 1),
       mant=st.integers(1 << 59, (1 << 60) - 1))
def test_add_across_the_gap_cut(es, underflow, a, negate, offset, sign,
                                mant):
    """``PositEnv.add`` returns the larger operand when the other lies
    more than nbits + 4 binades below it.  On both sides of that cut,
    within 8 binades, add and sub (either operand order) equal the
    plane, which aligns and rounds with no such shortcut."""
    env = PositEnv(64, es, underflow)
    bp = BatchPosit(env)
    cut = env.nbits + 4
    if negate:
        a = env.neg(a)
    scale_b = env.decode(a).scale - cut - offset
    assume(scale_b >= env.min_scale)
    b = env.encode_real(Real(sign, mant, scale_b - 59))
    assume(abs(env.decode(a).scale - env.decode(b).scale - cut) <= 8)
    x = np.array([a, b], dtype=np.uint64)
    y = np.array([b, a], dtype=np.uint64)
    assert bp.add(x, y).tolist() == [env.add(a, b), env.add(b, a)]
    assert bp.sub(x, y).tolist() == [env.sub(a, b), env.sub(b, a)]


def test_bit_length_matches_python():
    from repro.engine.posit_batch import _bit_length64
    rng = random.Random(9)
    vals = [0, 1, 2, (1 << 64) - 1, 1 << 63] + \
        [rng.getrandbits(rng.randrange(1, 65)) for _ in range(2000)]
    arr = np.array(vals, dtype=np.uint64)
    want = [v.bit_length() for v in vals]
    assert _bit_length64(arr).tolist() == want


@pytest.mark.parametrize("underflow", [SATURATE, FLUSH])
def test_exhaustive_posit8_sub_div(underflow):
    """Every posit(8, es) pattern pair (es 0, 1 and 2) for the plane
    sub and div, in both underflow modes — sub must equal add(a, neg(b))
    and div the correctly rounded quotient (NaR for zero/NaR divisors),
    exactly as the scalar environment computes them."""
    for es in (0, 1, 2):
        _check_exhaustive(PositEnv(8, es, underflow), ("sub", "div"))


@pytest.mark.parametrize("underflow", [SATURATE, FLUSH])
def test_exhaustive_posit8_order_planes(underflow):
    """The plane maximum/amax/argmax on every posit(8, es) pattern pair
    (es 0, 1 and 2): the scalar backend's ``maximum`` and its strict
    ``gt`` fold — NaR lowest, negative, zero and tied lanes included,
    the first index winning ties — along either axis."""
    from repro.arith.backends import PositBackend
    for es in (0, 1, 2):
        env = PositEnv(8, es, underflow)
        sb, bp = PositBackend(env), BatchPosit(env)
        pats = np.arange(256, dtype=np.uint64)
        a, b = [g.ravel() for g in np.meshgrid(pats, pats)]
        got = _plane_call(bp, "maximum", a, b)
        want = [sb.maximum(int(x), int(y)) for x, y in zip(a, b)]
        assert got.tolist() == want, env
        rows = np.stack([a, b, a, b[::-1]], axis=1)

        def first_max(row):
            best = 0
            for i in range(1, len(row)):
                if sb.gt(int(row[i]), int(row[best])):
                    best = i
            return best

        want_idx = [first_max(r) for r in rows]
        for axis, arr in ((1, rows), (0, rows.T)):
            idx = _plane_call(bp, "argmax", arr, axis=axis)
            assert idx.tolist() == want_idx, (env, axis)
            top = _plane_call(bp, "amax", arr, axis=axis)
            assert top.tolist() == [int(r[i]) for r, i in
                                    zip(rows, want_idx)], (env, axis)


@pytest.mark.parametrize("nbits,es", [(64, 9), (64, 12), (32, 2), (16, 1)])
def test_random_sub_div_element_exact(nbits, es):
    env = PositEnv(nbits, es)
    bp = BatchPosit(env)
    n = 200
    a_list = _random_patterns(env, n, seed=nbits * 7 + es)
    b_list = _random_patterns(env, n, seed=nbits * 7 + es + 1)
    spec = _special_patterns(env)
    a_list, b_list = a_list + spec, b_list + list(reversed(spec))
    a = np.array(a_list, dtype=np.uint64)
    b = np.array(b_list, dtype=np.uint64)
    got_sub = bp.sub(a, b)
    got_div = bp.div(a, b)
    for i, (pa, pb) in enumerate(zip(a_list, b_list)):
        assert int(got_sub[i]) == env.sub(pa, pb), \
            f"sub({pa:#x}, {pb:#x}) in {env!r}"
        assert int(got_div[i]) == env.div(pa, pb), \
            f"div({pa:#x}, {pb:#x}) in {env!r}"


@pytest.mark.parametrize("underflow", [SATURATE, FLUSH])
def test_unpacked_roundtrip_all_8bit_patterns(underflow):
    """decode_once -> encode_once is the identity on every posit(8,0)
    pattern (the decoded-plane entry/exit contract), in both modes."""
    env = PositEnv(8, 0, underflow)
    bp = BatchPosit(env)
    pats = np.arange(256, dtype=np.uint64)
    u = bp.decode_once(pats)
    assert (bp.encode_once(u) == pats).all()


class TestFusedPlaneKernels:
    """dot/sum/axpy run through the decoded plane; they must stay
    op-for-op identical to the base mul-then-fold implementations,
    zeros and NaR lanes included."""

    def _operands(self, env, shape, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, 1 << env.nbits, shape, dtype=np.uint64)
        flat = arr.reshape(-1)
        flat[0] = 0
        flat[1 % flat.size] = env.nar
        flat[2 % flat.size] = env.minpos
        return arr

    @pytest.mark.parametrize("underflow", [SATURATE, FLUSH])
    def test_dot_matches_base_fold(self, underflow):
        from repro.engine.batch import BatchBackend
        env = PositEnv(16, 1, underflow)
        bp = BatchPosit(env)
        a = self._operands(env, (6, 5), 1)
        b = self._operands(env, (6, 5), 2)
        for axis in (-1, 0, 1):
            want = BatchBackend.dot(bp, a, b, axis=axis)
            assert (bp.dot(a, b, axis=axis) == want).all(), axis
        # Broadcasting contraction (the forward algorithm's shape).
        alpha = self._operands(env, (4, 3, 1), 3)
        trans = self._operands(env, (3, 3), 4)
        want = BatchBackend.dot(bp, alpha, trans, axis=1)
        assert (bp.dot(alpha, trans, axis=1) == want).all()

    def test_sum_matches_base_fold(self):
        from repro.engine.batch import BatchBackend
        env = PositEnv(16, 1)
        bp = BatchPosit(env)
        arr = self._operands(env, (5, 7), 5)
        for axis in (0, 1, -1):
            want = BatchBackend.sum(bp, arr, axis=axis)
            assert (bp.sum(arr, axis=axis) == want).all(), axis

    def test_axpy_matches_two_ops(self):
        env = PositEnv(16, 1)
        bp = BatchPosit(env)
        a = self._operands(env, (40,), 6)
        x = self._operands(env, (40,), 7)
        y = self._operands(env, (40,), 8)
        assert (bp.axpy(a, x, y) == bp.add(bp.mul(a, x), y)).all()

    def test_mul_acc_chain_matches_pattern_chain(self):
        env = PositEnv(8, 0)
        bp = BatchPosit(env)
        rng = np.random.default_rng(9)
        cols = [rng.integers(0, 256, 50, dtype=np.uint64)
                for _ in range(4)]
        acc_u = bp.zeros_unpacked((50,))
        acc_p = bp.zeros((50,))
        for c in cols:
            cu = bp.decode_once(c)
            acc_u = bp.axpy_unpacked(cu, cu, acc_u)
            acc_p = bp.add(acc_p, bp.mul(c, c))
        assert (bp.encode_once(acc_u) == acc_p).all()


def test_zero_d_ops_are_warning_free():
    """0-d operands run without the PR 4 lift workaround: the intended
    uint64 wraparound is silenced by targeted np.errstate suppression,
    so user-level warning filters stay clean."""
    import warnings

    env = PositEnv(64, 12)
    bp = BatchPosit(env)
    x = np.asarray(np.uint64(env.from_float(0.3)))
    y = np.asarray(np.uint64(env.from_float(-0.7)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert int(bp.add(x, y)) == env.add(int(x), int(y))
        assert int(bp.mul(x, y)) == env.mul(int(x), int(y))
        assert int(bp.sub(x, y)) == env.sub(int(x), int(y))
        assert int(bp.div(x, y)) == env.div(int(x), int(y))
        assert bp.add(x, y).shape == ()


def test_numpy_uint64_shifts_past_the_width_give_zero():
    """The platform assumption under ``_round_mag`` and ``_shl128``: a
    NumPy uint64 ``<<``/``>>`` by 64 or more (a count of 2**64 - 1 being
    a wrapped negative int64) gives 0, on arrays and on 0-d operands
    alike, where C leaves the result undefined.  A NumPy that changes
    this fails here by name, not as a golden diff."""
    values = np.array([1, 0x8000_0000_0000_0001, 2 ** 64 - 1],
                      dtype=np.uint64)
    for count in (64, 65, 127, 2 ** 64 - 1):
        n = np.uint64(count)
        for x, c in ((values, n), (values, np.full(3, n)),
                     (np.asarray(values[2]), np.asarray(n))):
            assert not np.any(x << c), (count, x)
            assert not np.any(x >> c), (count, x)
    assert np.array(-1, dtype=np.int64).astype(np.uint64) == 2 ** 64 - 1
