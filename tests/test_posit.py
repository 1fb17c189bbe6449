"""Posit codec and arithmetic tests, including the paper's worked example
and Table I golden values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bigfloat import BigFloat
from repro.formats import FLUSH, NAR, PositEnv, Real, SATURATE, ZERO, paper_configs


class TestPaperExample:
    """Section III's posit(8,2) walkthrough: 0_0001_10_1 = 1.5 * 2**-10."""

    def test_decode(self):
        env = PositEnv(8, 2)
        value = env.decode(0b0_0001_10_1)
        assert isinstance(value, Real)
        assert value.to_float() == 1.5 * 2 ** -10

    def test_field_layout(self):
        env = PositEnv(8, 2)
        layout = env.field_layout(0b0_0001_10_1)
        assert layout["sign"] == "0"
        assert layout["regime"] == "0001"
        assert layout["exponent"] == "10"
        assert layout["fraction"] == "1"

    def test_encode_roundtrip(self):
        env = PositEnv(8, 2)
        assert env.encode_real(Real.from_float(1.5 * 2 ** -10)) == 0b0_0001_10_1

    def test_es_changes_decoded_value(self):
        # The paper notes the same bit pattern decodes differently when
        # ES changes.
        v2 = PositEnv(8, 2).decode(0b0_0001_10_1).to_float()
        v1 = PositEnv(8, 1).decode(0b0_0001_10_1).to_float()
        assert v2 != v1


class TestTableI:
    """Table I: useed, smallest positive, and max fraction bits."""

    CASES = {  # es: (useed_log2, smallest_scale, max_frac)
        6: (64, -3_968, 55),
        9: (512, -31_744, 52),
        12: (4_096, -253_952, 49),
        15: (32_768, -2_031_616, 46),
        18: (262_144, -16_252_928, 43),
        21: (2_097_152, -130_023_424, 40),
    }

    @pytest.mark.parametrize("es", sorted(CASES))
    def test_useed(self, es):
        assert PositEnv(64, es).useed_log2 == self.CASES[es][0]

    @pytest.mark.parametrize("es", sorted(CASES))
    def test_smallest_positive(self, es):
        env = PositEnv(64, es)
        assert env.min_scale == self.CASES[es][1]
        minpos = env.decode(env.minpos)
        assert minpos.scale == self.CASES[es][1]
        assert minpos.mantissa == 1

    @pytest.mark.parametrize("es", sorted(CASES))
    def test_max_fraction_bits(self, es):
        assert PositEnv(64, es).max_fraction_bits() == self.CASES[es][2]


class TestBitBudget:
    """Section III's regime-length examples: encoding 2**-2048 leaves 24
    fraction bits in posit(64,6) but 49 in posit(64,9)."""

    def test_posit64_6_at_minus_2048(self):
        assert PositEnv(64, 6).fraction_bits_at_scale(-2048) == 24

    def test_posit64_9_at_minus_2048(self):
        assert PositEnv(64, 9).fraction_bits_at_scale(-2048) == 49

    def test_regime_lengths(self):
        assert PositEnv(64, 6).regime_length_at_scale(-2048) == 33
        assert PositEnv(64, 9).regime_length_at_scale(-2048) == 5

    def test_out_of_range_scale_raises(self):
        with pytest.raises(ValueError):
            PositEnv(64, 9).fraction_bits_at_scale(-40_000)

    def test_shortest_regime_budget(self):
        env = PositEnv(64, 9)
        assert env.fraction_bits_at_scale(-1) == env.max_fraction_bits()


class TestSpecials:
    def test_zero(self):
        env = PositEnv(64, 9)
        assert env.decode(0) is ZERO
        assert env.encode_real(Real.zero()) == 0

    def test_nar(self):
        env = PositEnv(16, 1)
        assert env.decode(env.nar) is NAR
        with pytest.raises(ValueError):
            env.to_bigfloat(env.nar)

    def test_nar_propagates(self):
        env = PositEnv(16, 1)
        one = env.from_float(1.0)
        assert env.add(env.nar, one) == env.nar
        assert env.mul(one, env.nar) == env.nar
        assert env.sub(env.nar, env.nar) == env.nar

    def test_single_zero(self):
        env = PositEnv(16, 1)
        assert env.from_float(-0.0) == 0

    def test_nan_inf_map_to_nar(self):
        env = PositEnv(16, 1)
        assert env.from_float(float("nan")) == env.nar
        assert env.from_float(float("inf")) == env.nar

    def test_div_by_zero_is_nar(self):
        env = PositEnv(16, 1)
        assert env.div(env.from_float(1.0), 0) == env.nar


class TestSaturationAndUnderflow:
    def test_overflow_clamps_to_maxpos(self):
        env = PositEnv(16, 1)
        assert env.encode_bigfloat(BigFloat.exp2(10**6)) == env.maxpos

    def test_standard_never_underflows(self):
        env = PositEnv(16, 1, underflow=SATURATE)
        assert env.encode_bigfloat(BigFloat.exp2(-10**6)) == env.minpos

    def test_flush_mode_underflows(self):
        env = PositEnv(16, 1, underflow=FLUSH)
        assert env.encode_bigfloat(BigFloat.exp2(-10**6)) == 0

    def test_just_below_minpos_rounds_to_minpos_in_both_modes(self):
        # Pattern rounding keeps near-minpos values at minpos even in
        # flush mode; only deep underflow hits zero.
        for mode in (SATURATE, FLUSH):
            env = PositEnv(16, 1, underflow=mode)
            x = BigFloat.exp2(env.min_scale - 1)
            assert env.encode_bigfloat(x) == env.minpos

    def test_negative_saturation(self):
        env = PositEnv(16, 1)
        bits = env.encode_bigfloat(BigFloat.exp2(10**6).neg())
        assert bits == env.neg(env.maxpos)

    def test_paper_underflow_example(self):
        # LoFreq's smallest observed p-value 2**-434916 underflows
        # posit(64,9) and posit(64,12) but not posit(64,18).
        p = BigFloat.exp2(-434_916)
        assert PositEnv(64, 9, FLUSH).encode_bigfloat(p) == 0
        assert PositEnv(64, 12, FLUSH).encode_bigfloat(p) == 0
        env18 = PositEnv(64, 18, FLUSH)
        bits = env18.encode_bigfloat(p)
        assert bits != 0
        assert env18.to_bigfloat(bits).scale == -434_916


class TestRoundtripExhaustive:
    @pytest.mark.parametrize("nbits,es", [(8, 2), (8, 0), (8, 1), (10, 2)])
    def test_decode_encode_identity(self, nbits, es):
        """Every representable pattern decodes to a value that encodes
        back to the same pattern (codec consistency, exhaustively)."""
        env = PositEnv(nbits, es)
        for bits in range(1 << nbits):
            decoded = env.decode(bits)
            if decoded is ZERO:
                assert bits == 0
                continue
            if decoded is NAR:
                assert bits == env.nar
                continue
            assert env.encode_real(decoded) == bits, f"pattern {bits:#x}"

    def test_monotone_value_order(self):
        """Posit encodings order like two's-complement integers."""
        env = PositEnv(8, 1)
        reals = []
        for bits in range(1 << 8):
            d = env.decode(bits)
            if isinstance(d, Real):
                reals.append((env._signed(bits), d.to_bigfloat()))
        reals.sort(key=lambda t: t[0])
        for (_, lo), (_, hi) in zip(reals, reals[1:]):
            assert lo < hi


class TestCorrectRounding:
    @pytest.mark.parametrize("nbits,es", [(8, 1), (8, 2)])
    def test_encode_lands_on_a_neighbor(self, nbits, es):
        """encode(x) must land on one of the two posits bracketing x."""
        env = PositEnv(nbits, es)
        import random
        rng = random.Random(7)
        for _ in range(400):
            scale = rng.randint(env.min_scale - 4, env.max_scale + 4)
            mant = rng.randrange(1, 1 << 12) | 1
            x = Real(rng.randint(0, 1), mant, scale - mant.bit_length() + 1)
            bits = env.encode_real(x)
            got = env.decode(bits)
            assert isinstance(got, Real)
            # Compare against the patterns one step away in signed order.
            xbf = x.to_bigfloat()
            gbf = got.to_bigfloat()
            if gbf == xbf:
                continue
            step = 1 if gbf < xbf else -1
            nxt = (bits + step) & env.mask
            nd = env.decode(nxt)
            if nd in (ZERO, NAR):
                continue  # clamped at the end of the range
            # x must lie between decode(bits) and decode(next).
            nbf = nd.to_bigfloat()
            lo, hi = (gbf, nbf) if gbf < nbf else (nbf, gbf)
            assert lo <= xbf <= hi

    def test_exactly_representable_is_identity(self):
        env = PositEnv(16, 1)
        for v in (1.0, -1.0, 0.5, 1.5, 2.0, -0.75, 4096.0):
            bits = env.from_float(v)
            assert env.to_float(bits) == v


class TestArithmetic:
    def test_add_simple(self):
        env = PositEnv(32, 2)
        a, b = env.from_float(1.25), env.from_float(2.5)
        assert env.to_float(env.add(a, b)) == 3.75

    def test_add_zero_identity(self):
        env = PositEnv(16, 1)
        a = env.from_float(0.3)
        assert env.add(a, 0) == a
        assert env.add(0, a) == a

    def test_sub_self_is_zero(self):
        env = PositEnv(16, 1)
        a = env.from_float(0.3)
        assert env.sub(a, a) == 0

    def test_mul_simple(self):
        env = PositEnv(32, 2)
        a, b = env.from_float(3.0), env.from_float(-0.5)
        assert env.to_float(env.mul(a, b)) == -1.5

    def test_mul_by_one(self):
        env = PositEnv(16, 1)
        one = env.from_float(1.0)
        for v in (0.3, -7.25, 1e-4):
            a = env.from_float(v)
            assert env.mul(a, one) == a

    def test_div_inverse_of_mul(self):
        env = PositEnv(32, 2)
        a, b = env.from_float(3.0), env.from_float(8.0)
        prod = env.mul(a, b)
        assert env.div(prod, b) == a

    def test_neg_abs(self):
        env = PositEnv(16, 1)
        a = env.from_float(-2.5)
        assert env.to_float(env.neg(a)) == 2.5
        assert env.to_float(env.abs(a)) == 2.5
        assert env.abs(env.neg(a)) == env.abs(a)

    def test_cmp(self):
        env = PositEnv(16, 1)
        assert env.cmp(env.from_float(1.0), env.from_float(2.0)) == -1
        assert env.cmp(env.from_float(-1.0), env.from_float(1.0)) == -1
        assert env.cmp(env.from_float(0.5), env.from_float(0.5)) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
def test_add_commutes(a, b):
    env = PositEnv(16, 1)
    assert env.add(a, b) == env.add(b, a)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
def test_mul_commutes(a, b):
    env = PositEnv(16, 1)
    assert env.mul(a, b) == env.mul(b, a)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
def test_neg_distributes_over_add(a, b):
    """Posit negation is exact (two's complement), so
    -(a+b) == (-a)+(-b) must hold bit-for-bit."""
    env = PositEnv(16, 1)
    assert env.neg(env.add(a, b)) == env.add(env.neg(a), env.neg(b))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 16) - 1))
def test_double_negation(a):
    env = PositEnv(16, 1)
    assert env.neg(env.neg(a)) == a & env.mask


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1e-150, max_value=1e150))
def test_posit64_9_float_roundtrip(v):
    """posit(64,9) offers the full 52 fraction bits for scales in
    [-512, 512) (regime length 2), so every double in that band must
    round-trip exactly — this is the paper's 'matches binary64 precision'
    claim for posit(64,9)."""
    env = PositEnv(64, 9)
    assert env.to_float(env.from_float(v)) == v
    assert env.to_float(env.from_float(-v)) == -v


@settings(max_examples=100, deadline=None)
@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
def test_cmp_matches_value_order(a, b):
    env = PositEnv(16, 1)
    da, db = env.decode(a), env.decode(b)
    if da is NAR or db is NAR:
        return
    va = BigFloat.zero() if da is ZERO else da.to_bigfloat()
    vb = BigFloat.zero() if db is ZERO else db.to_bigfloat()
    assert env.cmp(a, b) == va.cmp(vb)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, (1 << 15) - 1), st.integers(1, (1 << 15) - 1))
def test_div_correctly_rounded(a, b):
    """Division lands on one of the two posits bracketing the exact
    quotient (positive operands; NaR-free by construction)."""
    env = PositEnv(16, 1)
    q_bits = env.div(a, b)
    if env.is_nar(q_bits) or env.is_zero(q_bits):
        return
    got = env.to_bigfloat(q_bits)
    exact = env.to_bigfloat(a).div(env.to_bigfloat(b), 128)
    if got == exact:
        return
    step = 1 if got < exact else -1
    neighbor = env.decode((q_bits + step) & env.mask)
    if neighbor in (ZERO, NAR):
        return  # clamped at the range edge
    nbf = neighbor.to_bigfloat()
    lo, hi = (got, nbf) if got < nbf else (nbf, got)
    assert lo <= exact <= hi


@settings(max_examples=100, deadline=None)
@given(st.integers(1, (1 << 15) - 1))
def test_div_by_one_identity(a):
    env = PositEnv(16, 1)
    one = env.from_float(1.0)
    assert env.div(a, one) == a


def test_paper_configs_factory():
    cfgs = paper_configs()
    assert set(cfgs) == {"posit(64,9)", "posit(64,12)", "posit(64,18)"}
    assert all(env.nbits == 64 for env in cfgs.values())
    assert cfgs["posit(64,9)"].name == "posit(64,9)"
