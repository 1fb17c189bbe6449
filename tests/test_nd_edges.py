"""FArray edge semantics: NaN/±0/rounding-to-zero round-trips per
format, broadcasting against scalars, and astype exactness versus the
registry's exactness-class flags.
"""

import numpy as np
import pytest

import repro.nd as nd
from repro.arith import (BIT_IDENTICAL, ELEMENT_EXACT, ORACLE, REGISTRY,
                         STANDARD_FORMATS)
from repro.bigfloat import BigFloat
from repro.engine import ExecPlan

ALL_FORMATS = ["binary64", "log", "posit(64,9)", "posit(64,12)",
               "posit(64,18)", "lns(12,50)", "bigfloat256"]


def both_representations(values, fmt, **kwargs):
    """(canonical, serial) FArray pair over the same inputs."""
    return (nd.asarray(values, fmt, **kwargs),
            nd.asarray(values, fmt, plan=ExecPlan.serial(), **kwargs))


class TestNaNAndSignedZero:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_nan_inf_rejected_on_entry(self, fmt):
        """Inputs are exact values; NaN/Inf have none, in any format."""
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                nd.asarray([bad], fmt)

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_signed_zero_collapses_to_exact_zero(self, fmt):
        """±0.0 both mean 'probability exactly zero' (BigFloat has one
        zero), so both encode to the format's zero and read back 0.0."""
        x = nd.asarray([0.0, -0.0], fmt)
        assert x.is_zero().all()
        assert list(x.to_floats()) == [0.0, 0.0]
        assert all(b.is_zero() for b in x.to_bigfloats())

    def test_posit_nar_has_no_value(self):
        backend = REGISTRY.create("posit(64,9)")
        bb = REGISTRY.batch_for(backend)
        x = nd.wrap(np.array([backend.env.nar], dtype=np.uint64), bb=bb)
        assert not x.is_zero()[0]
        with pytest.raises(ValueError):
            x.to_floats()


class TestRoundsToZero:
    TINY = BigFloat.exp2(-20_000)      # below binary64, inside posit64
    DEEPER = BigFloat.exp2(-40_000)    # below posit(64,9) range too

    def test_binary64_underflows_to_exact_zero(self):
        for x in both_representations([self.TINY], "binary64"):
            assert x.is_zero()[0]
            # The round-trip is the zero round-trip: value is gone.
            assert x.to_bigfloats()[0].is_zero()

    def test_log_represents_it(self):
        for x in both_representations([self.TINY], "log"):
            assert not x.is_zero()[0]
            assert x.to_bigfloats()[0].scale == pytest.approx(-20_000, abs=1)

    def test_posit_saturates_by_default(self):
        """underflow="saturate" clamps to minpos: not zero, value kept
        representable (the posit standard's behaviour)."""
        for x in both_representations([self.DEEPER], "posit(64,9)"):
            assert not x.is_zero()[0]
            assert x.to_bigfloats()[0].cmp(
                REGISTRY.create("posit(64,9)").env.to_bigfloat(
                    REGISTRY.create("posit(64,9)").env.minpos)) == 0

    def test_posit_flush_mode_rounds_to_zero(self):
        for x in both_representations([self.DEEPER], "posit(64,9)",
                                      underflow="flush"):
            assert x.is_zero()[0]
            assert x.to_bigfloats()[0].is_zero()

    def test_lns_saturates_at_range_edge(self):
        backend = REGISTRY.create("lns(12,50)")
        for x in both_representations([self.TINY], backend):
            assert not x.is_zero()[0]
            # Clamped to the most negative code, not flushed to zero.
            assert x.to_bigfloats()[0].scale == \
                backend.to_bigfloat(backend.env.min_code).scale

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_exact_zero_round_trips_everywhere(self, fmt):
        for x in both_representations([0.0], fmt):
            assert x.is_zero()[0]
            back = nd.asarray(x.to_bigfloats(), fmt)
            assert back.is_zero()[0]


class TestScalarBroadcasting:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_python_scalars_broadcast(self, fmt):
        backend = REGISTRY.create(fmt)
        for x in both_representations([[0.5, 0.25], [0.125, 1.0]], backend):
            doubled = x * 2
            assert doubled.shape == x.shape
            two = backend.from_float(2.0)
            expect = [[backend.mul(v, two) for v in row]
                      for row in x.tolist()]
            assert doubled.tolist() == expect
            assert (2 * x).tolist() == doubled.tolist()

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_bigfloat_scalar_broadcasts(self, fmt):
        half = BigFloat.exp2(-1)
        for x in both_representations([0.5, 0.25], fmt):
            left = (half + x).tolist()
            right = (x + half).tolist()
            assert left == right

    def test_shape_broadcasting_matches_numpy(self):
        x = nd.asarray([[0.5, 0.25, 0.125]] * 2, "binary64")
        row = nd.asarray([0.5, 0.25, 0.125], "binary64")
        col = nd.asarray([[2.0], [4.0]], "binary64")
        np.testing.assert_array_equal(
            (x * row).to_floats(),
            np.asarray(x.data) * np.asarray(row.data))
        np.testing.assert_array_equal(
            (x * col).to_floats(),
            np.asarray(x.data) * np.asarray(col.data))

    def test_broadcasting_identical_across_representations(self):
        canonical, serial = both_representations([0.5, 0.25], "posit(64,9)")
        assert (canonical * 3).tolist() == (serial * 3).tolist()
        assert (1 - canonical).tolist() == (1 - serial).tolist()


class TestEmptyAxis:
    @pytest.mark.parametrize("fmt", list(STANDARD_FORMATS) + ["lns(12,50)"])
    @pytest.mark.parametrize("op", ["sum", "dot"])
    def test_empty_axis_matches_serial_plane(self, fmt, op):
        """A fold over an empty axis is probability 0 on both planes —
        log-space's n-ary reduction and posit's first-slice fold
        included."""
        canonical, serial = both_representations(np.zeros((2, 0)), fmt)
        assert canonical.batch and not serial.batch

        def reduce(x):
            return nd.sum(x, axis=1) if op == "sum" else nd.dot(x, x, axis=1)

        got, want = reduce(canonical), reduce(serial)
        assert got.shape == want.shape == (2,)
        assert got.tolist() == want.tolist()
        assert got.is_zero().all()


class TestAstypeExactness:
    """astype exactness follows the registry's exactness-class flags:
    every format's values survive a trip through the oracle unchanged,
    and the oracle itself is the exact superset."""

    VALUES = [0.5, 0.25, 1.0, 1 / 3, 0.1, 2.0 ** -40]

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_round_trip_through_oracle_is_identity(self, fmt):
        x = nd.asarray(self.VALUES, fmt)
        assert REGISTRY.capabilities("bigfloat256").exactness == ORACLE
        rt = x.astype("bigfloat256").astype(x.backend)
        assert rt.tolist() == x.tolist()

    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_into_oracle_preserves_values(self, fmt):
        x = nd.asarray(self.VALUES, fmt)
        lifted = x.astype("bigfloat256")
        assert all(a.cmp(b) == 0 for a, b in
                   zip(x.to_bigfloats(), lifted.to_bigfloats()))

    def test_same_backend_astype_is_identity(self):
        x = nd.asarray(self.VALUES, "posit(64,12)")
        assert x.astype(x.backend) is x

    def test_dyadic_values_cross_formats_exactly(self):
        """Values exactly representable in every finite format convert
        between the bit-identical and element-exact classes losslessly."""
        dyadic = [0.5, 0.25, 0.0625, 1.0]
        x64 = nd.asarray(dyadic, "binary64")
        assert REGISTRY.capabilities("binary64").exactness == BIT_IDENTICAL
        for fmt in ["posit(64,9)", "posit(64,18)", "lns(12,50)"]:
            assert REGISTRY.capabilities(fmt).exactness == ELEMENT_EXACT
            there_and_back = x64.astype(fmt).astype("binary64")
            assert there_and_back.tolist() == x64.tolist()

    def test_lossy_conversion_rounds_once(self):
        """A narrower target rounds; coming back shows the rounding
        (1/3 in posit(8,0) is coarse) — one rounding, not an error."""
        x = nd.asarray([1 / 3], "binary64")
        narrowed = x.astype("posit(8,0)")
        widened = narrowed.astype("binary64")
        assert widened.item(0) != x.item(0)
        assert widened.item(0) == pytest.approx(1 / 3, rel=0.05)

    def test_astype_respects_plan(self):
        x = nd.asarray([0.5], "binary64")
        serial = x.astype("posit(64,9)", plan=ExecPlan.serial())
        assert not serial.batch
        assert x.astype("posit(64,9)").batch
