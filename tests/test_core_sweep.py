"""Tests for operand generation and the Figure 3 sweep driver, including
the paper's qualitative accuracy claims."""

import pytest

from repro.arith import standard_backends
from repro.core import (
    FIG3_BINS,
    accuracy_ordering,
    bin_label,
    generate_add_pairs,
    generate_mul_pairs,
    plan_chunks,
    run_op_sweep,
)
from repro.core.sweep import probability_pairs_from_trace
from repro.formats import Real


class TestGenerators:
    @pytest.mark.parametrize("bin_range", FIG3_BINS)
    def test_add_pairs_land_in_bin(self, bin_range):
        for pair in generate_add_pairs(bin_range, 25, seed=3):
            assert bin_range[0] <= pair.result_scale < bin_range[1]
            assert pair.op == "add"

    @pytest.mark.parametrize("bin_range", FIG3_BINS)
    def test_mul_pairs_land_in_bin(self, bin_range):
        for pair in generate_mul_pairs(bin_range, 25, seed=3):
            assert bin_range[0] <= pair.result_scale < bin_range[1]
            assert pair.op == "mul"

    def test_pairs_are_deterministic(self):
        a = list(generate_add_pairs(FIG3_BINS[0], 10, seed=5))
        b = list(generate_add_pairs(FIG3_BINS[0], 10, seed=5))
        assert all(x.x == y.x and x.y == y.y for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = list(generate_add_pairs(FIG3_BINS[0], 10, seed=1))
        b = list(generate_add_pairs(FIG3_BINS[0], 10, seed=2))
        assert any(x.x != y.x for x, y in zip(a, b))

    def test_exact_matches_operands(self):
        for pair in generate_mul_pairs((-100, -10), 10, seed=0):
            assert pair.exact == pair.x.mul(pair.y)

    def test_operands_positive(self):
        for pair in generate_add_pairs((-10, 1), 10, seed=0):
            assert pair.x.sign == 0 and pair.y.sign == 0

    def test_generate_sweep_counts(self):
        chunks = plan_chunks("add", per_bin=5, seed=0)
        assert [c.bin_range for c in chunks] == list(FIG3_BINS)
        assert all(len(c.generate()) == 5 for c in chunks)

    def test_bin_label(self):
        assert bin_label((-10, 1)) == "[-10, 0]"
        assert bin_label((-500, -100)) == "[-500, -100)"

    def test_trace_adapter(self):
        trace = [("mul", Real.from_float(0.5), Real.from_float(0.25)),
                 ("add", Real.from_float(0.5), Real.from_float(0.25))]
        muls = list(probability_pairs_from_trace(trace, "mul"))
        assert len(muls) == 1
        assert muls[0].exact == Real.from_float(0.125)


@pytest.fixture(scope="module")
def add_sweep():
    return run_op_sweep("add", standard_backends(), per_bin=30, seed=11)


@pytest.fixture(scope="module")
def mul_sweep():
    return run_op_sweep("mul", standard_backends(), per_bin=30, seed=11)


class TestFig3Claims:
    """The paper's three 'key takeaways' from Section IV.A, asserted on
    measured data."""

    def test_binary64_absent_outside_normal_range(self, add_sweep):
        for bin_range in FIG3_BINS:
            cell = add_sweep.boxes[bin_range]
            if bin_range[1] <= -1022:
                assert "binary64" not in cell
            else:
                assert "binary64" in cell

    def test_log_worse_than_binary64_in_normal_range(self, add_sweep):
        """Takeaway 1: inside binary64's normal range logarithms are the
        less accurate representation, and degrade as numbers shrink."""
        for bin_range in ((-1022, -500), (-500, -100), (-100, -10)):
            cell = add_sweep.boxes[bin_range]
            assert cell["log"].median > cell["binary64"].median

    def test_log_degrades_with_magnitude(self, add_sweep):
        medians = [add_sweep.boxes[b]["log"].median for b in FIG3_BINS]
        # Smaller results (earlier bins) must have larger error.
        assert medians[0] > medians[-1]

    def test_posit12_beats_log_outside_range(self, add_sweep, mul_sweep):
        """Takeaway 2: posits beat logarithms outside binary64's range
        (except posit(64,9) in the deepest bins, checked separately)."""
        for sweep in (add_sweep, mul_sweep):
            for bin_range in FIG3_BINS[:5]:
                cell = sweep.boxes[bin_range]
                assert cell["posit(64,12)"].median < cell["log"].median
                assert cell["posit(64,18)"].median < cell["log"].median

    def test_posit9_worst_in_deepest_bin(self, add_sweep):
        """The paper's noted exception: posit(64,9) in [-10000, -6000)
        drowns in regime bits and loses to log."""
        cell = add_sweep.boxes[(-10_000, -8_000)]
        assert cell["posit(64,9)"].median > cell["log"].median

    def test_posit9_matches_binary64_near_one(self, add_sweep):
        """posit(64,9) offers binary64's 52 fraction bits near 1.0, so
        their medians must be close (within half a decade)."""
        cell = add_sweep.boxes[(-10, 1)]
        assert abs(cell["posit(64,9)"].median - cell["binary64"].median) < 0.5

    def test_posit18_steadier_than_log(self, add_sweep):
        """Takeaway 3 ('changes more steadily'): posit(64,18)'s median
        spread across bins is smaller than log's."""
        p18 = [add_sweep.boxes[b]["posit(64,18)"].median for b in FIG3_BINS]
        logm = [add_sweep.boxes[b]["log"].median for b in FIG3_BINS]
        assert max(p18) - min(p18) < max(logm) - min(logm)

    def test_box_percentiles_ordered(self, add_sweep):
        for bin_range in FIG3_BINS:
            for stats in add_sweep.boxes[bin_range].values():
                if stats.median is None:
                    continue
                assert stats.p5 <= stats.p25 <= stats.median <= stats.p75 <= stats.p95

    def test_accuracy_ordering_helper(self, add_sweep):
        order = accuracy_ordering(add_sweep, (-10, 1))
        assert order[0] in ("binary64", "posit(64,9)")
        assert order[-1] in ("log", "posit(64,18)")

    def test_rows_roundtrip(self, add_sweep):
        rows = add_sweep.rows()
        assert len(rows) == sum(len(c) for c in add_sweep.boxes.values())
        assert {"format", "bin", "median"} <= set(rows[0])

    def test_mul_claims_hold_too(self, mul_sweep):
        cell = mul_sweep.boxes[(-100, -10)]
        assert cell["log"].median > cell["binary64"].median
