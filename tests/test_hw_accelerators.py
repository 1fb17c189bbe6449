"""Accelerator model tests: Tables III/IV and Figures 6-8 validation,
plus functional-simulation bit-equivalence."""

import numpy as np
import pytest

from repro.apps.hmm import forward
from repro.arith import LogSpaceBackend
from repro.data import sample_hmm, synth_column
from repro.engine import ExecPlan
from repro.hw import (
    LOG,
    POSIT,
    ColumnUnit,
    ForwardUnit,
    PAPER_FIG6_SECONDS,
    PAPER_TABLE3,
    PAPER_TABLE4,
    paper_scale_shapes,
    reduction_row,
    replication_speedup,
    single_unit_improvement,
    software_forward_log,
    software_forward_posit,
    speedup_over_cpu,
    units_per_slr,
)


class TestForwardUnitTiming:
    """Figure 6 validation: model within 10% of every paper time."""

    @pytest.mark.parametrize("style,h", list(PAPER_FIG6_SECONDS))
    def test_seconds_close_to_paper(self, style, h):
        unit = ForwardUnit(style, h)
        model = unit.seconds(500_000)
        paper = unit.paper_seconds()
        assert model == pytest.approx(paper, rel=0.10), (style, h)

    @pytest.mark.parametrize("h", [13, 32, 64, 128])
    def test_posit_always_faster(self, h):
        assert ForwardUnit(POSIT, h).seconds(500_000) < \
            ForwardUnit(LOG, h).seconds(500_000)

    def test_improvement_shrinks_with_h(self):
        """Fig. 6(b): relative improvement decreases as H grows (the PE
        saving is fixed relative to a growing pipeline latency)."""
        imps = []
        for h in (13, 32, 64):
            log_t = ForwardUnit(LOG, h).seconds(500_000)
            posit_t = ForwardUnit(POSIT, h).seconds(500_000)
            imps.append((log_t - posit_t) / log_t)
        assert imps[0] > imps[1] > imps[2]
        assert 0.25 < imps[0] < 0.40  # ~33% at H=13
        assert 0.15 < imps[2] < 0.30

    def test_time_scales_linearly_in_t(self):
        u = ForwardUnit(LOG, 32)
        assert u.seconds(1_000_000) == pytest.approx(2 * u.seconds(500_000))

    def test_h128_superlinear_jump(self):
        """II=2 at H=128 produces the superlinear runtime jump of
        Fig. 6(a)."""
        t64 = ForwardUnit(POSIT, 64).seconds(500_000)
        t128 = ForwardUnit(POSIT, 128).seconds(500_000)
        assert t128 > 2.0 * t64

    def test_validation(self):
        with pytest.raises(ValueError):
            ForwardUnit("ieee", 13)
        with pytest.raises(ValueError):
            ForwardUnit(LOG, 1)


class TestForwardUnitResources:
    """Table III validation."""

    @pytest.mark.parametrize("style,h", [(s, h) for s in (LOG, POSIT)
                                         for h in (13, 32, 64)])
    def test_lut_within_5pct(self, style, h):
        unit = ForwardUnit(style, h)
        model = unit.resources().lut
        paper = unit.paper_reported()["LUT"]
        assert model == pytest.approx(paper, rel=0.05), (style, h)

    @pytest.mark.parametrize("style,h", [(s, h) for s in (LOG, POSIT)
                                         for h in (13, 32, 64)])
    def test_register_within_10pct(self, style, h):
        unit = ForwardUnit(style, h)
        model = unit.resources().register
        paper = unit.paper_reported()["Register"]
        assert model == pytest.approx(paper, rel=0.10), (style, h)

    @pytest.mark.parametrize("style", [LOG, POSIT])
    def test_h128_lane_sharing_within_20pct(self, style):
        unit = ForwardUnit(style, 128)
        model = unit.resources().lut
        paper = unit.paper_reported()["LUT"]
        assert model == pytest.approx(paper, rel=0.20)

    @pytest.mark.parametrize("h", [13, 32, 64, 128])
    def test_posit_reduction_band(self, h):
        """Table III: posit cuts ~60% of LUTs and ~40-48% of registers."""
        log_r = ForwardUnit(LOG, h).resources()
        posit_r = ForwardUnit(POSIT, h, posit_es=18).resources()
        red = reduction_row(log_r, posit_r)
        assert 55.0 < red["LUT"] < 67.0
        assert 35.0 < red["Register"] < 55.0

    def test_paper_reported_passthrough(self):
        row = ForwardUnit(LOG, 13).paper_reported()
        assert row["CLB"] == 14_308
        assert ForwardUnit(LOG, 17).paper_reported() is None

    def test_clb_prefers_paper(self):
        assert ForwardUnit(LOG, 13).clb() == 14_308
        assert ForwardUnit(LOG, 17).clb() > 0

    def test_sram_grows_with_h(self):
        srams = [ForwardUnit(LOG, h).resources().sram for h in (13, 32, 64, 128)]
        assert srams == sorted(srams)
        assert srams[-1] > 4 * srams[-2]  # the H=128 banking jump


class TestForwardUnitSimulation:
    def test_log_sim_bit_equivalent_to_software(self):
        """The log unit's n-ary LSE PE is the apps recurrence's n-ary
        fold: the unit equals the software forward on either plane."""
        hmm = sample_hmm(8, 16, 25, seed=4)
        unit = ForwardUnit(LOG, 8)
        value, timing = unit.simulate(hmm)
        for plan in (ExecPlan(), ExecPlan.serial()):
            assert value == forward(hmm, LogSpaceBackend(), plan=plan)
        assert value == software_forward_log(hmm)  # bit-equivalent
        assert timing.total_cycles == 25 * timing.cycles_per_outer

    def test_posit_sim_bit_equivalent_to_software(self):
        hmm = sample_hmm(8, 16, 25, seed=5)
        unit = ForwardUnit(POSIT, 8)
        value, _ = unit.simulate(hmm)
        assert value == software_forward_posit(hmm, es=18)

    def test_hardwired_h_check(self):
        hmm = sample_hmm(8, 16, 10, seed=0)
        with pytest.raises(ValueError):
            ForwardUnit(LOG, 16).simulate(hmm)

    def test_log_and_posit_sims_agree_in_value(self):
        hmm = sample_hmm(6, 8, 15, seed=6)
        lv, _ = ForwardUnit(LOG, 6).simulate(hmm)
        pv, _ = ForwardUnit(POSIT, 6).simulate(hmm)
        from repro.arith import LogSpaceBackend, PositBackend
        from repro.bigfloat import relative_error
        from repro.formats import PositEnv
        lbf = LogSpaceBackend().to_bigfloat(lv)
        pbf = PositBackend(PositEnv(64, 18)).to_bigfloat(pv)
        assert relative_error(lbf, pbf).to_float() < 1e-9

    def test_cpu_speedup_model(self):
        """Section V.B quotes 66x (H=64) and 115x (H=128)."""
        assert speedup_over_cpu(64) == pytest.approx(66, rel=0.15)
        assert speedup_over_cpu(128) == pytest.approx(115, rel=0.15)


class TestColumnUnit:
    def test_resources_match_table4(self):
        for style in (LOG, POSIT):
            unit = ColumnUnit(style)
            paper = unit.paper_reported()
            assert unit.resources().lut == pytest.approx(paper["LUT"], rel=0.05)
            assert unit.resources().register == pytest.approx(paper["Register"], rel=0.10)

    def test_table4_reduction_band(self):
        """Table IV: 64% LUT, 50% register, 60% DSP reductions."""
        red = reduction_row(ColumnUnit(LOG).resources(),
                            ColumnUnit(POSIT).resources())
        assert 58.0 < red["LUT"] < 68.0
        assert 45.0 < red["Register"] < 58.0

    def test_posit_faster_on_every_dataset(self):
        for shape in paper_scale_shapes(seed=1, n_datasets=3):
            assert ColumnUnit(POSIT).dataset_seconds(shape) < \
                ColumnUnit(LOG).dataset_seconds(shape)

    def test_improvement_band_5_to_25pct(self):
        """Fig. 7(b): single-unit improvements spread across ~5-25%
        depending on each dataset's K mix."""
        imps = [single_unit_improvement(s) for s in paper_scale_shapes()]
        assert 0.15 < max(imps) < 0.33
        assert 0.02 < min(imps) < 0.10
        assert max(imps) > 2 * min(imps)

    def test_dataset_seconds_in_paper_band(self):
        """Fig. 7(a)'s wall-clock times run from ~2,269s to ~25,020s."""
        secs = [ColumnUnit(LOG).dataset_seconds(s) for s in paper_scale_shapes()]
        assert 1_500 < min(secs) < 10_000
        assert 15_000 < max(secs) < 40_000

    def test_mmaps_per_clb_2x(self):
        """Fig. 8: posit column units deliver ~2x the MMAPS per CLB."""
        for shape in paper_scale_shapes():
            ratio = ColumnUnit(POSIT).mmaps_per_clb(shape) / \
                ColumnUnit(LOG).mmaps_per_clb(shape)
            assert 1.7 < ratio < 2.6

    def test_simulation_returns_value_and_timing(self):
        rng = np.random.default_rng(0)
        col = synth_column(rng, depth=30, k=3)
        value, timing = ColumnUnit(POSIT).simulate(col)
        assert timing.outer_iterations == 30
        backend = ColumnUnit(POSIT).backend()
        assert not backend.is_zero(value)

    def test_validation(self):
        with pytest.raises(ValueError):
            ColumnUnit("ieee")
        with pytest.raises(ValueError):
            ColumnUnit(LOG, n_pes=0)


class TestFloorplan:
    def test_paper_slr_fit(self):
        """Section VI.C: at most 4 log column units per SLR vs ~10 posit
        units."""
        log_fp = units_per_slr(ColumnUnit(LOG).resources())
        posit_fp = units_per_slr(ColumnUnit(POSIT).resources())
        assert log_fp.units_per_slr == 4
        assert posit_fp.units_per_slr >= 10
        assert log_fp.limiting_resource == "lut"

    def test_replication_speedup_compounds(self):
        out = replication_speedup(ColumnUnit(LOG).resources(),
                                  ColumnUnit(POSIT).resources(),
                                  single_unit_speedup=1.2)
        assert out["whole_fpga_speedup"] > 2.0

    def test_total_units_across_slrs(self):
        fp = units_per_slr(ColumnUnit(LOG).resources())
        assert fp.total_units == 4 * fp.units_per_slr


def test_paper_tables_integrity():
    """The verbatim paper tables must stay internally consistent."""
    assert len(PAPER_TABLE3) == 8
    assert len(PAPER_TABLE4) == 2
    for (style, h), row in PAPER_TABLE3.items():
        assert len(row) == 6
        assert row[1] > row[0]  # LUT > CLB always
