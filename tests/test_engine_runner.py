"""Chunked sweep runner: determinism, merge correctness, and the one
path every plan of ``run_op_sweep`` takes."""

import pytest

from repro.arith import standard_backends
from repro.core.accuracy import measure_pairs
from repro.core.analysis import BoxStats, run_op_sweep
from repro.core.sweep import (
    FIG3_BINS,
    binary64_skipped,
    plan_chunks,
    stable_chunk_seed,
)
from repro.engine import ExecPlan
from repro.engine.runner import run_sweep_parallel

BINS = (FIG3_BINS[0], FIG3_BINS[4], FIG3_BINS[-1])


def _rows(result):
    return {(b, f): result.boxes[b][f].row()
            for b in result.boxes for f in result.boxes[b]}


def _chunk_pairs(op, bins, per_bin, seed, chunk_size=250):
    """{bin: pairs} as the chunk plan draws them, in chunk order."""
    pairs = {b: [] for b in bins}
    for chunk in plan_chunks(op, bins, per_bin, seed, chunk_size):
        pairs[chunk.bin_range].extend(chunk.generate())
    return pairs


class TestChunkPlanning:
    def test_counts_and_indices(self):
        chunks = plan_chunks("add", BINS, per_bin=25, seed=0, chunk_size=10)
        per_bin = {}
        for c in chunks:
            per_bin.setdefault(c.bin_range, []).append(c.count)
        assert all(sum(v) == 25 for v in per_bin.values())
        assert all(v == [10, 10, 5] for v in per_bin.values())

    def test_seeds_are_process_independent(self):
        # blake2b of the key string: a fixed function, not Python hash.
        s = stable_chunk_seed("add", (-10, 1), seed=3, chunk_index=2)
        assert s == stable_chunk_seed("add", (-10, 1), 3, 2)
        assert s != stable_chunk_seed("add", (-10, 1), 3, 1)
        assert s != stable_chunk_seed("mul", (-10, 1), 3, 2)

    def test_chunk_regeneration_is_deterministic(self):
        (chunk,) = plan_chunks("mul", [BINS[1]], per_bin=8, seed=1,
                               chunk_size=8)
        assert chunk.generate() == chunk.generate()

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            plan_chunks("add", BINS, per_bin=5, seed=0, chunk_size=0)

    def test_chunked_generation_appends_on_growth(self):
        small = _chunk_pairs("add", BINS, per_bin=6, seed=0, chunk_size=4)
        large = _chunk_pairs("add", BINS, per_bin=10, seed=0, chunk_size=4)
        for b in BINS:
            assert large[b][:6] == small[b]


class TestParallelRunner:
    def test_workers_do_not_change_results(self):
        backends = standard_backends()
        inline = run_sweep_parallel("add", backends, per_bin=12, bins=BINS,
                                    seed=0, n_workers=0, chunk_size=5)
        forked = run_sweep_parallel("add", backends, per_bin=12, bins=BINS,
                                    seed=0, n_workers=2, chunk_size=5)
        assert _rows(inline) == _rows(forked)

    def test_batch_measure_equals_scalar_measure(self):
        backends = standard_backends()
        batched = run_sweep_parallel("mul", backends, per_bin=10, bins=BINS,
                                     seed=2, n_workers=0, batch=True)
        scalar = run_sweep_parallel("mul", backends, per_bin=10, bins=BINS,
                                    seed=2, n_workers=0, batch=False)
        assert _rows(batched) == _rows(scalar)

    def test_matches_serial_sweep_on_same_pairs(self):
        """The merged boxes equal one serial measurement per (bin,
        format) over the pairs the chunk plan draws."""
        backends = standard_backends()
        parallel = run_sweep_parallel("add", backends, per_bin=10,
                                      bins=BINS, seed=4, n_workers=0,
                                      chunk_size=4)
        pairs = _chunk_pairs("add", BINS, per_bin=10, seed=4, chunk_size=4)
        for b in BINS:
            for fmt, backend in backends.items():
                if binary64_skipped(fmt, b):
                    continue
                serial = BoxStats.from_errors(
                    fmt, b, *measure_pairs(backend, "add", pairs[b],
                                           batch=False))
                assert serial.row() == parallel.boxes[b][fmt].row()

    def test_binary64_skipped_left_of_range(self):
        backends = standard_backends()
        result = run_sweep_parallel("add", backends, per_bin=4, bins=BINS,
                                    seed=0, n_workers=0)
        assert "binary64" not in result.boxes[BINS[0]]
        assert "binary64" in result.boxes[BINS[-1]]


class TestRunOpSweepIntegration:
    def test_serial_plan_preserves_results(self):
        backends = standard_backends()
        plain = run_op_sweep("add", backends, per_bin=8, bins=BINS, seed=1,
                             plan=ExecPlan.serial())
        batched = run_op_sweep("add", backends, per_bin=8, bins=BINS,
                               seed=1)
        assert _rows(plain) == _rows(batched)

    def test_every_plan_gives_the_same_boxes(self):
        """300 pairs span two 250-pair chunks: every plan draws and
        measures the same pairs, in-process or across workers."""
        backends = standard_backends()
        bins = ((-500, -100),)
        results = [_rows(run_op_sweep("add", backends, per_bin=300,
                                      bins=bins, seed=0, plan=plan))
                   for plan in (ExecPlan(), ExecPlan.serial(),
                                ExecPlan(n_workers=0),
                                ExecPlan(n_workers=2))]
        assert all(r == results[0] for r in results[1:])

    def test_worker_plan_delegates_to_runner(self):
        backends = standard_backends()
        via_sweep = run_op_sweep("add", backends, per_bin=6, bins=BINS,
                                 seed=7, plan=ExecPlan(n_workers=0))
        via_runner = run_sweep_parallel("add", backends, per_bin=6,
                                        bins=BINS, seed=7, n_workers=0)
        assert _rows(via_sweep) == _rows(via_runner)

    def test_worker_plan_with_explicit_pairs_rejected(self):
        """Caller-supplied pairs are gone: every plan draws its pairs
        from the chunk plan, so ``pairs_by_bin=`` is an unknown keyword
        under any plan."""
        backends = standard_backends()
        pairs = _chunk_pairs("add", BINS, per_bin=4, seed=0)
        for plan in (ExecPlan(), ExecPlan(n_workers=2)):
            with pytest.raises(TypeError):
                run_op_sweep("add", backends, bins=BINS, pairs_by_bin=pairs,
                             plan=plan)

    def test_fig3_accepts_plan(self):
        from repro.experiments import fig3_op_accuracy
        result = fig3_op_accuracy.run(scale="test",
                                      plan=ExecPlan(n_workers=0))
        assert result.per_bin == fig3_op_accuracy.SCALES["test"]
        assert set(result.add.boxes) == set(FIG3_BINS)
