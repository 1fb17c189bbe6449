"""Deterministic fault injection (:mod:`repro.faults`) and the recovery
paths it exercises: trigger semantics and schedule determinism, the
zero-cost disabled path, the batch -> serial degradation ladder
(bit-identical at every rung), and worker-crash recovery in the
parallel sweep runner (``kill`` mode, pool restart, deterministic
merge)."""

import threading

import numpy as np
import pytest

from repro import faults, nd, telemetry
from repro.apps.hmm import _forward_nd
from repro.arith import standard_backends
from repro.core.accuracy import measure_pairs
from repro.core.sweep import FIG3_BINS, plan_chunks
from repro.engine.posit_batch import BatchPosit
from repro.engine.runner import run_sweep_parallel
from repro.faults import FaultPlan, FaultRule, InjectedFault
from repro.formats.posit import PositEnv

BINS = (FIG3_BINS[0], FIG3_BINS[4], FIG3_BINS[-1])


@pytest.fixture(autouse=True)
def _clean_quarantine():
    """Quarantine is process-wide state; never leak it across tests."""
    faults.reset_quarantine()
    yield
    faults.reset_quarantine()


def _hmm_arrays(bp, h=4, m=5, b_sz=6, t_len=8, seed=0):
    rng = np.random.default_rng(seed)

    def rows(shape):
        vals = rng.uniform(0.05, 1.0, size=shape)
        return nd.wrap(
            bp.from_floats(vals / vals.sum(axis=-1, keepdims=True)), bb=bp)

    return (rows((h, h)), rows((h, m)), rows((h,)),
            rng.integers(0, m, size=(b_sz, t_len)))


class TestTriggers:
    def test_disabled_path_is_a_noop(self):
        assert faults.active() is None
        assert faults.fire("app.hmm.forward") is None
        assert faults._active_plans == 0

    def test_error_mode_raises_with_site(self):
        plan = FaultPlan([FaultRule("spot")])
        with faults.inject(plan):
            with pytest.raises(InjectedFault) as err:
                faults.fire("spot")
        assert err.value.site == "spot"
        assert plan.fired == [("spot", 0, "error")]

    def test_scope_exit_disarms(self):
        with faults.inject(FaultPlan([FaultRule("spot")])):
            pass
        assert faults.fire("spot") is None

    def test_nth_call_triggers(self):
        plan = FaultPlan([FaultRule("s", at=(1, 3))])
        with faults.inject(plan):
            hits = []
            for i in range(5):
                try:
                    faults.fire("s")
                    hits.append(False)
                except InjectedFault:
                    hits.append(True)
        assert hits == [False, True, False, True, False]

    def test_every_triggers(self):
        plan = FaultPlan([FaultRule("s", mode="corrupt", every=3)])
        with faults.inject(plan):
            modes = [faults.fire("s") for _ in range(7)]
        assert modes == [None, None, "corrupt", None, None, "corrupt",
                         None]

    def test_max_fires_retires_the_rule(self):
        plan = FaultPlan([FaultRule("s", mode="corrupt", max_fires=2)])
        with faults.inject(plan):
            modes = [faults.fire("s") for _ in range(4)]
        assert modes == ["corrupt", "corrupt", None, None]

    def test_prefix_site_matching(self):
        plan = FaultPlan([FaultRule("app.hmm.*", mode="corrupt")])
        with faults.inject(plan):
            assert faults.fire("app.hmm.forward") == "corrupt"
            assert faults.fire("app.hmm.backward") == "corrupt"
            assert faults.fire("app.pbd") is None

    def test_probabilistic_schedule_is_seed_deterministic(self):
        def schedule(seed):
            plan = FaultPlan([FaultRule("s", mode="corrupt", p=0.5)],
                             seed=seed)
            with faults.inject(plan):
                for _ in range(64):
                    faults.fire("s")
            return list(plan.fired)

        first, again = schedule(11), schedule(11)
        assert first == again
        assert 0 < len(first) < 64          # p=0.5 actually thins
        assert schedule(12) != first        # the seed is the stream

    def test_key_controls_the_draw_not_the_counter(self):
        plan = FaultPlan([FaultRule("s", mode="corrupt", p=0.5)], seed=3)
        with faults.inject(plan):
            first = faults.fire("s", key=("chunk", 0))
            # Same key, same decision — call count does not matter.
            assert faults.fire("s", key=("chunk", 0)) == first

    def test_kill_degrades_to_error_where_not_allowed(self):
        plan = FaultPlan([FaultRule("s", mode="kill")])
        with faults.inject(plan):
            with pytest.raises(InjectedFault):
                faults.fire("s", kill_ok=False)

    def test_delay_mode_sleeps_and_reports(self):
        plan = FaultPlan([FaultRule("s", mode="delay", delay_s=0.0)])
        with faults.inject(plan):
            assert faults.fire("s") == "delay"

    def test_injection_emits_telemetry_event(self):
        with telemetry.collect() as col:
            with faults.inject(FaultPlan([FaultRule("s",
                                                    mode="corrupt")])):
                faults.fire("s")
        assert col.events["faults.injected.s"] == 1

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="mode"):
            FaultRule("s", mode="explode")
        with pytest.raises(ValueError, match="p must"):
            FaultRule("s", p=1.5)
        with pytest.raises(ValueError):
            FaultRule("s", every=-1)

    def test_global_injection_reaches_other_threads(self):
        """Executor threads and server tasks never inherit the
        injecting context — ``globally=True`` is how the chaos harness
        reaches them."""
        seen = []

        def probe():
            try:
                faults.fire("s")
                seen.append(None)
            except InjectedFault:
                seen.append("error")

        with faults.inject(FaultPlan([FaultRule("s")]), globally=True):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen == ["error"]

    def test_pickled_plan_replays_the_same_schedule(self):
        import pickle
        plan = FaultPlan([FaultRule("s", mode="corrupt", p=0.5)], seed=9)
        with faults.inject(plan):
            want = [faults.fire("s", key=i) for i in range(16)]
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.fired == []            # counters restart in workers
        with faults.inject(clone):
            got = [faults.fire("s", key=i) for i in range(16)]
        assert got == want
        assert clone.fired == plan.fired


class TestKernelSites:
    def test_kernel_site_raises_inside_the_call(self):
        bp = BatchPosit(PositEnv(16, 1))
        a, b, pi, obs = _hmm_arrays(bp)
        plan = FaultPlan([FaultRule("app.hmm.forward")])
        with faults.inject(plan), telemetry.collect() as col:
            with pytest.raises(InjectedFault):
                _forward_nd(a, b, pi, obs)
        assert col.events["faults.injected.app.hmm.forward"] == 1
        # The site fires inside the recurrence's span of the same name.
        assert col.spans["app.hmm.forward"][0] == 1
        # Disarmed again: the same call succeeds.
        _forward_nd(a, b, pi, obs)


class TestDegradationLadder:
    def test_quarantine_skips_tier_selection(self):
        backend = standard_backends()["posit(64,12)"]
        (chunk,) = plan_chunks("mul", [BINS[1]], per_bin=8, seed=1,
                               chunk_size=8)
        pairs = chunk.generate()
        faults.quarantine("batch")
        with telemetry.collect() as col:
            measure_pairs(backend, "mul", pairs, batch=True)
        assert col.counters["faults.fallback.batch"] == 1
        faults.reset_quarantine()
        with telemetry.collect() as col:
            measure_pairs(backend, "mul", pairs, batch=True)
        assert "faults.fallback.batch" not in col.counters

    def test_quarantined_tier_counts_fallbacks(self):
        faults.quarantine("batch")
        with telemetry.collect() as col:
            assert faults.quarantined("batch") is True
        assert col.counters["faults.fallback.batch"] == 1

    def test_batch_tier_degrades_to_scalar_identically(self):
        backend = standard_backends()["posit(64,12)"]
        (chunk,) = plan_chunks("mul", [BINS[1]], per_bin=8, seed=1,
                               chunk_size=8)
        pairs = chunk.generate()
        want = measure_pairs(backend, "mul", pairs, batch=False)
        plan = FaultPlan([FaultRule("batch.measure", max_fires=1)])
        with faults.inject(plan), telemetry.collect() as col:
            got = measure_pairs(backend, "mul", pairs, batch=True)
        assert got == want
        assert col.events["faults.degraded.batch"] == 1
        # Quarantined for the process: later calls keep the scalar
        # path without another failure.
        assert measure_pairs(backend, "mul", pairs, batch=True) == want
        assert faults.quarantined_tiers() == frozenset({"batch"})


class TestRunnerCrashRecovery:
    # Pinned so the blake2b stream kills some attempt-0 chunks but no
    # chunk on all three attempts (budget DEFAULT_CHUNK_RETRIES=2) —
    # asserted below, not assumed.
    KILL_SEED, KILL_P = 5, 0.4

    def _plan(self):
        return FaultPlan([FaultRule("runner.chunk", mode="kill",
                                    p=self.KILL_P)], seed=self.KILL_SEED)

    def _sweep(self, n_workers):
        backends = standard_backends()
        return run_sweep_parallel("add", backends, per_bin=12, bins=BINS,
                                  seed=0, n_workers=n_workers,
                                  chunk_size=5)

    @staticmethod
    def _rows(result):
        return {(b, f): result.boxes[b][f].row()
                for b in result.boxes for f in result.boxes[b]}

    def test_injected_worker_kills_do_not_change_results(self):
        want = self._rows(self._sweep(n_workers=0))

        # Inline: kill degrades to an in-place error, retried in place.
        inline_plan = self._plan()
        with faults.inject(inline_plan), telemetry.collect() as col:
            inline = self._rows(self._sweep(n_workers=0))
        assert inline == want
        assert inline_plan.fired                 # the storm happened
        assert col.events["runner.chunk_retry"] >= len(inline_plan.fired)

        # Pooled: kill hard-exits the worker (exit code 86), breaking
        # the executor; failed chunks resubmit on a fresh pool.
        with faults.inject(self._plan()), telemetry.collect() as col:
            pooled = self._rows(self._sweep(n_workers=2))
        assert pooled == want
        assert col.events["runner.pool_restart"] >= 1
        assert col.events["runner.chunk_retry"] >= 1

    def test_retried_attempts_draw_fresh_decisions(self):
        """The site key carries the attempt number, so a chunk killed
        at attempt 0 is *not* doomed at attempt 1."""
        plan = self._plan()
        chunks = plan_chunks("add", BINS, per_bin=12, seed=0,
                             chunk_size=5)
        attempt0 = [c for c in chunks if plan._unit(
            "runner.chunk",
            (c.op, c.bin_range, c.chunk_index, 0)) < self.KILL_P]
        assert attempt0                          # some chunks do die
        for c in chunks:
            draws = [plan._unit("runner.chunk",
                                (c.op, c.bin_range, c.chunk_index, a))
                     for a in range(3)]
            assert min(draws) < 1.0              # sanity
            assert not all(d < self.KILL_P for d in draws)

    def test_exhausted_retry_budget_raises(self):
        plan = FaultPlan([FaultRule("runner.chunk")])  # every attempt
        with faults.inject(plan):
            with pytest.raises(InjectedFault):
                run_sweep_parallel("add", standard_backends(), per_bin=4,
                                   bins=[BINS[0]], seed=0, n_workers=0,
                                   chunk_size=4, max_chunk_retries=1)
        assert [mode for _s, _t, mode in plan.fired] == ["error"] * 2
