"""repro.telemetry: the collector, the zero-cost disabled path, and
counter *exactness* against ground truth computed outside the
instrumented code.

The event tests are the strong form of the observability contract: an
exhaustive 8-bit posit sweep (every pattern pair, all three ops)
asserts the batch engine's NaR / saturation / flush event tallies
equal counts derived independently from :class:`PositEnv` decode and
exact rational arithmetic — not from the batch code being tested.
"""

import json
import pickle
from fractions import Fraction

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import Collector


# ----------------------------------------------------------------------
# The disabled fast path
# ----------------------------------------------------------------------
class TestDisabledPath:
    def test_no_collector_by_default(self):
        assert telemetry.current() is None

    def test_span_returns_shared_noop_singleton(self):
        s1 = telemetry.span("a")
        s2 = telemetry.span("b")
        assert s1 is s2  # no per-call allocation while disabled
        with s1:
            pass  # usable as a context manager

    def test_count_and_event_are_noops(self):
        telemetry.count("x", 5)
        telemetry.event("y")
        with telemetry.collect() as t:
            pass
        assert t.counters == {} and t.events == {}

    def test_active_span_is_not_the_singleton(self):
        noop = telemetry.span("a")
        with telemetry.collect():
            assert telemetry.span("a") is not noop


# ----------------------------------------------------------------------
# Scoping
# ----------------------------------------------------------------------
class TestCollectScope:
    def test_scope_activates_and_deactivates(self):
        with telemetry.collect() as t:
            assert telemetry.current() is t
            telemetry.count("n", 2)
        assert telemetry.current() is None
        assert t.counters == {"n": 2}

    def test_nested_scopes_route_to_innermost(self):
        with telemetry.collect() as outer:
            telemetry.count("n")
            with telemetry.collect() as inner:
                telemetry.count("n", 10)
            telemetry.count("n")
        assert outer.counters == {"n": 2}
        assert inner.counters == {"n": 10}

    def test_reentering_a_collector_accumulates(self):
        c = Collector()
        with telemetry.collect(collector=c):
            telemetry.count("n")
        with telemetry.collect(collector=c):
            telemetry.count("n")
        assert c.counters == {"n": 2}

    def test_trace_and_collector_are_exclusive(self):
        with pytest.raises(ValueError):
            telemetry.collect(trace="x.jsonl", collector=Collector())


# ----------------------------------------------------------------------
# The Collector: spans, merge, pickle, export
# ----------------------------------------------------------------------
class TestCollector:
    def test_span_aggregation(self):
        with telemetry.collect() as t:
            for _ in range(3):
                with telemetry.span("work"):
                    pass
        count, total, lo, hi = t.spans["work"]
        assert count == 3
        assert 0 < lo <= total / 3 <= hi <= total

    def test_spans_nest(self):
        with telemetry.collect() as t:
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
        assert t.spans["outer"][0] == 1 and t.spans["inner"][0] == 1
        assert t.spans["outer"][1] >= t.spans["inner"][1]

    def test_merge_sums_and_combines(self):
        a, b = Collector(), Collector()
        a.count("n", 1)
        b.count("n", 2)
        b.count("only_b")
        a.event("e", 3)
        b.event("e", 4)
        a.spans["s"] = [2, 1.0, 0.4, 0.6]
        b.spans["s"] = [1, 0.2, 0.2, 0.2]
        b.spans["t"] = [1, 0.5, 0.5, 0.5]
        a.merge(b)
        assert a.counters == {"n": 3, "only_b": 1}
        assert a.events == {"e": 7}
        assert a.spans["s"] == [3, 1.2, 0.2, 0.6]
        assert a.spans["t"] == [1, 0.5, 0.5, 0.5]

    def test_pickle_round_trip_drops_sink(self, tmp_path):
        with telemetry.collect(trace=str(tmp_path / "t.jsonl")) as t:
            telemetry.count("n", 7)
            telemetry.event("e")
            with telemetry.span("s"):
                pass
            clone = pickle.loads(pickle.dumps(t))
        assert clone.counters == t.counters
        assert clone.events == t.events
        assert clone.spans == t.spans
        assert clone._sink is None

    def test_to_json_shape(self):
        with telemetry.collect() as t:
            telemetry.count("c", 2)
            telemetry.event("e")
            with telemetry.span("s"):
                pass
        payload = t.to_json()
        assert payload["counters"] == {"c": 2}
        assert payload["events"] == {"e": 1}
        span = payload["spans"]["s"]
        assert set(span) == {"count", "total_s", "min_s", "max_s"}
        json.dumps(payload)  # must be serializable as-is

    def test_report_table_and_empty_fallback(self):
        assert Collector().report() == "(nothing collected)"
        with telemetry.collect() as t:
            telemetry.count("nd.mul.log.batch", 42)
            with telemetry.span("app.hmm.forward"):
                pass
        text = t.report()
        assert "nd.mul.log.batch" in text and "42" in text
        assert "app.hmm.forward" in text


class TestTrace:
    def test_jsonl_span_lines_and_summary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry.collect(trace=str(path)) as t:
            telemetry.count("n", 5)
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [rec for rec in lines if rec["type"] == "span"]
        # Inner closes first, at nesting depth 1.
        assert [(s["name"], s["depth"]) for s in spans] == [
            ("inner", 1), ("outer", 0)]
        for s in spans:
            assert s["start_s"] >= 0 and s["duration_s"] >= 0
        summary = lines[-1]
        assert summary["type"] == "summary"
        assert summary["counters"] == t.to_json()["counters"] == {"n": 5}


# ----------------------------------------------------------------------
# Event exactness: exhaustive 8-bit posit sweep vs ground truth
# ----------------------------------------------------------------------
class TestPositEventExactness:
    """NaR / saturation / flush tallies over *every* posit(8,1) pattern
    pair must equal counts derived from PositEnv decode plus exact
    rational arithmetic (the batch engine is not consulted)."""

    @pytest.fixture(scope="class")
    def env(self):
        from repro.formats.posit import FLUSH, PositEnv
        return PositEnv(8, 1, underflow=FLUSH)

    @pytest.fixture(scope="class")
    def values(self, env):
        """Exact value per pattern; None marks NaR."""
        from repro.formats.posit import NAR, ZERO
        vals = {}
        for p in range(256):
            d = env.decode(p)
            if d is ZERO:
                vals[p] = Fraction(0)
            elif d is NAR:
                vals[p] = None
            else:
                m = -d.mantissa if d.sign else d.mantissa
                vals[p] = Fraction(m) * Fraction(2) ** d.exponent
        return vals

    def _ground_truth(self, env, values, op):
        """(nar, saturate, flush) counts over all 256x256 pairs.

        NaR comes from the input patterns alone; saturation is the
        exact comparison ``|exact| > maxpos``; flush consults the
        scalar environment's rounding only on the sub-``minpos``
        magnitudes (rounding is monotone, so no other lane can round
        to zero).  Zero-operand lanes pass through without events.
        """
        two_max = Fraction(2) ** env.max_scale
        minval = Fraction(2) ** env.min_scale
        scalar_op = {"add": env.add, "mul": env.mul, "div": env.div}[op]
        nar = sat = flush = 0
        for a in range(256):
            va = values[a]
            for b in range(256):
                vb = values[b]
                if va is None or vb is None or (op == "div" and vb == 0):
                    nar += 1
                    continue
                if op == "add":
                    if va == 0 or vb == 0:
                        continue
                    exact = va + vb
                    if exact == 0:  # cancellation: exact-zero result
                        continue
                elif op == "mul":
                    if va == 0 or vb == 0:
                        continue
                    exact = va * vb
                else:
                    if va == 0:
                        continue
                    exact = va / vb
                mag = abs(exact)
                if mag > two_max:
                    sat += 1
                elif mag < minval and scalar_op(a, b) == 0:
                    flush += 1
        return nar, sat, flush

    @pytest.mark.parametrize("op", ["add", "mul", "div"])
    def test_events_match_ground_truth(self, env, values, op):
        from repro.engine.posit_batch import BatchPosit
        bp = BatchPosit(env)
        a = np.repeat(np.arange(256, dtype=np.uint64), 256)
        b = np.tile(np.arange(256, dtype=np.uint64), 256)
        plain = getattr(bp, op)(a, b)
        with telemetry.collect() as t:
            collected = getattr(bp, op)(a, b)
        # Observing must not change the computation.
        assert np.array_equal(plain, collected)
        got = (t.events.get("posit.nar", 0),
               t.events.get("posit.saturate", 0),
               t.events.get("posit.flush", 0))
        assert got == self._ground_truth(env, values, op)


# ----------------------------------------------------------------------
# LNS table / memo counters
# ----------------------------------------------------------------------
class TestLNSCounters:
    @pytest.fixture()
    def operands(self):
        from repro.formats.lns import LNSEnv
        env = LNSEnv(6, 8)
        rng = np.random.default_rng(3)
        hi = rng.integers(env.min_code // 2, env.max_code, 500,
                          dtype=np.int64)
        gap = rng.integers(1, 2000, 500, dtype=np.int64)
        lo = np.maximum(hi - gap, np.int64(env.min_code))
        return env, hi, lo

    def _interior(self, bb, hi, lo):
        """How many lanes take the exact sb path (nonzero gap above
        the certified rounds-to-zero floor)."""
        d = np.minimum(hi, lo) - np.maximum(hi, lo)
        return int(((d < 0) & (d > bb._sb_floor)).sum())

    def test_table_mode_counts_build_then_hits(self, operands):
        from repro.arith.backends import LNSBackend
        from repro.engine.lns_batch import BatchLNS
        env, hi, lo = operands
        bb = BatchLNS(scalar=LNSBackend(env), sb_table=True)
        n_int = self._interior(bb, hi, lo)
        with telemetry.collect() as first:
            bb.add(hi, lo)
        with telemetry.collect() as second:
            bb.add(hi, lo)
        # Lazy build fires exactly once, on the first interior gap.
        assert first.counters["lns.sb.table_build"] == -int(bb._sb_floor) - 1
        assert "lns.sb.table_build" not in second.counters
        assert first.counters["lns.sb.table_hit"] == n_int
        assert second.counters["lns.sb.table_hit"] == n_int

    def test_memo_mode_hit_miss_partition(self, operands):
        from repro.arith.backends import LNSBackend
        from repro.engine.lns_batch import BatchLNS
        env, hi, lo = operands
        bb = BatchLNS(scalar=LNSBackend(env), sb_table=False)
        n_int = self._interior(bb, hi, lo)
        with telemetry.collect() as first:
            bb.add(hi, lo)
        with telemetry.collect() as second:
            bb.add(hi, lo)
        # Every interior lane is either a hit or a miss ...
        assert (first.counters["lns.sb.memo_hit"]
                + first.counters["lns.sb.memo_miss"]) == n_int
        assert first.counters["lns.sb.memo_miss"] > 0
        # ... and a repeat of the same call is all hits.
        assert second.counters["lns.sb.memo_hit"] == n_int
        assert second.counters.get("lns.sb.memo_miss", 0) == 0

    def test_table_and_memo_agree(self, operands):
        from repro.arith.backends import LNSBackend
        from repro.engine.lns_batch import BatchLNS
        env, hi, lo = operands
        table = BatchLNS(scalar=LNSBackend(env), sb_table=True)
        memo = BatchLNS(scalar=LNSBackend(env), sb_table=False)
        assert np.array_equal(table.add(hi, lo), memo.add(hi, lo))


# ----------------------------------------------------------------------
# Result-cache counters
# ----------------------------------------------------------------------
class TestCacheCounters:
    def test_miss_store_hit_and_bytes(self, tmp_path):
        from repro.experiments import cache
        directory = str(tmp_path)
        text = "rendered report"
        with telemetry.collect() as t:
            assert cache.load("figx", {"p": 1}, cache_dir=directory) is None
            cache.store("figx", {"p": 1}, text, cache_dir=directory)
            entry = cache.load("figx", {"p": 1}, cache_dir=directory)
        assert entry["text"] == text
        assert t.counters == {
            "cache.miss": 1,
            "cache.store": 1,
            "cache.store_bytes": len(text),
            "cache.hit": 1,
            "cache.hit_bytes": len(text),
        }


# ----------------------------------------------------------------------
# nd dispatch counters
# ----------------------------------------------------------------------
class TestNdCounters:
    def test_batch_binary_op_counts_elements(self):
        from repro import nd
        a = nd.asarray([0.1, 0.2, 0.3], format="log")
        b = nd.asarray([0.4, 0.5, 0.6], format="log")
        with telemetry.collect() as t:
            c = a * b
            c.sum()
        assert t.counters["nd.mul.log.batch"] == 3
        assert t.counters["nd.sum.log.batch"] == 1

    def test_astype_counts_conversions(self):
        from repro import nd
        a = nd.asarray([0.1, 0.2, 0.3], format="log")
        with telemetry.collect() as t:
            a.astype("binary64")
        assert t.counters["nd.astype.log->binary64.batch"] == 3


# ----------------------------------------------------------------------
# Fig3-style sweep: counters sum to the exact number of measured pairs,
# across worker processes, into one JSONL trace.
# ----------------------------------------------------------------------
class TestSweepCounterExactness:
    def test_parallel_sweep_counts_every_pair(self, tmp_path):
        from repro.arith import Binary64Backend, LogSpaceBackend
        from repro.core.sweep import FIG3_BINS, binary64_skipped, \
            plan_chunks
        from repro.engine.runner import run_sweep_parallel

        bins = (FIG3_BINS[0], FIG3_BINS[-1])  # one deep, one shallow
        per_bin, chunk_size = 6, 4
        backends = {b.name: b for b in (Binary64Backend(),
                                        LogSpaceBackend())}
        # The deep bin must actually exercise the skip rule.
        assert binary64_skipped("binary64", bins[0])
        path = tmp_path / "sweep.jsonl"
        with telemetry.collect(trace=str(path)) as t:
            run_sweep_parallel("add", backends, per_bin=per_bin,
                               bins=bins, n_workers=2,
                               chunk_size=chunk_size)
        for fmt in backends:
            expected = per_bin * sum(
                1 for b in bins if not binary64_skipped(fmt, b))
            measured = sum(
                n for key, n in t.counters.items()
                if key.startswith(f"sweep.add.{fmt}."))
            assert measured == expected, fmt
        # Per-chunk worker spans survive the process boundary.
        n_chunks = len(plan_chunks("add", bins, per_bin, 0, chunk_size))
        assert t.spans["runner.chunk"][0] == n_chunks
        assert t.spans["runner.sweep"][0] == 1
        # The trace summary carries the merged aggregate.
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        summary = lines[-1]
        assert summary["type"] == "summary"
        assert summary["counters"] == t.to_json()["counters"]
        assert summary["spans"]["runner.chunk"]["count"] == n_chunks

    def test_inline_matches_parallel_counts(self):
        from repro.arith import LogSpaceBackend
        from repro.core.sweep import FIG3_BINS
        from repro.engine.runner import run_sweep_parallel

        bins = (FIG3_BINS[-1],)
        backends = {"log": LogSpaceBackend()}
        with telemetry.collect() as inline:
            run_sweep_parallel("mul", backends, per_bin=5, bins=bins,
                               n_workers=0, chunk_size=3)
        with telemetry.collect() as parallel:
            run_sweep_parallel("mul", backends, per_bin=5, bins=bins,
                               n_workers=2, chunk_size=3)
        assert inline.counters == parallel.counters


# ----------------------------------------------------------------------
# Asyncio isolation (the service's per-request scopes depend on this)
# ----------------------------------------------------------------------
class TestAsyncioIsolation:
    """collect() scopes are contextvar-backed, so concurrent asyncio
    tasks with their own scopes must never cross-count, and tasks
    sharing an inherited collector must keep correct span depths."""

    def test_concurrent_scopes_do_not_cross_count(self):
        import asyncio

        async def worker(name, n):
            with telemetry.collect() as c:
                for _ in range(n):
                    telemetry.count(name)
                    await asyncio.sleep(0)  # force interleaving
                    with telemetry.span(f"work.{name}"):
                        await asyncio.sleep(0)
            return c

        async def main():
            return await asyncio.gather(worker("a", 7), worker("b", 11),
                                        worker("c", 3))

        a, b, c = asyncio.run(main())
        assert a.counters == {"a": 7} and a.spans["work.a"][0] == 7
        assert b.counters == {"b": 11} and b.spans["work.b"][0] == 11
        assert c.counters == {"c": 3} and c.spans["work.c"][0] == 3
        assert "work.b" not in a.spans and "work.a" not in b.spans

    def test_create_task_inherits_parent_collector(self):
        import asyncio

        async def child():
            telemetry.count("from_child")

        async def main():
            with telemetry.collect() as c:
                await asyncio.create_task(child())
            return c

        collector = asyncio.run(main())
        assert collector.counters == {"from_child": 1}

    def test_interleaved_tasks_keep_own_span_depths(self, tmp_path):
        """Regression: with a collector-owned stack, task B closing a
        span would pop task A's frame and corrupt both depths.  Depth
        is per-execution-context now."""
        import asyncio

        path = tmp_path / "trace.jsonl"

        async def nested(name, release, proceed):
            with telemetry.span(f"{name}.outer"):
                release.set()
                await proceed.wait()
                with telemetry.span(f"{name}.inner"):
                    await asyncio.sleep(0)

        async def main():
            with telemetry.collect(trace=str(path)):
                a_up = asyncio.Event()
                b_up = asyncio.Event()
                go = asyncio.Event()
                ta = asyncio.create_task(nested("a", a_up, go))
                tb = asyncio.create_task(nested("b", b_up, go))
                await a_up.wait()
                await b_up.wait()  # both outers open, interleaved
                go.set()
                await asyncio.gather(ta, tb)

        asyncio.run(main())
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        depths = {r["name"]: r["depth"] for r in records
                  if r["type"] == "span"}
        assert depths == {"a.outer": 0, "a.inner": 1,
                          "b.outer": 0, "b.inner": 1}

    def test_executor_thread_scope_merges_back(self):
        """The service's executor pattern: a thread enters its own
        collect(collector=child) scope (run_in_executor does not
        propagate context), and the child merges into the parent."""
        import asyncio

        from repro.telemetry import Collector

        async def main():
            loop = asyncio.get_running_loop()
            child = Collector()

            def in_thread():
                with telemetry.collect(collector=child):
                    telemetry.count("thread_work", 4)
                    with telemetry.span("thread.span"):
                        pass

            with telemetry.collect() as parent:
                await loop.run_in_executor(None, in_thread)
                parent.merge(child)
            return parent

        parent = asyncio.run(main())
        assert parent.counters == {"thread_work": 4}
        assert parent.spans["thread.span"][0] == 1
