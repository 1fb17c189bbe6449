"""The evaluation service end to end: coalescing determinism (coalesced
responses bit-identical to solo execution, per format), ragged requests
that must not coalesce, backpressure, priorities, cache dedupe, stats,
and the error paths."""

import asyncio
import time

import pytest

from repro import faults
from repro.apps.hmm import forward
from repro.data.dirichlet import sample_hmm
from repro.engine.plan import ExecPlan
from repro.nd.context import _default_backend
from repro.service import (
    EvalServer,
    InvalidRequest,
    Microbatcher,
    Overloaded,
    ProtocolError,
    ServiceClient,
    ServiceError,
    ShuttingDown,
    UnknownKind,
    WorkloadRequest,
    execute,
    handler_for,
)
from repro.service.api import encode_value
from repro.service.loadgen import forward_request, model_json
from repro.service.workloads import WorkloadHandler


async def _submit_concurrently(server, requests):
    """One client per request, all in flight at once."""
    async def one(request):
        async with ServiceClient("127.0.0.1", server.port) as client:
            return await client.submit(request)
    return await asyncio.gather(*(one(r) for r in requests))


def _solo_forward_wire(format_name, seed, h=3, m=3, t=10):
    """The bit-exact wire triple of a solo in-process forward()."""
    backend = _default_backend(format_name)
    hmm = sample_hmm(h, m, t, seed=seed)
    return encode_value(backend, forward(hmm, backend))


# Every registered format family: the bit-identical tier (binary64,
# posit, LNS), the certified-fallback tier (n-ary log runs the scalar
# representation under certified=True), and the oracle.
FORMATS = ("binary64", "log", "posit(64,12)", "posit(16,1)",
           "lns(12,50)", "bigfloat128")


class TestCoalescingDeterminism:
    """The tentpole promise: a coalesced response is bit-identical to
    solo execution, for every format."""

    @pytest.mark.parametrize("format_name", FORMATS)
    def test_coalesced_bit_identical_to_solo(self, format_name):
        n = 4
        requests = [forward_request(format_name, 3, 3, 10, seed=i)
                    for i in range(n)]

        async def run():
            # Long window + flush-on-full at n makes coalescing
            # deterministic: the batch flushes the moment all n arrive.
            async with EvalServer(port=0, window_s=0.5, max_batch=n,
                                  cache="off") as server:
                return await _submit_concurrently(server, requests)

        results = asyncio.run(run())
        for i, result in enumerate(results):
            assert result.stats["batch_size"] == n
            assert result.stats["coalesced"] is True
            assert result.values[0] == _solo_forward_wire(format_name, i)

    def test_execute_matches_forward(self):
        result = execute(forward_request("binary64", 4, 4, 16, seed=7))
        assert result.values[0] == _solo_forward_wire("binary64", 7,
                                                      h=4, m=4, t=16)
        assert result.stats["coalesced"] is False

    def test_multi_model_request_coalesces_with_singles(self):
        multi = WorkloadRequest(
            kind="forward", format="binary64",
            payload={"models": [model_json(3, 3, 10, seed=10),
                                model_json(3, 3, 10, seed=11)]})
        single = forward_request("binary64", 3, 3, 10, seed=12)

        async def run():
            async with EvalServer(port=0, window_s=0.5, max_batch=2,
                                  cache="off") as server:
                return await _submit_concurrently(server, [multi, single])

        multi_result, single_result = asyncio.run(run())
        assert multi_result.values == [_solo_forward_wire("binary64", 10),
                                       _solo_forward_wire("binary64", 11)]
        assert single_result.values == [_solo_forward_wire("binary64", 12)]


class TestRaggedRequests:
    """Odd-shaped requests must not coalesce — and must still be
    bit-identical to solo."""

    def test_different_shapes_do_not_coalesce(self):
        requests = [forward_request("binary64", 3, 3, 10, seed=0),
                    forward_request("binary64", 3, 3, 14, seed=1),
                    forward_request("binary64", 4, 3, 10, seed=2)]

        async def run():
            async with EvalServer(port=0, window_s=0.05, max_batch=8,
                                  cache="off") as server:
                return await _submit_concurrently(server, requests)

        results = asyncio.run(run())
        shapes = [(3, 3, 10), (3, 3, 14), (4, 3, 10)]
        for result, (h, m, t), seed in zip(results, shapes, range(3)):
            assert result.stats["batch_size"] == 1
            assert result.stats["coalesced"] is False
            assert result.values[0] == _solo_forward_wire(
                "binary64", seed, h=h, m=m, t=t)

    def test_mixed_shape_multi_model_request_runs_solo(self):
        ragged = WorkloadRequest(
            kind="forward", format="binary64",
            payload={"models": [model_json(3, 3, 10, seed=20),
                                model_json(3, 3, 12, seed=21)]})
        assert handler_for("forward").coalesce_key(ragged) is None

        async def run():
            async with EvalServer(port=0, window_s=0.5, max_batch=8,
                                  cache="off") as server:
                return await _submit_concurrently(server, [ragged])

        (result,) = asyncio.run(run())
        assert result.stats["coalesced"] is False
        assert result.values == [
            _solo_forward_wire("binary64", 20),
            _solo_forward_wire("binary64", 21, t=12)]

    def test_different_formats_do_not_coalesce(self):
        requests = [forward_request("binary64", 3, 3, 10, seed=0),
                    forward_request("posit(16,1)", 3, 3, 10, seed=0)]

        async def run():
            async with EvalServer(port=0, window_s=0.05, max_batch=8,
                                  cache="off") as server:
                return await _submit_concurrently(server, requests)

        for result in asyncio.run(run()):
            assert result.stats["batch_size"] == 1


class TestOtherKindsCoalesce:
    """pbd / op / astype coalesce along their own keys, values still
    bit-identical to solo execute()."""

    def _coalesced(self, requests, max_batch):
        async def run():
            async with EvalServer(port=0, window_s=0.5,
                                  max_batch=max_batch,
                                  cache="off") as server:
                return await _submit_concurrently(server, requests)
        return asyncio.run(run())

    def test_pbd(self):
        def req(seed):
            probs = [0.05 * (seed + 1), 0.1, 0.2, 0.15]
            return WorkloadRequest(kind="pbd", format="posit(64,12)",
                                   payload={"sites": [probs], "k": 2})
        requests = [req(0), req(1)]
        results = self._coalesced(requests, 2)
        for request, result in zip(requests, results):
            assert result.stats["coalesced"] is True
            assert result.values == execute(request).values

    def test_op_different_lengths_still_coalesce(self):
        a = WorkloadRequest(kind="op", format="lns(12,50)",
                            payload={"op": "mul", "a": [0.5, 0.25],
                                     "b": [0.125, 0.75]})
        b = WorkloadRequest(kind="op", format="lns(12,50)",
                            payload={"op": "mul", "a": [0.9],
                                     "b": [0.3]})
        results = self._coalesced([a, b], 2)
        for request, result in zip([a, b], results):
            assert result.stats["coalesced"] is True
            assert result.values == execute(request).values

    def test_astype(self):
        def req(values):
            return WorkloadRequest(kind="astype", format="binary64",
                                   payload={"to": "posit(16,1)",
                                            "values": values})
        requests = [req([0.3, 0.7]), req([1e-30])]
        results = self._coalesced(requests, 2)
        for request, result in zip(requests, results):
            assert result.stats["coalesced"] is True
            assert result.values == execute(request).values

    def test_op_does_not_coalesce_across_ops(self):
        add = WorkloadRequest(kind="op", format="binary64",
                              payload={"op": "add", "a": [1.0],
                                       "b": [2.0]})
        mul = WorkloadRequest(kind="op", format="binary64",
                              payload={"op": "mul", "a": [1.0],
                                       "b": [2.0]})
        h = handler_for("op")
        assert h.coalesce_key(add) != h.coalesce_key(mul)


class TestBackpressure:
    def test_http_429_when_queue_full(self):
        async def run():
            async with EvalServer(port=0, window_s=0.4, max_batch=64,
                                  max_queue=1, cache="off") as server:
                async with ServiceClient("127.0.0.1",
                                         server.port) as c1, \
                        ServiceClient("127.0.0.1", server.port) as c2:
                    first = asyncio.ensure_future(c1.submit(
                        forward_request("binary64", 3, 3, 10, seed=0)))
                    await asyncio.sleep(0.05)  # first now holds the slot
                    with pytest.raises(Overloaded):
                        await c2.submit(
                            forward_request("binary64", 3, 3, 10, seed=1))
                    result = await first
                    assert result.values[0] == _solo_forward_wire(
                        "binary64", 0)
        asyncio.run(run())

    def test_overloaded_carries_429(self):
        assert Overloaded("x").http_status == 429


class _StubHandler(WorkloadHandler):
    """Deterministic scheduler probe: records execution order."""

    kind = "stub"

    def __init__(self, key=None, fail_batches=False, sleep_s=0.0):
        self.key = key
        self.fail_batches = fail_batches
        self.sleep_s = sleep_s
        self.batches = []

    def validate(self, request):
        pass

    def coalesce_key(self, request):
        return self.key

    def run_batch(self, requests, plan=None):
        self.batches.append([r.request_id for r in requests])
        if self.fail_batches and len(requests) > 1:
            raise RuntimeError("poisoned batch")
        if self.sleep_s:
            time.sleep(self.sleep_s)
        return [([r.request_id], {}) for r in requests]


class TestScheduler:
    def test_priorities_drain_highest_first(self):
        handler = _StubHandler(sleep_s=0.03)

        async def run():
            batcher = Microbatcher(window_s=0.0, max_batch=1,
                                   max_queue=64)

            def req(rid, priority):
                return WorkloadRequest(kind="stub", priority=priority,
                                       request_id=rid)

            first = asyncio.ensure_future(
                batcher.submit(handler, req("warmup", 0)))
            await asyncio.sleep(0.01)  # warmup is executing
            rest = [asyncio.ensure_future(batcher.submit(handler, r))
                    for r in (req("low", 0), req("high", 5),
                              req("mid", 2))]
            await asyncio.gather(first, *rest)
            await batcher.stop()

        asyncio.run(run())
        assert [b[0] for b in handler.batches] == \
            ["warmup", "high", "mid", "low"]

    def test_flush_on_full_preempts_window(self):
        handler = _StubHandler(key=("stub",))

        async def run():
            batcher = Microbatcher(window_s=30.0, max_batch=3,
                                   max_queue=64)
            results = await asyncio.gather(*(
                batcher.submit(handler,
                               WorkloadRequest(kind="stub",
                                               request_id=f"r{i}"))
                for i in range(3)))
            await batcher.stop()
            return results

        results = asyncio.run(run())  # returns => no 30s window wait
        assert handler.batches == [["r0", "r1", "r2"]]
        assert all(stats["batch_size"] == 3 for _values, stats in results)

    def test_poisoned_batch_falls_back_to_solo(self):
        handler = _StubHandler(key=("stub",), fail_batches=True)

        async def run():
            batcher = Microbatcher(window_s=30.0, max_batch=2,
                                   max_queue=64)
            results = await asyncio.gather(*(
                batcher.submit(handler,
                               WorkloadRequest(kind="stub",
                                               request_id=f"r{i}"))
                for i in range(2)))
            await batcher.stop()
            return results

        results = asyncio.run(run())
        assert [values for values, _stats in results] == [["r0"], ["r1"]]
        assert all(stats["batch_size"] == 1 for _values, stats in results)
        # One failed coalesced attempt, then two solo retries.
        assert handler.batches[0] == ["r0", "r1"]
        assert sorted(map(tuple, handler.batches[1:])) == \
            [("r0",), ("r1",)]

    def test_stop_fails_pending_with_shutting_down(self):
        handler = _StubHandler(key=("stub",))

        async def run():
            batcher = Microbatcher(window_s=30.0, max_batch=8,
                                   max_queue=64)
            pending = asyncio.ensure_future(
                batcher.submit(handler, WorkloadRequest(kind="stub")))
            await asyncio.sleep(0.01)
            await batcher.stop()
            with pytest.raises(ShuttingDown):
                await pending
            with pytest.raises(ShuttingDown):
                await batcher.submit(handler,
                                     WorkloadRequest(kind="stub"))

        asyncio.run(run())


class TestCacheDedupe:
    def test_repeat_request_served_from_cache(self, tmp_path):
        request = forward_request("binary64", 3, 3, 10, seed=5)

        async def run():
            async with EvalServer(port=0, window_s=0.0, cache="auto",
                                  cache_dir=str(tmp_path)) as server:
                async with ServiceClient("127.0.0.1",
                                         server.port) as client:
                    first = await client.submit(request)
                    second = await client.submit(request)
            return first, second

        first, second = asyncio.run(run())
        assert "cached" not in first.stats
        assert second.stats["cached"] is True
        assert second.values == first.values

    def test_plan_cache_off_disables_dedupe(self, tmp_path):
        request = WorkloadRequest(
            kind="forward", format="binary64",
            payload={"models": [model_json(3, 3, 10, seed=6)]},
            plan=ExecPlan(cache="off"))

        async def run():
            async with EvalServer(port=0, window_s=0.0, cache="auto",
                                  cache_dir=str(tmp_path)) as server:
                async with ServiceClient("127.0.0.1",
                                         server.port) as client:
                    await client.submit(request)
                    return await client.submit(request)

        second = asyncio.run(run())
        assert "cached" not in second.stats


class TestErrorPaths:
    def _server_run(self, coro_factory):
        async def run():
            async with EvalServer(port=0, window_s=0.0,
                                  cache="off") as server:
                async with ServiceClient("127.0.0.1",
                                         server.port) as client:
                    return await coro_factory(client)
        return asyncio.run(run())

    def test_unknown_kind_is_400(self):
        with pytest.raises(UnknownKind, match="spectral"):
            self._server_run(lambda c: c.submit(
                WorkloadRequest(kind="spectral")))

    def test_invalid_payload_is_400(self):
        with pytest.raises(InvalidRequest, match="models"):
            self._server_run(lambda c: c.submit(
                WorkloadRequest(kind="forward", format="binary64",
                                payload={"models": []})))

    def test_unknown_format_is_400(self):
        with pytest.raises(InvalidRequest, match="quaternion64"):
            self._server_run(lambda c: c.submit(
                WorkloadRequest(kind="forward", format="quaternion64",
                                payload={"models": [
                                    model_json(3, 3, 10, seed=0)]})))

    def _status(self, request):
        return self._server_run(lambda c: c._round_trip(
            "POST", "/v1/workload", request.to_json()))

    @pytest.mark.parametrize("fmt", ("binary64", "log"))
    @pytest.mark.parametrize("field", ("transition", "emission",
                                       "initial"))
    def test_negative_model_probability_is_400(self, field, fmt):
        model = model_json(3, 3, 10, seed=0)
        row = model[field][0] if field != "initial" else model[field]
        row[0] = -row[0]
        status, payload = self._status(WorkloadRequest(
            kind="forward", format=fmt, payload={"models": [model]}))
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"
        assert field in payload["error"]["message"]

    @pytest.mark.parametrize("field,value", [
        ("out_dir", 5), ("cache_dir", ["x"]), ("use_cache", "false"),
        ("refresh", 1)])
    def test_mistyped_experiment_payload_is_400(self, field, value):
        status, payload = self._status(WorkloadRequest(
            kind="experiment",
            payload={"experiment_id": "table1", field: value}))
        assert status == 400
        assert payload["error"]["code"] == "invalid-request"
        assert field in payload["error"]["message"]

    def test_bad_model_never_joins_a_batch(self):
        """A bad model is rejected before queueing, so its would-be
        batchmate runs once, alone, with the exact answer."""
        bad_model = model_json(3, 3, 10, seed=1)
        bad_model["initial"][0] = -0.5
        requests = [forward_request("log", 3, 3, 10, seed=0),
                    WorkloadRequest(kind="forward", format="log",
                                    payload={"models": [bad_model]})]

        async def run():
            async with EvalServer(port=0, window_s=0.2, max_batch=2,
                                  cache="off") as server:
                async def one(request):
                    async with ServiceClient("127.0.0.1",
                                             server.port) as client:
                        try:
                            return await client.submit(request)
                        except InvalidRequest as exc:
                            return exc
                results = await asyncio.gather(*map(one, requests))
                async with ServiceClient("127.0.0.1",
                                         server.port) as client:
                    return results, await client.stats()

        (good, bad), stats = asyncio.run(run())
        assert good.values == [_solo_forward_wire("log", 0)]
        assert isinstance(bad, InvalidRequest)
        assert stats["telemetry"]["counters"]["service.forward.models"] == 1

    def test_unknown_field_is_protocol_error(self):
        async def bad(client):
            status, payload = await client._round_trip(
                "POST", "/v1/workload",
                {"kind": "forward", "postel_mode": True})
            return status, payload
        status, payload = self._server_run(bad)
        assert status == 400
        assert payload["error"]["code"] == "bad-request"
        assert "postel_mode" in payload["error"]["message"]

    def test_malformed_json_is_400(self):
        async def bad(client):
            await client.connect()
            body = b"{not json"
            client._writer.write(
                (f"POST /v1/workload HTTP/1.1\r\n"
                 f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
            return await client._read_response()
        status, payload = self._server_run(bad)
        assert status == 400
        assert "JSON" in payload["error"]["message"]

    def test_unknown_route_is_404(self):
        async def bad(client):
            return await client._round_trip("GET", "/v2/everything", None)
        status, payload = self._server_run(bad)
        assert status == 404
        assert "/v1/workload" in payload["error"]["message"]


class TestStatsAndHealth:
    def test_stats_reflect_traffic_and_telemetry(self):
        async def run():
            async with EvalServer(port=0, window_s=0.5, max_batch=3,
                                  cache="off") as server:
                requests = [forward_request("binary64", 3, 3, 10, seed=i)
                            for i in range(3)]
                await _submit_concurrently(server, requests)
                async with ServiceClient("127.0.0.1",
                                         server.port) as client:
                    health = await client.healthz()
                    stats = await client.stats()
            return health, stats

        health, stats = asyncio.run(run())
        assert health["ok"] is True
        assert stats["requests"] >= 3
        assert stats["coalescing"]["factor"] == 3.0
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"] > 0
        counters = stats["telemetry"]["counters"]
        assert counters["service.batches"] == 1
        assert counters["service.coalesced_requests"] == 3
        assert counters["service.http.requests"] >= 3
        # Kernel-level telemetry from the executor thread merged in.
        assert any(name.startswith("nd.") for name in counters)
        assert "service.batch_wait" in stats["telemetry"]["spans"]


class TestExperimentKind:
    def test_experiment_request_runs_through_service(self):
        result = execute(WorkloadRequest(
            kind="experiment",
            payload={"experiment_id": "table1", "use_cache": False}))
        assert "posit(64,12)" in result.values[0]
        assert result.stats["cached"] is False

    def test_unknown_experiment_rejected(self):
        with pytest.raises(InvalidRequest, match="fig99"):
            execute(WorkloadRequest(kind="experiment",
                                    payload={"experiment_id": "fig99"}))

    def test_bad_scale_rejected(self):
        with pytest.raises(InvalidRequest, match="scale"):
            execute(WorkloadRequest(
                kind="experiment",
                payload={"experiment_id": "table1", "scale": "huge"}))

    @pytest.mark.parametrize("field,value", [
        ("out_dir", 5), ("out_dir", ""), ("cache_dir", ["x"]),
        ("use_cache", "false"), ("use_cache", None), ("refresh", "true"),
        ("refresh", 1)])
    def test_mistyped_payload_rejected(self, field, value):
        with pytest.raises(InvalidRequest, match=field):
            execute(WorkloadRequest(
                kind="experiment",
                payload={"experiment_id": "table1", field: value}))

    def test_unhashable_experiment_id_rejected(self):
        with pytest.raises(InvalidRequest, match="experiment"):
            execute(WorkloadRequest(kind="experiment",
                                    payload={"experiment_id": ["fig1"]}))


class TestServiceErrorHierarchy:
    def test_every_service_error_maps_to_itself(self):
        for exc in (ProtocolError("x"), Overloaded("x"),
                    ServiceError("x")):
            assert isinstance(exc, ServiceError)


class TestResilience:
    """PR 10: fault sites pinned through a real server — poisoned
    batches fall back to solo with exact values, queued requests aged
    past the server deadline are shed as typed 503s, and dropped
    connections are healed by client retries.  Plans are injected
    ``globally`` because the scheduler's executor thread and the
    connection tasks never inherit the test's contextvars."""

    def test_poisoned_batch_still_answers_exactly(self):
        n = 2
        requests = [forward_request("binary64", 3, 3, 10, seed=i)
                    for i in range(n)]
        plan = faults.FaultPlan([faults.FaultRule("service.batch",
                                                  at=(0,))])

        async def run():
            async with EvalServer(port=0, window_s=0.5, max_batch=n,
                                  cache="off") as server:
                return await _submit_concurrently(server, requests)

        with faults.inject(plan, globally=True):
            results = asyncio.run(run())
        assert plan.fired == [("service.batch", 0, "error")]
        for i, result in enumerate(results):
            # The coalesced attempt died; the solo fallback answered
            # with the exact solo wire values.
            assert result.stats["batch_size"] == 1
            assert result.values[0] == _solo_forward_wire("binary64", i)

    def test_queued_request_aged_past_deadline_is_shed(self):
        from repro.service.api import DeadlineExceeded
        plan = faults.FaultPlan([faults.FaultRule(
            "service.batch", mode="delay", at=(0,), delay_s=0.5)])

        async def run():
            async with EvalServer(port=0, window_s=0.0, max_batch=1,
                                  deadline_s=0.1,
                                  cache="off") as server:
                async def one(seed, **kwargs):
                    client = ServiceClient("127.0.0.1", server.port,
                                           **kwargs)
                    async with client:
                        return await client.submit(
                            forward_request("binary64", 3, 3, 10,
                                            seed=seed))
                # First request holds the (single-lane) executor for
                # 0.5s; the second ages out in the queue.
                stalled = asyncio.ensure_future(one(0))
                await asyncio.sleep(0.05)
                with pytest.raises(DeadlineExceeded) as err:
                    await one(1, retries=0)
                first = await stalled
                return first, err.value, server.stats()

        with faults.inject(plan, globally=True):
            first, exc, stats = asyncio.run(run())
        assert exc.http_status == 503
        assert exc.code == "deadline-exceeded"
        assert stats["telemetry"]["counters"]["service.shed"] == 1
        # The stalled request itself still answered exactly.
        assert first.values[0] == _solo_forward_wire("binary64", 0)

    def test_dropped_connection_is_healed_by_retry(self):
        plan = faults.FaultPlan([faults.FaultRule("service.connection",
                                                  at=(0,))])

        async def run():
            async with EvalServer(port=0, window_s=0.0, max_batch=1,
                                  cache="off") as server:
                client = ServiceClient("127.0.0.1", server.port,
                                       retries=2, backoff_s=0.01)
                async with client:
                    result = await client.submit(
                        forward_request("binary64", 3, 3, 10, seed=0))
                return result, server.stats()

        with faults.inject(plan, globally=True):
            result, stats = asyncio.run(run())
        # The answer was computed, then the socket died before the
        # bytes went out; the retried request answered exactly.
        counters = stats["telemetry"]["counters"]
        assert counters["service.dropped_connections"] == 1
        assert result.values[0] == _solo_forward_wire("binary64", 0)

    def test_connect_retries_ride_out_a_late_server(self):
        import random
        import socket

        from repro import telemetry

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here until the server starts

        async def run():
            async def late_client():
                client = ServiceClient(
                    "127.0.0.1", port, connect_retries=20,
                    backoff_s=0.05, backoff_max_s=0.1,
                    rng=random.Random(0))
                with telemetry.collect() as col:
                    async with client:
                        result = await client.submit(
                            forward_request("binary64", 3, 3, 10,
                                            seed=0))
                return result, col.counters.get("client.connect_retries",
                                                0)

            task = asyncio.ensure_future(late_client())
            await asyncio.sleep(0.25)
            async with EvalServer(port=port, window_s=0.0, max_batch=1,
                                  cache="off"):
                return await task

        result, retried = asyncio.run(run())
        assert retried >= 1
        assert result.values[0] == _solo_forward_wire("binary64", 0)


class TestServeCLI:
    @pytest.mark.parametrize("flags", [["--max-batch", "0"],
                                       ["--max-queue", "0"],
                                       ["--window-ms", "-1"]])
    def test_out_of_range_flag_is_a_usage_error(self, flags, capsys):
        """The Microbatcher's own range check surfaces as an argparse
        usage error (exit 2, its message), not a traceback."""
        from repro.service.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["serve", *flags])
        assert exc.value.code == 2
        assert "must be >=" in capsys.readouterr().err
