"""Tests of the benchmark's own machinery (not of the program).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test
collection, which would otherwise pick it up with the program's tests.
"""

import asyncio
import json

import pytest

import calib
import run
import svc


# ----------------------------------------------------------------------
# Calibration arithmetic and percentiles
# ----------------------------------------------------------------------
def test_rescale_is_time_times_mean_relative_speed():
    assert calib.rescale(2.0, [1.0, 1.0]) == 2.0
    assert calib.rescale(1.0, [2.0, 2.0]) == 0.5
    # Half the region at full speed, half at half speed: 3/4 of t.
    assert calib.rescale(4.0, [1.0, 2.0]) == 3.0
    assert calib.rescale(4.0, [1.0, 2.0, 2.0, 1.0]) == 3.0
    # A CPU running at half speed doubles both the work and the slices.
    assert calib.rescale(4.0, [2.0, 2.0]) == calib.rescale(2.0, [1.0, 1.0])


@pytest.mark.parametrize("slowness", [[], [0.0, 0.0], [-1.0, 0.5],
                                      [float("nan"), 1.0]])
def test_rescale_rejects_bad_slices(slowness):
    with pytest.raises(ValueError):
        calib.rescale(1.0, slowness)


def test_slices_are_positive_and_the_reference_is_deterministic():
    import os
    assert calib.slice_slowness() > 0
    assert calib.spawn_slowness(dict(os.environ)) > 0
    assert calib._mini_run() == calib._mini_run()


def test_sampler_samples_during_a_region_only():
    import time
    with calib.Sampler() as sampler:
        deadline = time.perf_counter() + 10 * calib.SAMPLE_INTERVAL_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert 5 <= len(sampler.samples) <= 11
    assert all(s > 0 for s in sampler.samples)
    with calib.Sampler() as sampler:
        pass
    time.sleep(3 * calib.SAMPLE_INTERVAL_S)
    assert sampler.samples == []


def test_window_brackets_steps_and_cold_starts_wait_for_whole_groups(
        monkeypatch):
    import itertools
    import time
    slowness = itertools.chain([1.0, 2.0, 2.0, 1.0], itertools.repeat(1.0))
    monkeypatch.setattr(calib, "slice_slowness", lambda: next(slowness))
    events = []

    def step(k):
        events.append(k)
        time.sleep(0.06)
        return k * 10

    def cold():
        events.append("cold")
        return len(events)

    cal = []
    steps, colds = calib.timed_window(0.2, step, cal, cold=cold, n_cold=2,
                                      group=2)
    assert events[:4] == ["cold", 0, 1, "cold"]
    assert len(steps) % 2 == 0 and len(colds) == 2
    assert [s.value for s in steps] == [k * 10 for k in range(len(steps))]
    assert len(cal) == 1 + len(colds) + len(steps)
    # Step 0 ran between slices at slowness 2 and 2, step 1 between 2
    # and 1.
    assert [s.factor for s in steps[:2]] == [0.5, 0.75]
    assert all(s.raw_s >= 0.06 for s in steps)


def test_percentile_is_nearest_rank_with_its_sample_count():
    values = list(range(100, 0, -1))
    assert calib.percentile(values, 0.50) == (50, 100)
    assert calib.percentile(values, 0.99) == (99, 100)
    assert calib.percentile(values, 1.0) == (100, 100)
    assert calib.percentile([7.5], 0.9) == (7.5, 1)
    with pytest.raises(ValueError):
        calib.percentile([], 0.5)
    with pytest.raises(ValueError):
        calib.percentile(values, 0.0)


def test_quartiles_match_statistics_quantiles():
    import statistics
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    assert calib.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = calib.quartiles(values)
    assert calib.spread(values) == (q3 - q1) / q2


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_same_seed_gives_identical_request_bodies():
    bodies = svc.request_bodies(5)
    assert bodies == svc.request_bodies(5)
    assert bodies != svc.request_bodies(6)
    assert len(set(bodies)) == svc.N_MODELS
    model = json.loads(bodies[0])["payload"]["models"][0]
    assert len(model["transition"]) == svc.H
    assert len(model["emission"][0]) == svc.M
    assert len(model["observations"]) == svc.T


# ----------------------------------------------------------------------
# The load generator against a stub server
# ----------------------------------------------------------------------
def _stub(responses):
    """A server answering every POST with ``responses(i)``: (status,
    payload dict); returns (start coroutine factory, accepted list)."""
    accepted = []

    async def handle(reader, writer):
        accepted.append(writer)
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1]
                             .split(b"\r\n")[0])
                body = json.loads(await reader.readexactly(length))
                index = int(body["request_id"][1:])
                status, payload = responses(index)
                data = json.dumps(payload).encode()
                writer.write(b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n"
                             % (status, len(data)) + data)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    return handle, accepted


def _drive(responses, n):
    frames = [svc.frame(b) for b in svc.request_bodies(1)]
    handle, accepted = _stub(responses)

    async def main():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        gen = svc.LoadGen(port, frames)
        await gen.open()
        try:
            return await asyncio.wait_for(gen.burst(0, n), 30)
        finally:
            await gen.close()
            server.close()
            await server.wait_closed()

    return asyncio.run(main()), accepted


def test_generator_opens_two_connections():
    assert svc.CONNECTIONS == 2
    results, accepted = _drive(lambda i: (200, {"values": [i]}), 20)
    assert len(accepted) == 2
    assert sorted(index for index, *_ in results) == list(range(20))
    assert all(status == 200 for _i, status, _b, _lat in results)
    assert all(lat > 0 for *_x, lat in results)


def test_non_200_and_mismatched_responses_count_as_failures():
    expected = [[[0, "1", i]] for i in range(svc.N_MODELS)]

    def responses(i):
        if i % 4 == 0:
            return 500, {"error": {"code": "workload-failed"}}
        if i % 4 == 1:
            return 200, {"values": [[0, "2", i]]}
        return 200, {"values": expected[i]}

    results, _ = _drive(responses, 16)
    checker = svc.Checker(expected)
    for index, status, body, _lat in results:
        checker.check(index, status, body)
    assert checker.attempted == 16
    assert checker.failed == 8
    assert checker.first_failure is not None


def test_tally_counts_failures_with_the_first_reason():
    tally = calib.Tally()
    assert tally.record(True)
    assert not tally.record(False, "fig1 differs")
    tally.record(False, "fig3 differs")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.first_failure == "fig1 differs"


# ----------------------------------------------------------------------
# Output contract
# ----------------------------------------------------------------------
def test_reported_metric_names_match_benchmark_json():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    out = {k: 1.0 for k in ("throughput", "latency_p50_ms", "wall_s",
                            "setup_s", "peak_rss_mib")}
    assert list(run.end_to_end(out)) == [m["name"]
                                         for m in spec["end_to_end"]]
    names = [m["name"] for m in spec["per_layer"]]
    out.update({f"raw.{k}": 1.0 for k in ("throughput", "latency_p50_ms",
                                          "wall_s", "setup_s")})
    out.update(calib=[1.0], failed=0, attempted=4,
               traced={"calib": [1.0], "latency_p50_ms": 1.0,
                       "wall_s": 1.5, "baseline": {"wall_s": 1.2},
                       "layers": {"metrics": {"nd.op_calls": 3.0}}})
    values = run.per_layer("exp-figures", out, names)
    assert set(values) == set(names)
    assert values["nd.op_calls"] == 3.0
    assert values["trace_overhead_pct"] == pytest.approx(25.0)
    out["traced"]["layers"]["metrics"]["not.declared"] = 1.0
    with pytest.raises(RuntimeError):
        run.per_layer("exp-figures", out, names)
