"""The svc-forward-posit workload: closed-loop HTTP ``forward`` traffic.

One process generates all load over ``CONNECTIONS`` keep-alive
connections, writing raw HTTP/1.1 frames built before the clock starts,
so the program's own client and load harness cannot change the load.
Traffic cycles through ``N_MODELS`` distinct seeded HMMs, one model per
request.  Time is measured in bursts; a calibration slice (see
``calib``) runs before and after every burst, while no
request is in flight, and each burst's times are rescaled by the mean
relative speed of its two slices.

The untraced phase serves through ``python -m repro.service serve`` with
its defaults plus ``--no-cache``.  The traced phase hosts
``repro.service.server.EvalServer`` in this process with the same
defaults, first untraced (the baseline of the tracing overhead), then
with the layer wrappers of ``tracer`` on the request path.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import subprocess
import sys
import time
from typing import List, Optional, Tuple

import numpy as np

from calib import (Tally, Timed, median, percentile, rescale,
                   spawn_slowness, timed_window)
from tracer import CURRENT_REQUEST, Tracer, self_time_table

_now = time.perf_counter

#: Keep-alive connections the generator opens: one per CPU of the
#: 2-vCPU machines the benchmark targets.  More connections would only
#: queue in the same single-CPU server.
CONNECTIONS = 2
#: Distinct request bodies (one seeded model each) traffic cycles over.
N_MODELS = 64
#: Untimed requests sent after the server answers, before timing.
WARMUP_REQUESTS = 16
#: Cold starts measured per run, spread across the timed window.
COLD_STARTS = 5
#: Seconds a spawned server may take to print its address.
SPAWN_TIMEOUT_S = 60.0


#: The traffic: ``forward`` in ``posit(64,12)``, one H=M=8, T=24 model
#: per request.  It is kernel-bound (the posit kernel is ~97% of a
#: request), so the compute reference of ``calib`` tracks it.  The
#: binary64 request path (H=M=8, T=96) is not measured: its latency is
#: mostly wake-ups, round trips and the coalescing window, and no
#: reference held it steady (see ``calib``).
FORMAT = "posit(64,12)"
H = M = 8
T = 24
#: Requests per timed burst: one per connection, so one coalesced batch
#: (~0.15 s).  Short bursts let the slices around them follow speed
#: changes of under a second: over 5 runs, 8-request bursts spread
#: throughput 6.2% (IQR over median), 2-request bursts 1.4%.
BURST = CONNECTIONS


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _model(rng: np.random.Generator, h: int, m: int, t: int) -> dict:
    return {"transition": rng.dirichlet(np.ones(h), size=h).tolist(),
            "emission": rng.dirichlet(np.ones(m), size=h).tolist(),
            "initial": rng.dirichlet(np.ones(h)).tolist(),
            "observations": [int(o) for o in rng.integers(0, m, size=t)]}


def request_bodies(seed: int) -> List[bytes]:
    """The ``N_MODELS`` request bodies of one workload seed."""
    rng = np.random.default_rng([seed, H, M, T])
    return [json.dumps({"kind": "forward", "format": FORMAT,
                        "payload": {"models": [_model(rng, H, M, T)]},
                        "request_id": f"m{i}"}).encode()
            for i in range(N_MODELS)]


def frame(body: bytes) -> bytes:
    return (b"POST /v1/workload HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body


def live_expected(bodies: List[bytes]) -> List[list]:
    """Each body's values from the program's in-process solo path."""
    from repro.service.api import WorkloadRequest
    from repro.service.workloads import execute
    return [execute(WorkloadRequest.from_json(json.loads(body))).values
            for body in bodies]


class Checker(Tally):
    """A response fails when its status is not 200 or its values differ
    from the expected exact wire triples."""

    def __init__(self, expected: List[list]):
        super().__init__()
        self.expected = expected

    def check(self, index: int, status: int, body: bytes) -> Optional[dict]:
        """The parsed response, or None after counting a failure."""
        if status != 200:
            self.record(False, f"model {index}: HTTP {status}: "
                               f"{body[:200]!r}")
            return None
        try:
            payload = json.loads(body)
        except ValueError:
            self.record(False, f"model {index}: response is not JSON")
            return None
        values = payload.get("values")
        if self.record(values == self.expected[index],
                       f"model {index}: values {values!r} != expected "
                       f"{self.expected[index]!r}"):
            return payload
        return None


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def _parse_head(head: bytes) -> Tuple[int, int]:
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, length


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status, length = _parse_head(head[:-4])
    return status, await reader.readexactly(length)


class LoadGen:
    """Closed loop over ``CONNECTIONS`` keep-alive connections: each
    sends its next frame only after its previous response arrived."""

    def __init__(self, port: int, frames: List[bytes]):
        self.port = port
        self.frames = frames
        self._conns: list = []

    async def open(self) -> None:
        for _ in range(CONNECTIONS):
            self._conns.append(await asyncio.open_connection(
                "127.0.0.1", self.port))

    async def close(self) -> None:
        for _reader, writer in self._conns:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._conns = []

    async def burst(self, start: int, n: int) -> list:
        """Send frames ``start .. start+n-1`` (modulo the frame count);
        returns ``(index, status, body, latency_s)`` per request, where
        latency runs from the write to the last response byte."""
        out: list = []
        cursor = [start]
        end = start + n
        frames = self.frames

        async def worker(reader, writer):
            while cursor[0] < end:
                index = cursor[0] % len(frames)
                cursor[0] += 1
                t0 = _now()
                writer.write(frames[index])
                status, body = await read_response(reader)
                out.append((index, status, body, _now() - t0))

        await asyncio.gather(*(worker(r, w) for r, w in self._conns))
        return out


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro.service serve --port 0 --no-cache``, with the
    address read from its unbuffered banner."""

    def __init__(self, env: dict, log):
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.service", "serve",
             "--port", "0", "--no-cache"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=log,
            env=env)
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        fd = self.proc.stdout.fileno()
        deadline = _now() + SPAWN_TIMEOUT_S
        buf = b""
        while b"\n" not in buf:
            remaining = deadline - _now()
            if remaining <= 0:
                raise RuntimeError("server printed no address in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"server exited before serving "
                                       f"(code {self.proc.wait()})")
                buf += chunk
        match = re.search(rb"serving on \S+:(\d+)", buf)
        if match is None:
            raise RuntimeError(f"unexpected server banner {buf!r}")
        return int(match.group(1))

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


async def cold_start(env: dict, log, first_frame: bytes,
                     checker: Checker) -> Tuple[float, float]:
    """Raw and calibrated seconds from spawning a server until it
    answers its first ``forward`` request."""
    before = spawn_slowness(env)
    t0 = _now()
    server = ServerProcess(env, log)
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        try:
            writer.write(first_frame)
            status, body = await read_response(reader)
            elapsed = _now() - t0
        finally:
            writer.close()
    finally:
        server.stop()
    after = spawn_slowness(env)
    checker.check(0, status, body)
    return elapsed, rescale(elapsed, [before, after])


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def _warm(runner: asyncio.Runner, gen: LoadGen, checker: Checker) -> None:
    """Open the connections and send the untimed warm-up requests."""
    runner.run(gen.open())
    warm = runner.run(gen.burst(0, max(WARMUP_REQUESTS, BURST)))
    for index, status, body, _lat in warm:
        checker.check(index, status, body)


def _bursts(runner: asyncio.Runner, gen: LoadGen, seconds: float,
            cal: List[float], **window) -> Tuple[List[Timed], list]:
    """Bursts of ``BURST`` requests until ``seconds`` pass (see
    ``calib.timed_window``); a burst's value is its ``(index, status,
    body, latency_s)`` per request."""
    return timed_window(
        seconds, lambda k: runner.run(gen.burst(k * BURST, BURST)), cal,
        **window)


def _check_all(bursts: List[Timed], checker: Checker) -> None:
    for b in bursts:
        for index, status, body, _lat in b.value:
            checker.check(index, status, body)


def summarize(bursts: List[Timed]) -> dict:
    """End-to-end numbers of a list of bursts, calibrated and raw.
    Throughput is the median over bursts of each burst's rate, so a slow
    phase the calibration misses spoils its own bursts, not the run."""
    rates = [len(b.value) / (b.raw_s * b.factor) for b in bursts]
    raw_rates = [len(b.value) / b.raw_s for b in bursts]
    lat = [lat * b.factor for b in bursts for *_x, lat in b.value]
    lat_raw = [lat for b in bursts for *_x, lat in b.value]
    p50, count = percentile(lat, 0.50)
    p90, _ = percentile(lat, 0.90)
    p99, _ = percentile(lat, 0.99)
    throughput, raw_throughput = median(rates), median(raw_rates)
    return {
        "requests": count, "bursts": len(bursts),
        "throughput": throughput, "raw.throughput": raw_throughput,
        "latency_p50_ms": p50 * 1e3,
        "raw.latency_p50_ms": percentile(lat_raw, 0.50)[0] * 1e3,
        "latency_samples": count,
        "latency_p90_ms": p90 * 1e3, "latency_p99_ms": p99 * 1e3,
        "wall_s": N_MODELS / throughput,
        "raw.wall_s": N_MODELS / raw_throughput,
    }


def untraced_phase(frames: List[bytes], checker: Checker, seconds: float,
                   env: dict, log, n_cold: int = COLD_STARTS) -> dict:
    """Serve through ``python -m repro.service serve``; returns the
    end-to-end numbers."""
    server = ServerProcess(env, log)
    cal: List[float] = []
    try:
        with asyncio.Runner() as runner:
            gen = LoadGen(server.port, frames)
            try:
                _warm(runner, gen, checker)
                bursts, colds = _bursts(
                    runner, gen, seconds, cal, n_cold=n_cold,
                    cold=lambda: runner.run(
                        cold_start(env, log, frames[0], checker)))
            finally:
                runner.run(gen.close())
        peak = server.peak_rss_mib()
    finally:
        server.stop()
    _check_all(bursts, checker)
    out = summarize(bursts)
    out.update(_setup(colds))
    out["peak_rss_mib"] = peak
    out["calib"] = cal
    return out


def _setup(colds: List[Tuple[float, float]]) -> dict:
    if not colds:
        return {}
    return {"setup_s": median([c for _r, c in colds]),
            "raw.setup_s": median([r for r, _c in colds]),
            "setup_samples": len(colds)}


# ----------------------------------------------------------------------
# The traced phase
# ----------------------------------------------------------------------
class _JsonShim:
    """Stands in for the ``json`` module inside ``repro.service.server``
    so the request body parse and the response dump are timed and
    charged to the request the current task serves."""

    def loads(self, s, *args, **kwargs):
        t0 = _now()
        out = json.loads(s, *args, **kwargs)
        CURRENT_REQUEST.set({"decode": _now() - t0, "validate": 0.0,
                             "encode": 0.0, "run_batch": 0.0})
        return out

    def dumps(self, obj, *args, **kwargs):
        t0 = _now()
        out = json.dumps(obj, *args, **kwargs)
        rec = CURRENT_REQUEST.get()
        if rec is not None:
            rec["encode"] += _now() - t0
        return out

    def __getattr__(self, name):
        return getattr(json, name)


def _install_service(tracer: Tracer, records: dict) -> None:
    from repro.service import server as server_mod
    from repro.service.api import WorkloadRequest, WorkloadResult
    from repro.service.workloads import ForwardHandler

    def stage(key):
        def on_done(_args, _result, dur):
            rec = CURRENT_REQUEST.get()
            if rec is not None:
                rec[key] += dur
        return on_done

    def decoded(_args, request, dur):
        rec = CURRENT_REQUEST.get()
        if rec is not None:
            rec["decode"] += dur
            records[request.request_id] = rec

    def ran(args, _result, dur):
        for request in args[1]:
            rec = records.get(request.request_id)
            if rec is not None:
                rec["run_batch"] = dur

    tracer._patch(server_mod, "json", _JsonShim())
    tracer.wrap_method(WorkloadRequest, "from_json", "service.wire_decode",
                       decoded)
    tracer.wrap_method(ForwardHandler, "validate", "service.validate",
                       stage("validate"))
    tracer.wrap_method(ForwardHandler, "run_batch", "service.run_batch", ran)
    tracer.wrap_method(WorkloadResult, "to_json", "service.wire_encode",
                       stage("encode"))
    tracer.install_common()


def traced_phase(frames: List[bytes], checker: Checker,
                 seconds: float) -> dict:
    """Host ``EvalServer`` in this process: half the window untraced, as
    the baseline of the tracing overhead, then half with the layer
    wrappers installed.  Returns the traced end-to-end numbers, the
    baseline's (``baseline``) and the per-layer numbers."""
    from repro.service.server import EvalServer
    tracer = Tracer()
    records: dict = {}
    rows: list = []          # per request: calibrated stage seconds
    layers: dict = {"totals": {}, "counts": {}}
    cal: List[float] = []
    state = {"snap": None}

    def on_burst(b: Timed) -> None:
        snap = tracer.snapshot()
        Tracer.accumulate(layers, Tracer.delta(snap, state["snap"], b.factor))
        state["snap"] = snap
        for index, status, body, lat in b.value:
            payload = checker.check(index, status, body)
            if payload is None:
                continue
            rec = records.pop(payload["request_id"], None)
            if rec is None:
                continue
            stats = payload["stats"]
            row = {k: v * b.factor for k, v in rec.items()}
            row["wait"] = stats["wait_ms"] / 1e3 * b.factor
            row["latency"] = lat * b.factor
            row["batch_size"] = stats["batch_size"]
            rows.append(row)

    with asyncio.Runner() as runner:
        server = EvalServer(port=0, cache="off")
        runner.run(server.start())
        try:
            gen = LoadGen(server.port, frames)
            try:
                _warm(runner, gen, checker)
                baseline, _ = _bursts(runner, gen, seconds / 2, cal)
                _install_service(tracer, records)
                try:
                    state["snap"] = tracer.snapshot()
                    bursts, _ = _bursts(runner, gen, seconds / 2, cal,
                                        on_step=on_burst)
                finally:
                    tracer.restore()
                stats = server.stats()
            finally:
                runner.run(gen.close())
        finally:
            runner.run(server.stop())
    _check_all(baseline, checker)
    out = summarize(bursts)
    out["baseline"] = summarize(baseline)
    out["calib"] = cal
    out["layers"] = _service_layers(rows, layers["totals"],
                                    layers["counts"], stats)
    return out


#: Tracer frames that run on the event loop, outside ``run_batch``.
_LOOP_STAGES = ("service.wire_decode", "service.validate",
                "service.wire_encode")


def _mean(rows: list, key: str) -> float:
    return sum(r[key] for r in rows) / len(rows)


def _service_layers(rows: list, totals: dict, counts: dict,
                    stats: dict) -> dict:
    if not rows:
        raise RuntimeError("the traced phase matched no responses")
    n = len(rows)
    stages = ("decode", "validate", "wait", "run_batch", "encode")
    for r in rows:
        r["other"] = r["latency"] - sum(r[k] for k in stages)
    batches = totals.get("service.run_batch", [0, 0.0, 0.0])[0] or 1

    def per_batch_ms(name):
        return totals.get(name, [0, 0.0, 0.0])[1] / batches * 1e3

    m = {
        "service.wire_decode_ms": _mean(rows, "decode") * 1e3,
        "service.validate_ms": _mean(rows, "validate") * 1e3,
        "service.queue_wait_ms": _mean(rows, "wait") * 1e3,
        "service.batch_size": _mean(rows, "batch_size"),
        "service.run_batch_ms": per_batch_ms("service.run_batch"),
        "service.wire_encode_ms": _mean(rows, "encode") * 1e3,
        "service.other_ms": _mean(rows, "other") * 1e3,
        "apps.forward_models_batch_ms":
            per_batch_ms("apps.forward_models_batch"),
        "nd.asarray_ms": per_batch_ms("nd.asarray"),
        "nd.op_calls": counts.get("nd.op_calls", 0) / n,
        "engine.posit.decode_ms": per_batch_ms("engine.posit.decode"),
        "engine.posit.core_ms": per_batch_ms("engine.posit.core"),
        "engine.posit.encode_ms": per_batch_ms("engine.posit.encode"),
        "engine.posit.encode_calls":
            totals.get("engine.posit.encode", [0])[0] / n,
        "engine.batch.sum_ms": per_batch_ms("engine.batch.sum"),
        "bigfloat.to_float_calls":
            counts.get("bigfloat.to_float_calls", 0) / n,
    }
    lines = [f"  per-request stages (mean of {n} traced requests, "
             f"calibrated ms):"]
    for k in stages + ("other",):
        lines.append(f"    {k:<10} {_mean(rows, k) * 1e3:9.3f}")
    p50, _ = percentile([r["latency"] for r in rows], 0.50)
    lines.append(f"    {'= latency':<10} {_mean(rows, 'latency') * 1e3:9.3f}"
                 f"  mean (p50 {p50 * 1e3:.3f}); other = framing, event "
                 f"loop, executor hand-off")
    lines.append(f"  run_batch self times (per batch, {batches} batches, "
                 f"calibrated): calls total self")
    inside = {k: v for k, v in totals.items() if k not in _LOOP_STAGES}
    lines += self_time_table(inside, batches, "ms", 1e3)
    spans = stats.get("telemetry", {}).get("spans", {})
    batch_span = spans.get("service.batch.forward")
    if batch_span:
        lines.append(f"  /v1/stats span service.batch.forward: "
                     f"{batch_span['count']} batches, mean "
                     f"{batch_span['total_s'] / batch_span['count'] * 1e3:.3f}"
                     f" ms raw (includes warm-up and the untraced half)")
    return {"metrics": m, "lines": lines}


def run(seed: int, seconds: float, trace: bool, env: dict, log,
        pinned: Optional[List[list]]) -> dict:
    """One run of svc-forward-posit.  Traced, a third of the window
    serves through ``python -m repro.service serve`` (the ``raw.*``
    numbers and two cold starts) and two thirds go to
    :func:`traced_phase`."""
    bodies = request_bodies(seed)
    frames = [frame(b) for b in bodies]
    expected = pinned if pinned is not None else live_expected(bodies)
    checker = Checker(expected)
    if not trace:
        out = untraced_phase(frames, checker, seconds, env, log)
    else:
        out = untraced_phase(frames, checker, seconds / 3, env, log,
                             n_cold=2)
        out["traced"] = traced_phase(frames, checker, seconds * 2 / 3)
    out["attempted"] = checker.attempted
    out["failed"] = checker.failed
    out["first_failure"] = checker.first_failure
    return out
