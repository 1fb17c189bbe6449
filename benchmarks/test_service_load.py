"""Cross-request coalescing throughput on the evaluation server.

The serving tier's contract is that same-shape forward requests arriving
from concurrent clients are coalesced into one batched kernel call, and
that the coalescing configuration beats the no-coalescing one
(``max_batch=1``) by a wide margin: the synthetic closed-loop load
harness (:mod:`repro.service.loadgen`) must measure a >= 3x throughput
speedup end to end — real HTTP framing, JSON codec, scheduler, executor
hop and all.

The measurement lands in ``bench-out/BENCH_service.json``
(``service_load.forward_coalescing.speedup``), and
``benchmarks/check_bench_regression.py`` enforces the same floor on the
committed repo-root record (override with
``$REPRO_SERVICE_SPEEDUP_FLOOR``; CI's shared runners lower it, the
committed JSON is checked at the full floor by
``tests/test_bench_gate.py``).  ``$REPRO_SERVICE_LOAD_SCALE``
scales the client/request counts (CI smoke uses 0.5).
"""

import os

from repro.service.loadgen import compare_coalescing

#: Filled by the test; benchmarks/conftest.py writes both to
#: bench-out/BENCH_service.json once this module finishes.
_RESULTS = {}
_PARAMS = {}

#: Acceptance floor: the coalescing server must beat the no-coalescing
#: configuration by at least this factor on same-shape forward traffic.
SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_SERVICE_SPEEDUP_FLOOR", "3.0"))

#: Load-harness scale knob (client count and requests per client scale
#: linearly; 1.0 is the recorded configuration).
LOAD_SCALE = float(os.environ.get("REPRO_SERVICE_LOAD_SCALE", "1.0"))


def test_forward_coalescing_speedup(report):
    payload = compare_coalescing(scale=LOAD_SCALE)
    _PARAMS.update(payload["params"])
    entry = payload["results"]["forward_coalescing"]
    _RESULTS["forward_coalescing"] = entry

    solo, coalesced = entry["solo"], entry["coalesced"]
    report("Service coalescing throughput",
           f"forward over HTTP, {payload['params']['clients']} clients x "
           f"{payload['params']['requests_per_client']} requests "
           f"(scale {LOAD_SCALE:g}):\n"
           f"  solo (max_batch=1): {solo['throughput_rps']:.1f} req/s, "
           f"p99 {solo['p99_ms']:.1f} ms\n"
           f"  coalesced:          {coalesced['throughput_rps']:.1f} req/s, "
           f"p99 {coalesced['p99_ms']:.1f} ms "
           f"(factor {coalesced['coalescing_factor']:.1f})\n"
           f"  speedup: {entry['speedup']:.2f}x "
           f"(floor {SPEEDUP_FLOOR:g}x)")

    assert solo["errors"] == 0 and coalesced["errors"] == 0
    # The coalesced run must actually have batched across requests —
    # a factor of ~1 would make the speedup gate measure nothing.
    assert coalesced["coalescing_factor"] > 1.5
    assert entry["speedup"] >= SPEEDUP_FLOOR
