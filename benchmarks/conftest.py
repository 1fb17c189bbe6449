"""Shared benchmark fixtures.

Every benchmark prints its reproduced table/figure through ``report``
so the rows appear in the pytest output despite output capture.

A module that fills a module-level ``_RESULTS`` dict (plus an optional
``_PARAMS`` dict) gets it written to ``bench-out/BENCH_<name>.json``
once its tests finish: ``test_batch_throughput`` records benchmark
``batch_throughput`` in ``BENCH_batch.json``.  ``bench-out/`` is
gitignored, so no run rewrites a tracked file; the committed repo-root
``BENCH_*.json`` records change only by a deliberate copy from there.
"""

import json
import os
import time

import pytest

#: Where every benchmark record lands.
BENCH_OUT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench-out")


@pytest.fixture
def report(capsys):
    """Print a rendered experiment report, bypassing pytest capture."""

    def _report(title: str, text: str):
        with capsys.disabled():
            print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")
            print(text)

    return _report


@pytest.fixture(scope="module", autouse=True)
def _bench_record(request):
    """Write the module's ``_RESULTS`` record after its last test."""
    yield
    module = request.module
    results = getattr(module, "_RESULTS", None)
    if not results:
        return
    benchmark = module.__name__.rpartition(".")[2][len("test_"):]
    payload = {"benchmark": benchmark,
               "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if hasattr(module, "_PARAMS"):
        payload["params"] = module._PARAMS
    payload["results"] = results
    os.makedirs(BENCH_OUT, exist_ok=True)
    path = os.path.join(BENCH_OUT, f"BENCH_{benchmark.split('_')[0]}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
