#!/usr/bin/env python
"""Benchmark-regression gate: fail when a recorded speedup drops below
its gate.

Reads every ``BENCH_*.json`` found in the given files/directories
(default: the repo root, recursively — the committed records plus any
fresh ones in ``bench-out/``) and enforces the
execution plane's standing performance guarantees:

* ``batch_throughput.forward_log_batch64`` — the batched log-space
  forward algorithm must stay >= 10x the scalar loop;
* ``apps_throughput.vicar_forward_multi*`` — the multi-model forward
  (the ViCAR/Figure 10 shape) must stay >= 5x;
* ``telemetry_overhead.forward_disabled_overhead`` — disabled
  telemetry hooks must cost < 3% of the batched forward run (a
  *ceiling* gate on ``overhead_frac`` rather than a speedup floor).

CI points this script at the current run's bench artifacts *and* the
previous successful run's (downloaded by the ``bench-gate`` job), so a
regression in either fails the build.  Shared runners make wall-clock
flaky, so the job lowers the floors through the same
``REPRO_FORWARD_SPEEDUP_FLOOR`` / ``REPRO_APPS_SPEEDUP_FLOOR``
environment variables the smoke suite uses; the committed repo-root
JSONs (recorded on dedicated hardware) are checked at the full floors
by ``tests/test_bench_gate.py``.

Usage::

    python benchmarks/check_bench_regression.py [path ...]

Paths may be ``BENCH_*.json`` files or directories to scan; missing
paths are skipped with a note (the first CI run has no previous
artifact), but a below-gate speedup in any file that *does* exist exits
nonzero.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from typing import Dict, Iterable, List, Optional, Tuple

#: (benchmark name, result-key prefix) -> (env var, default floor).
GATES: Dict[Tuple[str, str], Tuple[str, float]] = {
    ("batch_throughput", "forward_log_batch"):
        ("REPRO_FORWARD_SPEEDUP_FLOOR", 10.0),
    ("apps_throughput", "vicar_forward_multi"):
        ("REPRO_APPS_SPEEDUP_FLOOR", 5.0),
    # The posit-gap gates: decoded-plane kernels must keep the batch
    # posit path fast (add/mul microbench and the fused forward).
    ("batch_throughput", "posit64_12_add"):
        ("REPRO_POSIT_SPEEDUP_FLOOR", 15.0),
    ("batch_throughput", "posit64_12_mul"):
        ("REPRO_POSIT_SPEEDUP_FLOOR", 15.0),
    ("batch_throughput", "forward_posit64_12_batch"):
        ("REPRO_POSIT_FORWARD_SPEEDUP_FLOOR", 7.0),
    ("apps_throughput", "quire_accumulate"):
        ("REPRO_QUIRE_SPEEDUP_FLOOR", 10.0),
    # Native batch sub/div coverage: every recorded entry must beat the
    # scalar loop by a healthy margin (they measure far above this).
    ("batch_throughput", "binary64_sub"):
        ("REPRO_BATCH_OP_SPEEDUP_FLOOR", 3.0),
    ("batch_throughput", "binary64_div"):
        ("REPRO_BATCH_OP_SPEEDUP_FLOOR", 3.0),
    ("batch_throughput", "logspace_sub"):
        ("REPRO_BATCH_OP_SPEEDUP_FLOOR", 3.0),
    ("batch_throughput", "logspace_div"):
        ("REPRO_BATCH_OP_SPEEDUP_FLOOR", 3.0),
    ("batch_throughput", "posit64_9_sub"):
        ("REPRO_BATCH_OP_SPEEDUP_FLOOR", 3.0),
    ("batch_throughput", "posit64_9_div"):
        ("REPRO_BATCH_OP_SPEEDUP_FLOOR", 3.0),
    ("batch_throughput", "posit64_12_sub"):
        ("REPRO_BATCH_OP_SPEEDUP_FLOOR", 3.0),
    ("batch_throughput", "posit64_12_div"):
        ("REPRO_BATCH_OP_SPEEDUP_FLOOR", 3.0),
    ("batch_throughput", "lns6_8_sub"):
        ("REPRO_BATCH_OP_SPEEDUP_FLOOR", 3.0),
    ("batch_throughput", "lns12_50_div"):
        ("REPRO_BATCH_OP_SPEEDUP_FLOOR", 3.0),
    # The serving tier: cross-request microbatching must keep the
    # coalescing server >= 3x the no-coalescing configuration on
    # same-shape forward traffic (measured end to end over HTTP by
    # benchmarks/test_service_load.py).
    ("service_load", "forward_coalescing"):
        ("REPRO_SERVICE_SPEEDUP_FLOOR", 3.0),
    # The workload subsystem (PR 9): batched Viterbi decoding and
    # pair-HMM alignment must stay >= 5x their serial plans.
    ("workloads_throughput", "viterbi"):
        ("REPRO_WORKLOADS_SPEEDUP_FLOOR", 5.0),
    ("workloads_throughput", "pairhmm"):
        ("REPRO_WORKLOADS_SPEEDUP_FLOOR", 5.0),
}

#: (benchmark name, result-key prefix) -> (env var, default ceiling).
#: Ceiling gates bound a recorded *cost fraction* (the entry's
#: ``overhead_frac``) from above instead of a speedup from below.
CEILINGS: Dict[Tuple[str, str], Tuple[str, float]] = {
    # The telemetry layer's zero-cost-when-disabled guarantee.
    ("telemetry_overhead", "forward_disabled_overhead"):
        ("REPRO_TELEMETRY_OVERHEAD_CEILING", 0.03),
    # The fault plane's matching guarantee (PR 10): with no plan
    # injected, every ``faults.fire`` site is one integer compare.
    ("faults_overhead", "forward_disabled_overhead"):
        ("REPRO_FAULTS_OVERHEAD_CEILING", 0.03),
}

#: Result keys (by prefix) the *committed* repo-root artifacts must
#: contain — prefix matching tolerates parameterized suffixes.  CI's
#: freshly measured / previous-run artifacts are exempt (older runs
#: predate newer entries); ``tests/test_bench_gate.py`` enforces this
#: on the committed JSONs.
REQUIRED_RESULTS: Dict[str, Tuple[str, ...]] = {
    "batch_throughput": (
        "forward_log_batch", "forward_posit64_12_batch",
        "posit64_12_add", "posit64_12_mul",
        "binary64_sub", "binary64_div", "logspace_sub", "logspace_div",
        "posit64_9_sub", "posit64_9_div", "posit64_12_sub",
        "posit64_12_div", "lns6_8_sub", "lns12_50_div",
    ),
    "apps_throughput": ("vicar_forward_multi", "quire_accumulate"),
    "telemetry_overhead": ("forward_disabled_overhead",),
    "faults_overhead": ("forward_disabled_overhead",),
    "service_load": ("forward_coalescing",),
    "workloads_throughput": ("viterbi", "pairhmm", "kalman"),
}


def missing_required(payload: dict) -> List[str]:
    """Required result prefixes absent from a committed payload."""
    bench = payload.get("benchmark", "")
    results = payload.get("results", {})
    return [prefix for prefix in REQUIRED_RESULTS.get(bench, ())
            if not any(key.startswith(prefix) for key in results)]


def gate_floors(env: Dict[str, str]) -> Dict[Tuple[str, str], float]:
    """The effective floor per gate, honoring the env overrides."""
    return {key: float(env.get(var, default))
            for key, (var, default) in GATES.items()}


def gate_ceilings(env: Dict[str, str]) -> Dict[Tuple[str, str], float]:
    """The effective ceiling per cost gate, honoring env overrides."""
    return {key: float(env.get(var, default))
            for key, (var, default) in CEILINGS.items()}


def check_payload(payload: dict,
                  floors: Dict[Tuple[str, str], float],
                  ceilings: Optional[Dict[Tuple[str, str], float]] = None,
                  ) -> List[str]:
    """Violation messages for one parsed ``BENCH_*.json`` payload."""
    bench = payload.get("benchmark", "")
    results = payload.get("results", {})
    violations = []
    for (gated_bench, prefix), floor in floors.items():
        if bench != gated_bench:
            continue
        for key, record in results.items():
            if not key.startswith(prefix):
                continue
            speedup = record.get("speedup")
            if speedup is None or speedup < floor:
                violations.append(
                    f"{bench}.{key}: speedup {speedup} below the "
                    f">={floor}x gate")
    for (gated_bench, prefix), ceiling in (ceilings or {}).items():
        if bench != gated_bench:
            continue
        for key, record in results.items():
            if not key.startswith(prefix):
                continue
            frac = record.get("overhead_frac")
            if frac is None or frac >= ceiling:
                violations.append(
                    f"{bench}.{key}: overhead_frac {frac} at or above "
                    f"the <{ceiling} ceiling")
    return violations


def collect_files(paths: Iterable[str]) -> List[str]:
    """Every BENCH_*.json under the given files/directories."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "**",
                                                       "BENCH_*.json"),
                                          recursive=True)))
        elif os.path.isfile(path):
            files.append(path)
        else:
            print(f"note: {path} does not exist; skipping "
                  f"(first run has no previous artifacts)")
    return files


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        args = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
    files = collect_files(args)
    if not files:
        print("no BENCH_*.json artifacts found; nothing to gate")
        return 0
    floors = gate_floors(os.environ)
    ceilings = gate_ceilings(os.environ)
    failures = []
    for path in files:
        try:
            with open(path) as f:
                payload = json.load(f)
        except (OSError, ValueError) as exc:
            failures.append(f"{path}: unreadable ({exc})")
            continue
        for violation in check_payload(payload, floors, ceilings):
            failures.append(f"{path}: {violation}")
        print(f"checked {path} ({payload.get('benchmark', '?')})")
    if failures:
        print("\nbenchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nall gates met across {len(files)} artifact(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
