"""Steadiness report: run each workload repeatedly and print, for every
end-to-end metric, its median, quartiles, range and spread, with the
raw (uncalibrated) values and the calibration's own spread beside the
calibrated ones.

Usage, from the repository root::

    python3 perfbench/steadiness.py --runs 10 [--seconds 30] \\
        [--workload svc-forward-posit ...] [--seed-base 100]

Runs are interleaved (every workload once per round, each run its own
seed), so a slow phase of the machine spreads over all workloads rather
than spoiling one.  A metric is flagged when its spread (inter-quartile
distance over median) reaches a third of its bound in
``BENCHMARK.json``, and again when it reaches the bound itself.  The
command exits 1 when any metric, ``setup_s`` included, is flagged or any
operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import quartiles  # noqa: E402
from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    detail = next(json.loads(line[len("DETAIL "):]) for line in lines
                  if line.startswith("DETAIL "))
    return {"result": json.loads(lines[-1]), "detail": detail}


def _row(name: str, values: list, bound=None) -> str:
    q1, q2, q3 = quartiles(values)
    iqr = (q3 - q1) / q2 if q2 else float("inf")
    rng = (max(values) - min(values)) / q2 if q2 else float("inf")
    flag = ""
    if bound is not None:
        flag = ("  OVER BOUND" if iqr >= bound else
                "  over bound/3" if iqr >= bound / 3 else "  ok")
    bound_txt = f"{bound:5.2f}" if bound is not None else "    -"
    return (f"    {name:<20} {q2:12.4f} {q1:12.4f} {q3:12.4f} "
            f"{iqr * 100:6.1f}% {rng * 100:6.1f}% {bound_txt}{flag}")


def report(runs: dict, spec: dict) -> bool:
    """Print the report; True when every spread is under a third of its
    bound and no run failed an operation."""
    steady = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, results in runs.items():
        if not results:
            continue
        failed = sum(r["result"]["failed"] for r in results)
        attempted = sum(r["result"]["attempted"] for r in results)
        print(f"\n{workload}: {len(results)} runs, error_rate "
              f"{failed / attempted:.4f} ({failed} of {attempted})")
        print(f"    {'metric':<20} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'IQR/med':>7} {'range':>7} {'bound':>5}")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"]
                      for r in results]
            line = _row(name, values, bound)
            print(line)
            if not line.endswith("ok"):
                steady = False
            raw = [r["detail"].get("raw." + name) for r in results]
            if all(v is not None for v in raw):
                print(_row("  raw", raw))
        print(_row("calib_slowness",
                   [r["detail"]["calib_slowness"] for r in results]))
        print("    calibration spread within runs (IQR/median): " +
              " ".join(f"{r['detail']['calib_spread'] * 100:.0f}%"
                       for r in results))
        steady = steady and failed == 0
    return steady


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="window per run (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed-base", type=int, default=100)
    args = p.parse_args(argv)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            seed = args.seed_base + i
            r = run_once(workload, seed, seconds)
            runs[workload].append(r)
            m = r["result"]["metrics"]
            print(f"[{i + 1}/{args.runs}] {workload} seed {seed}: " +
                  ", ".join(f"{k} {v['value']:.4g}" for k, v in m.items()),
                  flush=True)
    return 0 if report(runs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
