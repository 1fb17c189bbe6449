"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload svc-forward-posit \\
        --seed 0 --trace 0

Workloads: ``svc-forward-posit`` (HTTP traffic against ``python -m
repro.service serve``) and ``exp-figures`` (the figure-reproduction path
in one process).  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` reports the
per-layer metrics of a traced phase, with its end-to-end numbers beside
those of an untraced phase on the same host: the tracing overhead.  The
metric names and units are those of ``BENCHMARK.json``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A ``DETAIL`` line before it carries the
raw and calibration figures for ``perfbench/steadiness.py``.

Every timing is reported rescaled to a reference CPU speed (see
``calib.py``); the raw wall-clock value is printed beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

WORKLOADS = ("svc-forward-posit", "exp-figures")
#: The seed whose outputs ``pins.json`` pins.
DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
#: Where a run works: inside the checkout, removed when the run ends.
WORK_DIR = ".perfbench-work"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="length of the timed window (default: run_seconds "
                        "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _load_pins() -> dict:
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


def end_to_end(out: dict) -> dict:
    return {k: out[k] for k in ("throughput", "latency_p50_ms", "wall_s",
                                "setup_s", "peak_rss_mib")}


def per_layer(workload: str, out: dict, names) -> dict:
    """Every per-layer metric; layers a workload does not reach read 0."""
    from calib import median
    traced = out["traced"]
    values = dict.fromkeys(names, 0.0)
    values.update(traced["layers"]["metrics"])
    values["calib_slowness"] = median(out["calib"] + traced["calib"])
    for k in ("throughput", "latency_p50_ms", "wall_s", "setup_s"):
        values[f"raw.{k}"] = out[f"raw.{k}"]
    primary = "wall_s" if workload == "exp-figures" else "latency_p50_ms"
    values["trace_overhead_pct"] = \
        (traced[primary] / traced["baseline"][primary] - 1.0) * 100.0
    values["error_rate"] = out["failed"] / out["attempted"]
    if workload != "exp-figures":
        values["service.latency_p90_ms"] = out["latency_p90_ms"]
        values["service.latency_p99_ms"] = out["latency_p99_ms"]
        values["service.latency_samples"] = out["latency_samples"]
    unknown = set(values) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(unknown)}")
    return values


def _report(workload: str, out: dict, trace: bool) -> None:
    from calib import median, spread
    cal = out["calib"]
    print(f"{workload}: reference slowness median {median(cal):.4f} "
          f"(1 = reference speed), spread (IQR/median) "
          f"{spread(cal) * 100:.1f}% over {len(cal)} slices")
    unit = {"throughput": "1/s", "latency_p50_ms": "ms", "wall_s": "s",
            "setup_s": "s"}
    for k, u in unit.items():
        print(f"  {k:<16} {out[k]:12.4f} {u:<4} calibrated   "
              f"raw {out['raw.' + k]:12.4f}")
    print(f"  {'peak_rss_mib':<16} {out['peak_rss_mib']:12.4f} MiB")
    print(f"  samples: {out['latency_samples']} latencies, "
          f"{out.get('setup_samples', 0)} cold starts"
          + (f", {out['requests']} timed requests in {out['bursts']} bursts"
             if "requests" in out else f", {out['passes']} timed passes"))
    if "latency_p90_ms" in out:
        print(f"  tail (diagnostic): p90 {out['latency_p90_ms']:.3f} ms, "
              f"p99 {out['latency_p99_ms']:.3f} ms of "
              f"{out['latency_samples']} samples")
    if "per_experiment_s" in out:
        print("  per experiment (median calibrated s): " + ", ".join(
            f"{e} {v:.4f}" for e, v in out["per_experiment_s"].items()))
    print(f"  error_rate {out['failed'] / out['attempted']:.4f} "
          f"({out['failed']} failed of {out['attempted']} attempted)")
    if out["first_failure"]:
        print(f"  first failure: {out['first_failure']}")
    if trace:
        traced = out["traced"]
        baseline = traced["baseline"]
        print("  tracing overhead (the same host, traced vs untraced, "
              "calibrated):")
        for k in ("throughput", "latency_p50_ms", "wall_s"):
            print(f"    {k:<16} untraced {baseline[k]:12.4f}  traced "
                  f"{traced[k]:12.4f}  "
                  f"({(traced[k] / baseline[k] - 1) * 100:+.1f}%)")
        if workload != "exp-figures":
            print("  hosting (EvalServer in the benchmark process vs "
                  "python -m repro.service serve, both untraced):")
            for k in ("throughput", "latency_p50_ms"):
                print(f"    {k:<16} serve    {out[k]:12.4f}  hosted "
                      f"{baseline[k]:12.4f}  "
                      f"({(baseline[k] / out[k] - 1) * 100:+.1f}%)")
        for line in traced["layers"]["lines"]:
            print(line)


def _detail(out: dict) -> dict:
    from calib import median, spread
    keep = {k: v for k, v in out.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}
    keep["calib_slowness"] = median(out["calib"])
    keep["calib_spread"] = spread(out["calib"])
    return keep


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")) or \
            not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        print("perfbench: run from the repository root (needs ./src/repro "
              "and ./BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    import calib
    calib.pin_to_one_cpu()
    work = os.path.join(root, WORK_DIR, str(os.getpid()))
    os.makedirs(work)
    os.chdir(work)
    try:
        pins = _load_pins()
        if args.workload == "exp-figures":
            import figures
            out = figures.run(
                args.seed, seconds, bool(args.trace), env,
                pins["exp"] if args.seed == pins["seed"] else None,
                os.path.join(root, "tests", "goldens"))
        else:
            import svc
            with open(os.path.join(work, "server.log"), "wb") as log:
                out = svc.run(args.seed, seconds, bool(args.trace), env,
                              log, pins["svc"]
                              if args.seed == pins["seed"] else None)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass
    _report(args.workload, out, bool(args.trace))
    print("DETAIL " + json.dumps(_detail(out)))
    if args.trace:
        values = per_layer(args.workload, out,
                           [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(out)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
