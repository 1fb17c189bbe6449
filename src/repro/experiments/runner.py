"""Experiment registry and CLI entry point.

Usage::

    python -m repro.experiments                   # list experiments
    python -m repro.experiments --formats         # format registry table
    python -m repro.experiments fig3              # run one (bench scale)
    python -m repro.experiments --all --scale test
    python -m repro.experiments fig3 --workers 4
    python -m repro.experiments fig10 --serial    # the scalar plane
    python -m repro.experiments fig6 --measure    # software MMAPS columns
    python -m repro.experiments --all --refresh   # ignore cached results

(``python -m repro.experiments.runner`` still works.)

The CLI flags assemble one :class:`~repro.engine.plan.ExecPlan` that is
threaded through every plan-aware experiment: the vectorized engine is
the default execution plane, ``--serial`` forces the scalar plane
(results are identical — that is the certification), and
``--workers`` fans supported sweeps across processes.  Rendered reports
are cached under ``.repro-cache/`` keyed on code + params
(:mod:`repro.experiments.cache`), so re-running a figure with unchanged
inputs performs no recomputation; ``--no-cache`` bypasses the cache
entirely and ``--refresh`` recomputes and overwrites.

Dispatch itself goes through the typed entry-layer contract of
:mod:`repro.service`: each target becomes a
``WorkloadRequest(kind="experiment", ...)`` executed by the same
single-request dispatcher the evaluation server uses, so the CLI and
the service cannot drift apart.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import Callable, Dict, NamedTuple, Optional

from .. import telemetry
from ..engine.plan import DEFAULT_PLAN, ExecPlan, resolve_plan
from . import cache as result_cache

from . import (
    bitbudget_curves,
    fig1_alpha_exponent,
    fig3_op_accuracy,
    fig6_forward_perf,
    fig7_column_perf,
    fig8_mmaps_per_clb,
    fig9_pvalue_accuracy,
    fig10_vicar_cdf,
    fig11_lofreq_cdf,
    fig_kalman_accuracy,
    fig_pairhmm_accuracy,
    fig_viterbi_accuracy,
    scorecard,
    table1_range,
    table2_units,
    table3_forward_resources,
    table4_column_resources,
)
from .io import save_report


class Experiment(NamedTuple):
    experiment_id: str
    description: str
    run: Callable
    render: Callable
    scalable: bool  # whether run() takes a scale argument
    #: True when plan.measure adds wall-clock measurements to the
    #: result (fig6's software MMAPS columns): such runs are never
    #: cached, since replaying a stale timing would masquerade as a
    #: fresh one.
    measures_wallclock: bool = False


REGISTRY: Dict[str, Experiment] = {
    "fig1": Experiment("fig1", "alpha exponent vs iteration",
                       fig1_alpha_exponent.run, fig1_alpha_exponent.render, True),
    "table1": Experiment("table1", "dynamic range and precision",
                         table1_range.run, table1_range.render, False),
    "fig3": Experiment("fig3", "individual op accuracy by magnitude",
                       fig3_op_accuracy.run, fig3_op_accuracy.render, True),
    "table2": Experiment("table2", "arithmetic unit resources",
                         table2_units.run, table2_units.render, False),
    "fig6": Experiment("fig6", "forward unit performance",
                       fig6_forward_perf.run, fig6_forward_perf.render, False,
                       measures_wallclock=True),
    "fig7": Experiment("fig7", "column unit performance",
                       fig7_column_perf.run, fig7_column_perf.render, False),
    "fig8": Experiment("fig8", "MMAPS per CLB",
                       fig8_mmaps_per_clb.run, fig8_mmaps_per_clb.render, False),
    "table3": Experiment("table3", "forward unit resources",
                         table3_forward_resources.run,
                         table3_forward_resources.render, False),
    "table4": Experiment("table4", "column unit resources",
                         table4_column_resources.run,
                         table4_column_resources.render, False),
    "fig9": Experiment("fig9", "p-value accuracy by magnitude",
                       fig9_pvalue_accuracy.run, fig9_pvalue_accuracy.render, True),
    "fig10": Experiment("fig10", "VICAR likelihood accuracy CDFs",
                        fig10_vicar_cdf.run, fig10_vicar_cdf.render, True),
    "fig11": Experiment("fig11", "LoFreq p-value accuracy CDFs",
                        fig11_lofreq_cdf.run, fig11_lofreq_cdf.render, True),
    "viterbi": Experiment("viterbi",
                          "Viterbi decoding accuracy and path agreement",
                          fig_viterbi_accuracy.run,
                          fig_viterbi_accuracy.render, True),
    "pairhmm": Experiment("pairhmm",
                          "pair-HMM alignment likelihood accuracy",
                          fig_pairhmm_accuracy.run,
                          fig_pairhmm_accuracy.render, True),
    "kalman": Experiment("kalman",
                         "Kalman filter cancellation accuracy",
                         fig_kalman_accuracy.run,
                         fig_kalman_accuracy.render, True),
    "bitbudget": Experiment("bitbudget",
                            "bit-budget analysis (Section II.C/III)",
                            bitbudget_curves.run, bitbudget_curves.render,
                            False),
    "scorecard": Experiment("scorecard",
                            "headline-claim reproduction scorecard",
                            scorecard.run, scorecard.render, False),
}


def _cache_params(exp: Experiment, scale: str) -> dict:
    """The parameter dict a run's cache entry is keyed on.

    Only result-affecting inputs belong here: ``scale`` for scalable
    experiments.  The :class:`ExecPlan` is deliberately excluded — the
    execution plane's contract is that batching and worker count cannot
    change a result (wall-clock-*measuring* runs are never
    cached at all).
    """
    params: dict = {}
    if exp.scalable:
        params["scale"] = scale
    return params


def run_experiment(experiment_id: str, scale: str = "bench",
                   out_dir: Optional[str] = None,
                   plan: Optional[ExecPlan] = None,
                   use_cache: bool = False,
                   cache_dir: Optional[str] = None,
                   refresh: bool = False) -> str:
    """Run one experiment and return its rendered report; optionally
    persist text + JSON under ``out_dir``.

    The ``plan`` is forwarded to experiments whose ``run`` accepts one
    and ignored elsewhere.  With ``use_cache=True`` the rendered report
    is looked up in / stored to the on-disk result cache
    (:mod:`repro.experiments.cache`); a hit skips ``run`` entirely.
    The plan's cache policy refines that: ``"off"`` disables the cache,
    ``"refresh"`` (or ``refresh=True``) recomputes and overwrites the
    entry.  Two situations always recompute: ``out_dir`` (the
    structured JSON report needs the live result object, which is not
    cached) and wall-clock-measuring runs (fig6 with ``plan.measure`` —
    a replayed timing would masquerade as a fresh measurement).
    """
    plan = resolve_plan(plan, where="run_experiment")
    text, _hit = _run_experiment(experiment_id, scale, out_dir, plan,
                                 use_cache, cache_dir, refresh)
    return text


def _run_experiment(experiment_id, scale, out_dir, plan,
                    use_cache, cache_dir, refresh):
    """(rendered text, served-from-cache) for one experiment run."""
    exp = REGISTRY[experiment_id]
    if plan is None:
        plan = DEFAULT_PLAN
    kwargs = {}
    if "plan" in inspect.signature(exp.run).parameters:
        kwargs["plan"] = plan
    if plan.cache == "off":
        use_cache = False
    refresh = refresh or plan.cache == "refresh"
    if out_dir is not None or (exp.measures_wallclock and plan.measure):
        use_cache = False
    key_params = _cache_params(exp, scale)
    if use_cache and not refresh:
        entry = result_cache.load(experiment_id, key_params,
                                  cache_dir=cache_dir)
        if entry is not None:
            return entry["text"], True
    start = time.perf_counter()
    result = exp.run(scale, **kwargs) if exp.scalable else exp.run(**kwargs)
    text = exp.render(result)
    if use_cache:
        result_cache.store(experiment_id, key_params, text,
                           cache_dir=cache_dir,
                           elapsed_seconds=time.perf_counter() - start)
    if out_dir is not None:
        save_report(out_dir, experiment_id, text, result, scale)
    return text, False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce tables/figures from 'Design and accuracy "
                    "trade-offs in Computational Statistics' (IISWC 2025)")
    parser.add_argument("experiment", nargs="?", default=None,
                        help="experiment id (e.g. fig3) or 'all'")
    parser.add_argument("--all", action="store_true", dest="run_all",
                        help="run every figure/table (same as the 'all' "
                             "positional)")
    parser.add_argument("--formats", action="store_true",
                        help="print the format registry table "
                             "(exactness class, batch mirror, width) "
                             "and exit")
    parser.add_argument("--scale", default="bench",
                        choices=("test", "bench", "full"))
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write <id>.txt and <id>.json here")
    parser.add_argument("--serial", action="store_true",
                        help="force the scalar plane instead of the "
                             "vectorized repro.engine kernels (identical "
                             "results; the throughput baseline)")
    parser.add_argument("--measure", action="store_true",
                        help="collect software wall-clock measurements "
                             "where supported (fig6's MMAPS columns)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="fan supported sweeps across N worker "
                             "processes (identical results for any N)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache location (default .repro-cache, "
                             "or $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the result cache")
    parser.add_argument("--refresh", action="store_true",
                        help="recompute even on a cache hit, overwriting "
                             "the entry")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="collect telemetry and write a JSONL span "
                             "trace (one line per closed span plus a "
                             "final summary line) to PATH")
    parser.add_argument("--stats", action="store_true",
                        help="collect telemetry and print the aggregate "
                             "counter/span/event table after the run")
    args = parser.parse_args(argv)
    if args.formats:
        from ..arith.registry import REGISTRY as FORMATS
        print(FORMATS.describe())
        return 0
    if args.run_all and args.experiment not in (None, "all"):
        parser.error(f"--all conflicts with the named experiment "
                     f"{args.experiment!r}; pass one or the other")
    if args.experiment is None and not args.run_all:
        print("Available experiments:")
        for exp in REGISTRY.values():
            print(f"  {exp.experiment_id:8s} {exp.description}")
        return 0
    if args.run_all or args.experiment == "all":
        targets = list(REGISTRY)
    else:
        targets = [args.experiment]
    try:
        plan = ExecPlan(
            batch=not args.serial,
            n_workers=args.workers,
            measure=args.measure,
            cache="off" if args.no_cache
                  else ("refresh" if args.refresh else "auto"))
    except ValueError as exc:
        parser.error(str(exc))
    for target in targets:
        if target not in REGISTRY:
            print(f"unknown experiment {target!r}", file=sys.stderr)
            return 2
    # The CLI speaks the same typed entry-layer contract as the
    # evaluation server: each target becomes a WorkloadRequest routed
    # through repro.service's single-request dispatcher, so there is
    # exactly one experiment dispatch path in the codebase.
    from ..service.api import ServiceError, WorkloadRequest
    from ..service.workloads import execute as execute_workload
    collecting = args.trace is not None or args.stats
    scope = telemetry.collect(trace=args.trace) if collecting else None
    collector = scope.__enter__() if scope is not None else None
    try:
        for target in targets:
            start = time.perf_counter()
            print(f"\n===== {target} =====")
            request = WorkloadRequest(
                kind="experiment",
                payload={"experiment_id": target, "scale": args.scale,
                         "out_dir": args.out,
                         "use_cache": not args.no_cache,
                         "cache_dir": args.cache_dir,
                         "refresh": args.refresh},
                plan=plan, request_id=f"cli-{target}")
            try:
                with telemetry.span(f"experiment.{target}"):
                    result = execute_workload(request)
            except ServiceError as exc:
                print(f"{target}: {exc}", file=sys.stderr)
                return 2
            print(result.values[0])
            note = " (cached)" if result.stats.get("cached") else ""
            print(f"[{target} finished in "
                  f"{time.perf_counter() - start:.1f}s{note}]")
    finally:
        if scope is not None:
            scope.__exit__(None, None, None)
    if collector is not None and args.stats:
        print("\n===== telemetry =====")
        print(collector.report())
    if collector is not None and args.trace is not None:
        print(f"[telemetry trace written to {args.trace}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
