"""The exp-figures workload: the paper-reproduction path, one process.

Each listed experiment runs at ``scale="test"`` through
``repro.experiments.runner.REGISTRY[id].run(...)`` and ``render``, with
no result cache (``run`` is called directly).  One untimed pass runs at
the workload seed; then timed passes repeat until the window closes,
pass ``j`` at experiment seed ``pass_seed(seed, j)``, with a calibration
slice between consecutive experiment calls and samples during each.
Pass ``j`` gets its own inputs because fig9's cost at test scale (one
column per p-value bin) varies by up to 1.6x from seed to seed: one
seed per run would make ``wall_s`` measure the seed, not the program.
``wall_s`` is the sum over experiments of each one's median calibrated
time over the passes, so a slow phase the calibration misses spoils one
sample of one experiment, not the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from calib import (Tally, Timed, median, rescale, spawn_slowness,
                   timed_window)
from tracer import Tracer, self_time_table

_now = time.perf_counter

#: The figures a researcher reproduces.  fig11 is left out (the same
#: ``run_lofreq`` path as fig9, 3 s dearer); so is scorecard (it reruns
#: the others at reduced size).
EXPERIMENTS = ("fig1", "fig3", "fig9", "fig10", "viterbi", "pairhmm",
               "kalman")
#: Experiments whose rendered rows ``tests/goldens`` pins at seed 0.
GOLDEN_SEED = 0
GOLDENS = ("viterbi", "pairhmm", "kalman")
#: Cold starts of ``python -m repro.experiments`` per run.
COLD_STARTS = 5
#: Pass ``j`` runs at ``seed + j * PASS_SEED_STRIDE``; pins cover the
#: first ``PINNED_PASSES`` passes of the default seed.
PASS_SEED_STRIDE = 1_000_003
PINNED_PASSES = 16


def pass_seed(seed: int, j: int) -> int:
    return seed + j * PASS_SEED_STRIDE


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _first_diff(got: str, want: str) -> str:
    for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
        if a != b:
            return f"line {i + 1}: {a!r} != {b!r}"
    return "lengths differ"


def cold_start(env: dict, checker: Tally) -> Tuple[float, float]:
    """Raw and calibrated seconds from spawning ``python -m
    repro.experiments`` until its experiment listing is printed."""
    before = spawn_slowness(env)
    t0 = _now()
    proc = subprocess.Popen([sys.executable, "-m", "repro.experiments"],
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)
    try:
        out = proc.stdout.read()
        elapsed = _now() - t0
    finally:
        proc.stdout.close()
        code = proc.wait()
    after = spawn_slowness(env)
    listed = out.decode(errors="replace")
    checker.record(code == 0 and "Available experiments" in listed
                   and all(f"  {e} " in listed for e in EXPERIMENTS),
                   f"experiment listing failed (exit {code})")
    return elapsed, rescale(elapsed, [before, after])


def _run_one(exp_id: str, seed: int):
    from repro.experiments.runner import REGISTRY
    exp = REGISTRY[exp_id]
    result = exp.run("test", seed=seed)
    return result, exp.render(result)


def warm_pass(seed: int, pinned: Optional[dict], goldens_dir: str,
              checker: Tally) -> Dict[str, str]:
    """One untimed pass at the workload seed; returns each experiment's
    rendered text, which timed pass 0 must reproduce.  At the pinned
    seed the texts must equal the pins and the golden experiments' rows
    their goldens."""
    texts = {}
    for exp_id in EXPERIMENTS:
        result, text = _run_one(exp_id, seed)
        texts[exp_id] = text
        if pinned is not None:
            want = pinned["texts"][exp_id]
            checker.record(text == want, f"{exp_id} differs from its "
                                         f"pin: {_first_diff(text, want)}")
        if seed == GOLDEN_SEED and exp_id in GOLDENS:
            with open(os.path.join(goldens_dir, f"{exp_id}.json")) as f:
                golden = json.load(f)
            checker.record(result.rows() == golden,
                           f"{exp_id} rows differ from tests/goldens")
    return texts


def _check_call(checker: Tally, exp_id: str, j: int, text: str,
                texts: Dict[str, str], pinned: Optional[dict]) -> None:
    """Pass 0 must reproduce the untimed pass; at the pinned seed every
    pinned pass must match its digest.  Other calls have no reference
    and count as attempted only."""
    if j == 0:
        checker.record(text == texts[exp_id],
                       f"{exp_id} output changed between passes: "
                       f"{_first_diff(text, texts[exp_id])}")
    elif pinned is not None and j < len(pinned["sha256"]):
        checker.record(digest(text) == pinned["sha256"][j][exp_id],
                       f"{exp_id} pass {j} differs from its pinned digest")
    else:
        checker.record(True)


def timed_passes(seed: int, seconds: float, texts: Dict[str, str],
                 pinned: Optional[dict], checker: Tally, cal: List[float],
                 env: Optional[dict], n_cold: int,
                 tracer: Optional[Tracer] = None) -> dict:
    """Passes until ``seconds`` pass (see ``calib.timed_window``): step
    ``k`` is experiment ``k % len(EXPERIMENTS)`` of pass
    ``k // len(EXPERIMENTS)``.  Returns per experiment the calibrated and
    raw call times, plus cold starts and (traced) per-call layer
    deltas."""
    n = len(EXPERIMENTS)
    layers: List[dict] = []
    state = {"snap": tracer.snapshot() if tracer is not None else None}

    def step(k: int) -> str:
        exp_id, exp_seed = EXPERIMENTS[k % n], pass_seed(seed, k // n)
        if tracer is None:
            return _run_one(exp_id, exp_seed)[1]
        return _traced_call(tracer, exp_id, exp_seed)

    def on_call(call: Timed) -> None:
        snap = tracer.snapshot()
        layers.append(Tracer.delta(snap, state["snap"], call.factor))
        state["snap"] = snap

    calls, cold = timed_window(
        seconds, step, cal, cold=lambda: cold_start(env, checker),
        n_cold=n_cold, group=n, sample=True,
        on_step=on_call if tracer is not None else None)
    calibrated: Dict[str, List[float]] = {e: [] for e in EXPERIMENTS}
    raw: Dict[str, List[float]] = {e: [] for e in EXPERIMENTS}
    for k, call in enumerate(calls):
        exp_id = EXPERIMENTS[k % n]
        raw[exp_id].append(call.raw_s)
        calibrated[exp_id].append(call.raw_s * call.factor)
        _check_call(checker, exp_id, k // n, call.value, texts, pinned)
    return {"calibrated": calibrated, "raw": raw, "cold": cold,
            "passes": len(calls) // n, "layers": layers}


def _traced_call(tracer: Tracer, exp_id: str, seed: int) -> str:
    from repro import telemetry
    with telemetry.collect():
        tracer.enter(f"experiments.{exp_id}")
        try:
            return _run_one(exp_id, seed)[1]
        finally:
            tracer.exit()


def summarize(timed: dict) -> dict:
    per_exp = {e: median(v) for e, v in timed["calibrated"].items()}
    per_exp_raw = {e: median(v) for e, v in timed["raw"].items()}
    wall = sum(per_exp.values())
    raw_wall = sum(per_exp_raw.values())
    out = {
        "passes": timed["passes"],
        "wall_s": wall, "raw.wall_s": raw_wall,
        "throughput": len(EXPERIMENTS) / wall,
        "raw.throughput": len(EXPERIMENTS) / raw_wall,
        "latency_p50_ms": median(list(per_exp.values())) * 1e3,
        "raw.latency_p50_ms": median(list(per_exp_raw.values())) * 1e3,
        "latency_samples": sum(len(v) for v in timed["calibrated"].values()),
        "per_experiment_s": per_exp,
    }
    if timed["cold"]:
        out["setup_s"] = median([c for _r, c in timed["cold"]])
        out["raw.setup_s"] = median([r for r, _c in timed["cold"]])
        out["setup_samples"] = len(timed["cold"])
    return out


def _layers(timed: dict) -> dict:
    """Per-pass layer numbers from the traced calls."""
    acc: dict = {"totals": {}, "counts": {}}
    for delta in timed["layers"]:
        Tracer.accumulate(acc, delta)
    totals, counts = acc["totals"], acc["counts"]
    n_calls = len(timed["layers"])
    passes = n_calls / len(EXPERIMENTS)

    def per_pass(name):
        return totals.get(name, [0, 0.0, 0.0])[1] / passes

    m = {f"experiments.{e}_s": median(timed["calibrated"][e])
         for e in EXPERIMENTS}
    m.update({
        "experiments.other_s": sum(
            totals.get(f"experiments.{e}", [0, 0.0, 0.0])[2]
            for e in EXPERIMENTS) / passes,
        "apps.run_lofreq_s": per_pass("apps.run_lofreq"),
        "apps.run_vicar_s": per_pass("apps.run_vicar"),
        "apps.forward_models_batch_ms":
            per_pass("apps.forward_models_batch") * 1e3,
        "bigfloat.oracle_s": per_pass("bigfloat.oracle"),
        "bigfloat.to_float_calls":
            counts.get("bigfloat.to_float_calls", 0) / passes,
        "nd.asarray_ms": per_pass("nd.asarray") * 1e3,
        "nd.op_calls": counts.get("nd.op_calls", 0) / passes,
        "engine.posit.decode_ms": per_pass("engine.posit.decode") * 1e3,
        "engine.posit.core_ms": per_pass("engine.posit.core") * 1e3,
        "engine.posit.encode_ms": per_pass("engine.posit.encode") * 1e3,
        "engine.posit.encode_calls":
            totals.get("engine.posit.encode", [0])[0] / passes,
        "engine.batch.sum_ms": per_pass("engine.batch.sum") * 1e3,
    })
    own_total = sum(v[2] for v in totals.values()) / passes
    lines = [f"  self times per pass ({passes:.2f} traced passes, "
             f"calibrated s): calls total self"]
    lines += self_time_table(totals, passes, "s", 1.0)
    lines.append(f"    {'= sum of self times':<34} {'':>9} {'':>10} "
                 f"{own_total:>10.3f} s = the mean traced pass; experiments.* "
                 f"self = experiments.other_s, experiment code outside "
                 f"the traced layers")
    return {"metrics": m, "lines": lines}


def _install(tracer: Tracer) -> None:
    from repro.apps import lofreq, vicar
    tracer.install_common()
    tracer.wrap_function(lofreq.run_lofreq, "apps.run_lofreq")
    tracer.wrap_function(vicar.run_vicar, "apps.run_vicar")
    tracer.wrap_function(lofreq.reference_pvalues, "bigfloat.oracle")
    tracer.wrap_function(vicar.reference_likelihoods, "bigfloat.oracle")


def run(seed: int, seconds: float, trace: bool, env: dict,
        pinned: Optional[dict], goldens_dir: str) -> dict:
    """One run of exp-figures."""
    checker = Tally()
    cal: List[float] = []
    texts = warm_pass(seed, pinned, goldens_dir, checker)
    if not trace:
        timed = timed_passes(seed, seconds, texts, pinned, checker, cal,
                             env, COLD_STARTS)
        out = summarize(timed)
    else:
        timed = timed_passes(seed, seconds / 2, texts, pinned, checker,
                             cal, env, 2)
        out = summarize(timed)
        tracer = Tracer()
        _install(tracer)
        try:
            traced_cal: List[float] = []
            traced = timed_passes(seed, seconds / 2, texts, pinned,
                                  checker, traced_cal, None, 0, tracer)
        finally:
            tracer.restore()
        out["traced"] = summarize(traced)
        out["traced"]["baseline"] = summarize(timed)
        out["traced"]["calib"] = traced_cal
        out["traced"]["layers"] = _layers(traced)
    out["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["calib"] = cal
    out["attempted"] = checker.attempted
    out["failed"] = checker.failed
    out["first_failure"] = checker.first_failure
    return out
