#!/usr/bin/env python
"""Per-stage timing of the batched posit datapath.

Splits one posit op into its pipeline stages — pattern **decode**
(regime/exponent parse to the unpacked plane), the exact **core**
arithmetic, and the rounding **encode** back to patterns — and times
each on a realistic probability-magnitude operand array.  This is the
tool that located the PR 5 posit gap (decode/encode dominated every
op), and the CI artifact that keeps the stage balance visible.

The numbers come from :mod:`repro.telemetry`: the engine's built-in
stage spans (``posit.decode`` / ``posit.core.*`` / ``posit.encode``)
time the stage rows, and explicit ``posit.op.*`` spans time the packed
ops; ``seconds_per_call`` is the best (minimum) span duration over the
repeats.  Whole-op rows therefore include the active collector's small
tally overhead — the stage balance, which is what this profile is for,
is unaffected.

Usage::

    PYTHONPATH=src python benchmarks/profile_posit.py
    PYTHONPATH=src python benchmarks/profile_posit.py --json PROFILE.json
    PYTHONPATH=src python benchmarks/profile_posit.py --nbits 32 --es 2 \
        --size 100000 --repeats 30

The ``--json`` payload maps stage names to ``{seconds_per_call,
ops_per_s}`` plus the configuration, ready for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Stage rows read the engine's own telemetry spans; the remaining rows
#: (whole packed ops) get an explicit ``posit.op.*`` span per call.
SPAN_FOR = {
    "decode": "posit.decode",
    "encode": "posit.encode",
    "add_core": "posit.core.add",
    "mul_core": "posit.core.mul",
    "div_core": "posit.core.div",
}


def _span_best(telemetry, fn, name: str, repeats: int) -> float:
    """Best (min) duration of span ``name`` over ``repeats`` runs of
    ``fn`` inside a fresh collector.

    Stage callables fire exactly one engine span per call; whole ops
    are wrapped in their own span here.  The warm call runs outside
    the scope so only steady-state durations reach the aggregate.
    """
    fn()  # warm ufunc/loop caches once; we time steady state
    explicit = name not in SPAN_FOR.values()
    with telemetry.collect() as t:
        for _ in range(repeats):
            if explicit:
                with telemetry.span(name):
                    fn()
            else:
                fn()
    return t.spans[name][2]


def profile(nbits: int, es: int, size: int, repeats: int) -> dict:
    import numpy as np

    from repro import telemetry
    from repro.engine.posit_batch import BatchPosit
    from repro.formats.posit import PositEnv

    env = PositEnv(nbits, es)
    bp = BatchPosit(env)
    rng = np.random.default_rng(0)
    lo = max(-600, 2 * env.min_scale // 3)
    floats = 2.0 ** rng.uniform(lo, 0, size)
    a = bp.from_floats(floats)
    b = bp.from_floats(floats[::-1])
    ua = bp.decode_once(a)
    ub = bp.decode_once(b)
    zeros_sticky = np.zeros(a.shape, dtype=bool)

    stages = {
        "decode": lambda: bp.decode_once(a),
        "encode": lambda: bp._encode(ua.sign, ua.scale, ua.frac64,
                                     zeros_sticky),
        "add_core": lambda: bp._add_core(ua, ub),
        "mul_core": lambda: bp._mul_core(ua, ub),
        "div_core": lambda: bp._divide_frac(ua.frac64, ub.frac64),
        "add": lambda: bp.add(a, b),
        "mul": lambda: bp.mul(a, b),
        "sub": lambda: bp.sub(a, b),
        "div": lambda: bp.div(a, b),
        "axpy": lambda: bp.axpy(a, b, a),
    }
    results = {}
    for name, fn in stages.items():
        span_name = SPAN_FOR.get(name, f"posit.op.{name}")
        seconds = _span_best(telemetry, fn, span_name, repeats)
        results[name] = {
            "seconds_per_call": seconds,
            "ops_per_s": size / seconds,
        }
    return {
        "benchmark": "posit_stage_profile",
        "config": {"nbits": nbits, "es": es, "size": size,
                   "repeats": repeats},
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-stage (decode/core/encode) batched-posit timings")
    parser.add_argument("--nbits", type=int, default=64)
    parser.add_argument("--es", type=int, default=12)
    parser.add_argument("--size", type=int, default=16_000,
                        help="operand array length (default 16000)")
    parser.add_argument("--repeats", type=int, default=10,
                        help="best-of-N repetitions per stage")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump the payload as JSON (use '-' "
                             "for stdout)")
    args = parser.parse_args(argv)

    payload = profile(args.nbits, args.es, args.size, args.repeats)
    width = max(len(k) for k in payload["results"])
    print(f"posit({args.nbits},{args.es}) stage profile, "
          f"n={args.size} (best of {args.repeats}):")
    for name, rec in payload["results"].items():
        print(f"  {name:<{width}}  {rec['seconds_per_call'] * 1e3:8.3f} ms"
              f"  {rec['ops_per_s'] / 1e6:8.2f} Mops/s")
    if args.json == "-":
        json.dump(payload, sys.stdout, indent=1)
        print()
    elif args.json:
        with open(args.json, "w") as f:
            json.dump(payload, f, indent=1)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
