"""Recompute ``pins.json``: the outputs the benchmark checks at its
default seed.

The svc pins are the exact wire triples of the program's in-process
solo path (``repro.service.workloads.execute``) for each request body;
the exp pins are each experiment's rendered report at the default seed
and, for the first timed passes, the SHA-256 of each report at that
pass's experiment seed.  Regenerate only
when a change to the program's numbers is intended, from the
repository root::

    python3 perfbench/regen_pins.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import figures
    import svc
    from run import DEFAULT_SEED
    pins = {"seed": DEFAULT_SEED, "exp": {},
            "svc": svc.live_expected(svc.request_bodies(DEFAULT_SEED))}
    pins["exp"]["texts"] = {
        e: figures._run_one(e, DEFAULT_SEED)[1] for e in figures.EXPERIMENTS}
    pins["exp"]["sha256"] = [
        {e: figures.digest(figures._run_one(
            e, figures.pass_seed(DEFAULT_SEED, j))[1])
         for e in figures.EXPERIMENTS}
        for j in range(figures.PINNED_PASSES)]
    path = os.path.join(HERE, "pins.json")
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
