"""Paired A/B runs of one perfbench workload: this checkout against a
base revision.

Usage, from the repository root::

    python benchmarks/ab.py --base REV --workload W [--pairs 10] [--seconds 45]

REV is checked out with ``git worktree add --detach`` into a temporary
directory outside the checkout, removed when the run ends.  Both sides
run *this* checkout's ``perfbench/run.py``, each from its own tree's
root (where run.py imports ``./src``), so they share one copy of the
measuring code and differ only in the program.  Pair i runs at seed i,
and the side that runs first alternates from pair to pair.

For every end-to-end metric of ``BENCHMARK.json`` the printout gives
both sides' median and inter-quartile range, the ratio of the medians
(change / base), the pairs each side won, judged by the metric's
``better`` (a tie counts for neither side), and a verdict:

* ``worse`` — the change's median is worse than the base's by more
  than the metric's ``bound``;
* ``gain`` — the change won at least 9 in 10 pairs and its median is
  better than the base's by more than the base's IQR;
* ``unresolved`` — the base's IQR exceeds ``bound`` times its median,
  and not every change run beats every base run;
* ``same`` — otherwise.

The exit status is 1 when any run exits non-zero or reports a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
SIDES = ("base", "change")

sys.path.append(os.path.dirname(RUN_PY))
from calib import quartiles  # noqa: E402


def compare(pairs: Sequence[Dict[str, Dict[str, float]]],
            metrics: Sequence[dict]) -> List[dict]:
    """One row per metric over paired runs.

    ``pairs`` holds one ``{"base": {metric: value}, "change": {...}}``
    per pair; ``metrics`` are ``BENCHMARK.json``'s end-to-end entries.
    Each row carries both sides' median and IQR, the ratio of the
    medians (change / base), the pairs won by each side, whether every
    change run beats every base run (``separated``) and the
    :func:`verdict` under the metric's ``bound``.
    """
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        won = lost = 0
        for b, c in zip(base, change):
            if c != b:
                if (c < b) == lower:
                    won += 1
                else:
                    lost += 1
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        separated = (max(change) < min(base) if lower
                     else min(change) > max(base))
        row = {
            "name": name, "unit": m["unit"], "better": m["better"],
            "base_median": bm, "base_iqr": b3 - b1,
            "change_median": cm, "change_iqr": c3 - c1,
            "ratio": cm / bm if bm else float("inf"),
            "won": won, "lost": lost, "pairs": len(pairs),
            "separated": separated}
        row["verdict"] = verdict(row, m["bound"])
        rows.append(row)
    return rows


def verdict(row: dict, bound: float) -> str:
    """``worse``, ``gain``, ``unresolved`` or ``same`` for one
    :func:`compare` row (see the module docstring), in that order."""
    lower = row["better"] == "lower"
    bm, cm = row["base_median"], row["change_median"]
    if (row["ratio"] - 1 if lower else 1 - row["ratio"]) > bound:
        return "worse"
    better_by = bm - cm if lower else cm - bm
    if row["won"] >= 0.9 * row["pairs"] and better_by > row["base_iqr"]:
        return "gain"
    if row["base_iqr"] > bound * bm and not row["separated"]:
        return "unresolved"
    return "same"


def render(rows: Sequence[dict]) -> str:
    lines = ["| metric | better | base median (IQR) | change median (IQR) "
             "| ratio | pairs won by change | verdict |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for r in rows:
        lines.append(
            f"| `{r['name']}` ({r['unit']}) | {r['better']} "
            f"| {r['base_median']:.4g} ({r['base_iqr']:.3g}) "
            f"| {r['change_median']:.4g} ({r['change_iqr']:.3g}) "
            f"| {r['ratio']:.3f} "
            f"| {r['won']} of {r['pairs']} (lost {r['lost']}) "
            f"| {r['verdict']} |")
    return "\n".join(lines)


def run_once(tree: str, workload: str, seed: int, seconds: float):
    """One perfbench run from ``tree``'s root: (metrics, failure text).
    The failure text is empty when the run exited 0 with no failed
    operation."""
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds)],
        cwd=tree, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, (f"exit {proc.returncode}, no result line: "
                      f"{proc.stderr.strip()[-400:]}")
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    if proc.returncode != 0 or out["failed"]:
        return metrics, (f"exit {proc.returncode}, {out['failed']} of "
                         f"{out['attempted']} operations failed")
    return metrics, ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare "
                   "against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=45.0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    tmp = tempfile.mkdtemp(prefix="ab-")
    base_tree = os.path.join(tmp, "base")
    trees = {"base": base_tree, "change": ROOT}
    pairs, failures = [], []
    try:
        subprocess.run(["git", "worktree", "add", "--detach", base_tree,
                        args.base], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        for i in range(args.pairs):
            pair = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                values, failure = run_once(trees[side], args.workload, i,
                                           args.seconds)
                print(f"pair {i} {side}: "
                      + (failure or json.dumps(values)), file=sys.stderr)
                if failure:
                    failures.append(f"pair {i} {side}: {failure}")
                if values is not None:
                    pair[side] = values
            if len(pair) == 2:
                pairs.append(pair)
    finally:
        if os.path.isdir(base_tree):
            subprocess.run(["git", "worktree", "remove", "--force",
                            base_tree], cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload}: change = working tree, base = {args.base}, "
          f"{len(pairs)} pairs of {args.seconds:g} s windows")
    if pairs:
        print(render(compare(pairs, metrics)))
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
