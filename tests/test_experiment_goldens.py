"""Golden reports for every registered experiment.

The rendered text of each :data:`repro.experiments.runner.REGISTRY`
experiment at ``scale="test"`` (default plan, no cache) is pinned in
``tests/goldens/experiments.json`` as a list of lines per experiment,
so a change that moves any figure's or table's numbers fails with the
experiment and its first differing line named.  Every experiment must
render the same text under the scalar reference plan
(``ExecPlan.serial()``) and with two worker processes as well: batch =
scalar and serial = parallel, checked against the one golden.  The
default-plan pass also collects telemetry and checks the work it did
against ``tests/goldens/costs.json`` (see ``tests/cost_golden.py``).
To accept an intentional change, regenerate::

    PYTHONPATH=src python tests/test_experiment_goldens.py --regen
"""

import json
import os

import pytest

import cost_golden
from repro import telemetry
from repro.engine import ExecPlan
from repro.experiments.runner import REGISTRY, run_experiment

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "goldens", "experiments.json")


#: The plans every experiment must render its golden under; the
#: default plan's ids stay the bare experiment id.
PLANS = {"": ExecPlan(), "serial": ExecPlan.serial(),
         "workers2": ExecPlan(n_workers=2)}


def _lines(experiment_id: str, plan=None) -> list:
    return run_experiment(experiment_id, scale="test",
                          plan=plan).split("\n")


def load_goldens() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def first_difference(expected: list, actual: list) -> str:
    """A one-line description of where two renderings first part."""
    for i, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return f"line {i + 1}: expected {want!r}, got {got!r}"
    if len(expected) != len(actual):
        i = min(len(expected), len(actual))
        return (f"line {i + 1}: expected {len(expected)} lines, "
                f"got {len(actual)}")
    return "no difference"


def test_goldens_cover_the_registry():
    assert sorted(load_goldens()) == sorted(REGISTRY)


@pytest.mark.parametrize("plan_name,experiment_id", [
    pytest.param(name, eid, id=f"{name}-{eid}" if name else eid)
    for name in PLANS for eid in sorted(REGISTRY)])
def test_report_matches_golden(plan_name, experiment_id):
    expected = load_goldens()[experiment_id]
    if plan_name:
        actual = _lines(experiment_id, PLANS[plan_name])
    else:
        with telemetry.collect() as col:
            actual = _lines(experiment_id, PLANS[plan_name])
    assert actual == expected, (
        f"{experiment_id} under {PLANS[plan_name]!r} drifted from "
        f"tests/goldens/experiments.json at "
        f"{first_difference(expected, actual)}.  If intentional, "
        f"regenerate with: "
        f"PYTHONPATH=src python tests/test_experiment_goldens.py --regen")
    if not plan_name:
        cost_golden.check("experiments", experiment_id, col)


def test_cost_golden_covers_the_registry():
    pinned = cost_golden.load()["experiments"]
    assert sorted(pinned) == sorted(REGISTRY)


def test_cost_differences_name_the_entry_and_counter():
    want = {"counters": {"nd.mul.log.batch": 4}, "spans": {"posit.decode": 3}}
    got = {"counters": {"nd.mul.log.batch": 4}, "spans": {"posit.decode": 4},
           "events": {"posit.flush": 1}}
    assert cost_golden.differences("fig9", want, got) == [
        "fig9: spans posit.decode expected 3, got 4",
        "fig9: events posit.flush expected None, got 1"]
    assert cost_golden.scalar_leaks({
        "nd.add.bigfloat256.scalar": 1, "nd.mul.log.scalar": 2,
        "nd.add.posit(64,12).batch": 3}) == ["nd.mul.log.scalar"]
    # An astype counts against the format it converts into.
    assert cost_golden.scalar_leaks({
        "nd.astype.log->bigfloat256.scalar": 3,
        "nd.astype.bigfloat256->posit(16,1).scalar": 3,
        "nd.astype.bigfloat256->log.batch": 3}) == [
        "nd.astype.bigfloat256->posit(16,1).scalar"]


def test_cost_change_table_lists_each_changed_count():
    parent = {"experiments": {"fig1": {
        "counters": {"nd.mul.bigfloat96.scalar": 8364},
        "spans": {"app.hmm.forward": 2}}}}
    change = {"experiments": {"fig1": {
        "counters": {"nd.dot.bigfloat96.scalar": 1194,
                     "nd.mul.bigfloat96.scalar": 1200},
        "spans": {"app.hmm.forward": 2}}},
        "service": {"pbd/bigfloat128": {
            "counters": {"nd.axpy.bigfloat128.scalar": 24}}}}
    assert cost_golden.change_table(parent, change) == [
        "| entry | kind | name | parent | change |",
        "| --- | --- | --- | --- | --- |",
        "| fig1 (experiment) | counters | `nd.dot.bigfloat96.scalar` "
        "| — | 1194 |",
        "| fig1 (experiment) | counters | `nd.mul.bigfloat96.scalar` "
        "| 8364 | 1200 |",
        "| pbd/bigfloat128 (service) | counters "
        "| `nd.axpy.bigfloat128.scalar` | — | 24 |"]
    assert cost_golden.change_table(change, change)[2:] == []


def test_first_difference_names_the_line():
    assert first_difference(["a", "b"], ["a", "c"]) == (
        "line 2: expected 'b', got 'c'")
    assert first_difference(["a"], ["a", "b"]) == (
        "line 2: expected 1 lines, got 2")


def _regen():
    goldens = {eid: _lines(eid) for eid in sorted(REGISTRY)}
    with open(GOLDEN_PATH, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
