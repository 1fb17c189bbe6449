"""Cost goldens: how much work each experiment and service kind does.

The output goldens pin *what* the code computes; ``tests/goldens/
costs.json`` pins how much work produces it.  For every experiment (at
``scale="test"`` under the default plan) and every pinned service
request it holds the deterministic telemetry counts:

* ``counters`` — the ``nd.<op>.<format>.<plane>`` element tallies;
* ``spans`` — the ``posit.encode`` and ``posit.decode`` span counts
  (roundings and decodes) and the ``app.*`` and ``workload.*`` span
  counts (kernel calls);
* ``events`` — the exceptional-event tallies.

LNS memo hits and misses are left out: the memo lives as long as the
process, so they depend on what ran before.  The counts are collected
during the passes that ``tests/test_experiment_goldens.py`` (default
plan) and ``tests/test_service_goldens.py`` (solo ``execute``) already
run.  Beside the pins, :func:`check` asserts that no batched format
(binary64, log, posit, LNS) dispatches ``nd.*.scalar`` — a silent
per-element loop; an ``nd.astype.<from>-><to>`` counter counts against
its target format.  To accept an intended change in the work,
regenerate::

    PYTHONPATH=src python tests/cost_golden.py --regen

which also prints every changed count as a markdown table
(:func:`change_table`).
"""

import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "goldens", "costs.json")

#: Span names pinned exactly; other spans are pinned by prefix.
PINNED_SPANS = ("posit.encode", "posit.decode")
PINNED_SPAN_PREFIXES = ("app.", "workload.")


def costs(collector) -> dict:
    """The pinned counts of one collector."""
    return {
        "counters": {name: n for name, n in sorted(
            collector.counters.items()) if name.startswith("nd.")},
        "events": dict(sorted(collector.events.items())),
        "spans": {name: agg[0] for name, agg in sorted(
            collector.spans.items())
            if name in PINNED_SPANS or name.startswith(PINNED_SPAN_PREFIXES)},
    }


def scalar_leaks(counters: dict) -> list:
    """The ``nd.*.scalar`` counters of batched formats (every format
    but the BigFloat oracle); an astype counts in its target format."""
    leaks = []
    for name in counters:
        if not name.endswith(".scalar"):
            continue
        fmt = name[:-len(".scalar")].split(".", 2)[2].split("->")[-1]
        if not fmt.startswith("bigfloat"):
            leaks.append(name)
    return leaks


def _changes(expected: dict, actual: dict):
    """``(kind, name, expected, actual)`` for each pinned count that
    differs (None where a count is absent)."""
    for kind in ("counters", "spans", "events"):
        want, got = expected.get(kind, {}), actual.get(kind, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                yield kind, name, want.get(name), got.get(name)


def differences(entry_id: str, expected: dict, actual: dict) -> list:
    """One line per pinned count that differs, naming the entry."""
    return [f"{entry_id}: {kind} {name} expected {want}, got {got}"
            for kind, name, want, got in _changes(expected, actual)]


def change_table(parent: dict, change: dict) -> list:
    """Every count that differs between two cost goldens, as the rows
    of a markdown table ``| entry | kind | name | parent | change |``
    (``—`` where a count is absent)."""
    rows = ["| entry | kind | name | parent | change |",
            "| --- | --- | --- | --- | --- |"]
    for section, label in (("experiments", "experiment"),
                           ("service", "service")):
        before, after = parent.get(section, {}), change.get(section, {})
        for entry_id in sorted(set(before) | set(after)):
            for kind, name, want, got in _changes(
                    before.get(entry_id, {}), after.get(entry_id, {})):
                rows.append(f"| {entry_id} ({label}) | {kind} | `{name}` "
                            f"| {'—' if want is None else want} "
                            f"| {'—' if got is None else got} |")
    return rows


def load() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def check(section: str, entry_id: str, collector) -> None:
    """Assert one entry's counts equal its pin and leak no scalar
    dispatch of a batched format."""
    actual = costs(collector)
    leaks = scalar_leaks(actual["counters"])
    assert not leaks, (f"{entry_id}: batched formats dispatched on the "
                       f"scalar plane: {leaks}")
    expected = load()[section].get(entry_id)
    assert expected is not None, (
        f"{entry_id} has no entry in tests/goldens/costs.json; "
        f"regenerate with: PYTHONPATH=src python tests/cost_golden.py "
        f"--regen")
    diff = differences(entry_id, expected, actual)
    assert not diff, ("work drifted from tests/goldens/costs.json:\n"
                      + "\n".join(diff) + "\nIf intentional, regenerate "
                      "with: PYTHONPATH=src python tests/cost_golden.py "
                      "--regen")


def _regen():
    from repro import telemetry
    from repro.engine import ExecPlan
    from repro.experiments.runner import REGISTRY
    from repro.service.workloads import execute
    from test_experiment_goldens import _lines
    from test_service_goldens import GOLDEN, _entry_id, _request

    parent = load() if os.path.exists(GOLDEN_PATH) else {}
    golden = {"experiments": {}, "service": {}}
    for eid in sorted(REGISTRY):
        with telemetry.collect() as col:
            _lines(eid, ExecPlan())
        golden["experiments"][eid] = costs(col)
    for entry in GOLDEN:
        with telemetry.collect() as col:
            execute(_request(entry))
        golden["service"][_entry_id(entry)] = costs(col)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    rows = change_table(parent, golden)
    print("\n".join(rows) if len(rows) > 2 else "no pinned count changed")


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
