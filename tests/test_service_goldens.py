"""Golden wire answers for every service kind.

One canonical request per row kind in each of three formats whose
arithmetic is platform-independent (binary64, posit(64,12),
bigfloat128), plus one ``experiment`` request and one posit(64,12)
``forward`` request whose models differ in H, M and T (entry name
``forward-mixed``), is pinned in ``tests/goldens/service.json``: the
request itself, its exact wire ``values`` and its row-count
``stats``.  Each pin is checked through
:func:`repro.service.workloads.execute` (the solo path) and through a
two-request coalesced ``run_batch`` (the canonical request batched with
a request carrying only its first row), so any change to parsing,
batching, scatter or encoding that moves one bit fails with the kind
and format named.  The solo pass also collects telemetry and checks the
work each request did against ``tests/goldens/costs.json`` (see
``tests/cost_golden.py``).  To accept an intentional change,
regenerate::

    PYTHONPATH=src python tests/test_service_goldens.py --regen
"""

import json
import os

import pytest

import cost_golden
from repro import telemetry
from repro.service.api import WORKLOAD_KINDS, WorkloadRequest
from repro.service.workloads import execute, handler_for

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "goldens", "service.json")

FORMATS = ("binary64", "posit(64,12)", "bigfloat128")

MODEL_A = {"transition": [[0.7, 0.3], [0.4, 0.6]],
           "emission": [[0.5, 0.4, 0.1], [0.1, 0.3, 0.6]],
           "initial": [0.6, 0.4],
           "observations": [0, 1, 2, 1, 0]}
MODEL_B = {"transition": [[0.9, 0.1], [0.25, 0.75]],
           "emission": [[0.2, 0.2, 0.6], [0.7, 0.2, 0.1]],
           "initial": [0.15, 0.85],
           "observations": [2, 2, 0, 1, 1]}

#: kind -> (canonical payload, the payload fields that carry its rows).
ROW_KINDS = {
    "forward": ({"models": [MODEL_A, MODEL_B]}, ("models",)),
    "pbd": ({"sites": [[0.1, 0.2, 0.3, 0.05], [0.5, 0.25, 0.125, 0.9]],
             "k": 2}, ("sites",)),
    "op": ({"op": "div", "a": [1.0, 0.3, 2.5], "b": [3.0, 0.7, -1.25]},
           ("a", "b")),
    "astype": ({"to": "posit(16,1)", "values": [0.3, 1e-30, 12345.678]},
               ("values",)),
    "viterbi": ({"model": MODEL_A,
                 "sequences": [[0, 1, 2, 1, 0], [2, 2, 0, 1, 1]]},
                ("sequences",)),
    "pairhmm": ({"haplotype": [0, 1, 2, 3, 0, 1],
                 "reads": [[0, 1, 2], [3, 3, 3]], "gap_open": 0.05},
                ("reads",)),
    "kalman": ({"tracks": [[0.5, 0.6, 0.4], [1.0, 1.1, 0.9]], "r": 0.01},
               ("tracks",)),
}

EXPERIMENT = {"experiment_id": "fig1", "scale": "test", "use_cache": False}

#: Models of three shapes, (H, M, T) = (2, 3, 5), (3, 2, 3) and (2, 4, 8):
#: one request, one kernel call per distinct H.
MIXED_FORWARD = {"models": [
    MODEL_A,
    {"transition": [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
     "emission": [[0.8, 0.2], [0.35, 0.65], [0.5, 0.5]],
     "initial": [0.2, 0.3, 0.5],
     "observations": [1, 0, 1]},
    {"transition": [[0.6, 0.4], [0.15, 0.85]],
     "emission": [[0.1, 0.2, 0.3, 0.4], [0.45, 0.05, 0.25, 0.25]],
     "initial": [0.55, 0.45],
     "observations": [3, 0, 2, 1, 3, 3, 0, 2]}]}


def _canonical() -> list:
    """``(name, kind, format, payload)`` of every pinned request, file
    order; ``name`` is the kind except for ``forward-mixed``."""
    cases = [(kind, kind, fmt, payload)
             for kind, (payload, _) in ROW_KINDS.items() for fmt in FORMATS]
    return cases + [("experiment", "experiment", None, EXPERIMENT),
                    ("forward-mixed", "forward", "posit(64,12)",
                     MIXED_FORWARD)]


def _request(entry: dict) -> WorkloadRequest:
    return WorkloadRequest(kind=entry["kind"], format=entry["format"],
                           payload=entry["payload"])


def _first_row_only(entry: dict) -> WorkloadRequest:
    """The entry's request cut down to its first row."""
    _, row_fields = ROW_KINDS[entry["kind"]]
    payload = dict(entry["payload"])
    for name in row_fields:
        payload[name] = payload[name][:1]
    return _request(dict(entry, payload=payload))


def load_golden() -> list:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def _entry_id(entry: dict) -> str:
    return f"{entry.get('name', entry['kind'])}/{entry['format']}"


GOLDEN = load_golden() if os.path.exists(GOLDEN_PATH) else []
ROW_ENTRIES = [e for e in GOLDEN if e["kind"] != "experiment"]


def test_golden_covers_every_kind_and_format():
    """The file pins exactly the canonical requests: every row kind in
    every format, the one experiment and the mixed-shape forward, so no
    kind can drop out."""
    assert os.path.exists(GOLDEN_PATH), (
        "missing tests/goldens/service.json; generate with: "
        "PYTHONPATH=src python tests/test_service_goldens.py --regen")
    assert [(e.get("name", e["kind"]), e["kind"], e["format"], e["payload"])
            for e in GOLDEN] == _canonical()
    assert {e["kind"] for e in GOLDEN} == set(WORKLOAD_KINDS)
    assert sorted(cost_golden.load()["service"]) == sorted(
        _entry_id(e) for e in GOLDEN)


@pytest.mark.parametrize("entry", GOLDEN, ids=_entry_id)
def test_execute_matches_golden(entry):
    with telemetry.collect() as col:
        result = execute(_request(entry))
    assert result.values == entry["values"], (
        f"{_entry_id(entry)} drifted from tests/goldens/service.json")
    assert result.stats == dict(entry["stats"], batch_size=1,
                                coalesced=False)
    cost_golden.check("service", _entry_id(entry), col)


@pytest.mark.parametrize("entry", ROW_ENTRIES, ids=_entry_id)
def test_coalesced_run_batch_matches_golden(entry):
    handler = handler_for(entry["kind"])
    full, first = _request(entry), _first_row_only(entry)
    for request in (full, first):
        handler.validate(request)
    assert handler.coalesce_key(full) == handler.coalesce_key(first)
    (values, stats), (first_values, first_stats) = \
        handler.run_batch([full, first])
    assert values == entry["values"]
    assert stats == entry["stats"]
    assert first_values == entry["values"][:1]
    assert first_stats == {name: 1 for name in entry["stats"]}


def _regen():
    golden = []
    for name, kind, fmt, payload in _canonical():
        entry = {"kind": kind, "format": fmt, "payload": payload,
                 **({} if name == kind else {"name": name})}
        result = execute(_request(entry))
        stats = {k: v for k, v in result.stats.items()
                 if k not in ("batch_size", "coalesced")}
        golden.append(dict(entry, values=result.values, stats=stats))
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
