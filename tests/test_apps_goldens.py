"""Exact goldens for the HMM and PBD entry points of :mod:`repro.apps`.

``forward_matrix``, ``backward_matrix``, ``posterior_decode``,
``posterior_distributions``, Viterbi (path and score), ``pbd_pmf`` and
``baum_welch`` (log2 likelihoods, flags and the trained model) are
pinned in ``tests/goldens/apps.json`` as exact wire triples
(:func:`repro.service.api.encode_value`), in five formats on one
``sample_hmm`` and one ``sample_hcg_like_hmm`` instance and on two PBD
sites.  Every entry is checked under the ambient ``ExecPlan()`` and
``ExecPlan.serial()``, so a change that moves one bit fails with the
entry named.  To accept an intentional change, regenerate::

    PYTHONPATH=src python tests/test_apps_goldens.py --regen
"""

import json
import os

import pytest

from repro import nd
from repro.apps import (
    backward_matrix,
    baum_welch,
    forward_matrix,
    pbd_pmf,
    posterior_decode,
    posterior_distributions,
)
from repro.arith import REGISTRY
from repro.bigfloat import BigFloat
from repro.data import sample_hcg_like_hmm, sample_hmm
from repro.engine import ExecPlan
from repro.service.api import encode_bigfloat, encode_value
from repro.workloads import viterbi

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "goldens", "apps.json")

FORMATS = ("binary64", "log", "posit(64,12)", "lns(12,50)", "bigfloat256")

HMMS = {
    "sample_hmm": lambda: sample_hmm(3, 3, 5, seed=21),
    # Likelihood ~2**-2000: every binary64 path probability underflows.
    "hcg_like": lambda: sample_hcg_like_hmm(3, 5, seed=5,
                                            bits_per_step=400.0),
}

#: site -> (success probabilities, max_k of the pinned PMF).
PBD_SITES = {
    "shallow": ([0.05, 0.3, 0.5, 0.12, 0.41, 0.77], 4),
    "deep": ([1e-70, 0.3, 2e-80, 0.5, 3e-90, 0.25, 1e-75, 0.125], 4),
}

#: (instance, format) whose Viterbi rows are all zero (binary64
#: underflow).  The pinned path is the retired list-of-lists Viterbi's,
#: which kept the *last* index among equal candidates; the one Viterbi
#: keeps the first, as ``np.argmax`` does.  The score is 0 either way.
ALL_ZERO_VITERBI = {("hcg_like", "binary64")}

PLANS = {"default": ExecPlan(), "serial": ExecPlan.serial()}


def _wire(backend, rows):
    return [[encode_value(backend, v) for v in row] for row in rows]


def _model(hmm):
    if hmm is None:
        return None
    return {name: [[encode_bigfloat(v) for v in row] for row in rows]
            for name, rows in (("transition", hmm.transition),
                               ("emission", hmm.emission),
                               ("initial", [hmm.initial]))}


def _hmm_entries(name: str, fmt: str) -> dict:
    hmm = HMMS[name]()
    backend = REGISTRY.create(fmt)
    best = viterbi(hmm, backend)
    trace = baum_welch(hmm, backend, iterations=3)
    return {
        "forward_matrix": _wire(backend, forward_matrix(hmm, backend)),
        "backward_matrix": _wire(backend, backward_matrix(hmm, backend)),
        "posterior_decode": [int(q) for q in posterior_decode(hmm, backend)],
        "posterior_distributions": _wire(
            backend, posterior_distributions(hmm, backend)),
        "viterbi": {"path": best.states(),
                    "score": encode_value(backend, best.score)},
        "baum_welch": {"log2_likelihoods": trace.log2_likelihoods,
                       "converged": trace.converged,
                       "degenerate": trace.degenerate,
                       "model": _model(trace.model)},
    }


def _pbd_entry(site: str, fmt: str) -> list:
    probs, max_k = PBD_SITES[site]
    backend = REGISTRY.create(fmt)
    pmf = pbd_pmf([BigFloat.from_float(p) for p in probs], max_k, backend)
    return [encode_value(backend, v) for v in pmf]


def _key(*parts) -> str:
    return "/".join(parts)


def _compute() -> dict:
    out = {}
    for name in HMMS:
        for fmt in FORMATS:
            for entry, value in _hmm_entries(name, fmt).items():
                out[_key("hmm", name, fmt, entry)] = value
    for site in PBD_SITES:
        for fmt in FORMATS:
            out[_key("pbd_pmf", site, fmt)] = _pbd_entry(site, fmt)
    return out


def _first_index_viterbi(hmm) -> list:
    """The binary64 Viterbi path with ``np.argmax``'s first-index rule:
    a float64 product is the binary64 backend's product, so this is the
    one Viterbi's decision sequence computed independently."""
    a, b, pi, obs = hmm.as_float_arrays()
    delta = pi * b[:, obs[0]]
    back = []
    for o in obs[1:]:
        prod = delta[:, None] * a
        back.append(prod.argmax(axis=0))
        delta = prod.max(axis=0) * b[:, o]
    path = [int(delta.argmax())]
    for pointers in reversed(back):
        path.append(int(pointers[path[-1]]))
    return path[::-1]


@pytest.fixture(scope="module")
def golden():
    assert os.path.exists(GOLDEN_PATH), (
        "missing tests/goldens/apps.json; generate with: "
        "PYTHONPATH=src python tests/test_apps_goldens.py --regen")
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def _check(golden: dict, key: str, actual):
    assert actual == golden[key], (
        f"{key} drifted from tests/goldens/apps.json.  If intentional, "
        f"regenerate with: PYTHONPATH=src python "
        f"tests/test_apps_goldens.py --regen")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(HMMS))
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_hmm_entries_match_golden(golden, plan, name, fmt):
    with nd.use_plan(PLANS[plan]):
        entries = _hmm_entries(name, fmt)
    for entry, value in entries.items():
        key = _key("hmm", name, fmt, entry)
        if entry == "viterbi" and (name, fmt) in ALL_ZERO_VITERBI:
            assert value["score"] == golden[key]["score"], key
            assert value["path"] == _first_index_viterbi(HMMS[name]()), key
            continue
        _check(golden, key, value)


def test_all_zero_viterbi_instance_underflows(golden):
    """The named exception really is the all-zero case: its pinned
    score is binary64's zero, and its pinned (last-index) path is not
    the first-index one."""
    for name, fmt in ALL_ZERO_VITERBI:
        pinned = golden[_key("hmm", name, fmt, "viterbi")]
        assert pinned["score"] == [0, "0", 0]
        assert pinned["path"] != _first_index_viterbi(HMMS[name]())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("site", sorted(PBD_SITES))
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_pbd_pmf_matches_golden(golden, plan, site, fmt):
    with nd.use_plan(PLANS[plan]):
        pmf = _pbd_entry(site, fmt)
    _check(golden, _key("pbd_pmf", site, fmt), pmf)


def test_golden_covers_every_entry(golden):
    expected = {_key("hmm", name, fmt, entry)
                for name in HMMS for fmt in FORMATS
                for entry in ("forward_matrix", "backward_matrix",
                              "posterior_decode", "posterior_distributions",
                              "viterbi", "baum_welch")}
    expected |= {_key("pbd_pmf", site, fmt)
                 for site in PBD_SITES for fmt in FORMATS}
    assert set(golden) == expected


def _regen():
    entries = _compute()
    lines = [f" {json.dumps(key)}: "
             f"{json.dumps(entries[key], separators=(',', ':'))}"
             for key in sorted(entries)]
    with open(GOLDEN_PATH, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN_PATH} ({os.path.getsize(GOLDEN_PATH)} bytes)")


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
