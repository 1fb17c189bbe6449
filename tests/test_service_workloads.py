"""The row-batched service kinds: the contract every :class:`RowKind`
keeps (solo = coalesced, shared fields in the coalesce key, one handler
table), HMM probability validation, and the workload-subsystem kinds
``viterbi``, ``pairhmm`` and ``kalman`` — validation, coalescing, and
scatter correctness against the underlying kernels."""

import pytest

from repro.nd.context import _resolve_format
from repro.service.api import WORKLOAD_KINDS, InvalidRequest, WorkloadRequest
from repro.service.workloads import (
    HANDLERS,
    ROW_KINDS,
    ForwardHandler,
    RowBatchHandler,
    encode_value,
    execute,
    handler_for,
)
from repro.workloads import kalman_batch, pairhmm_batch, viterbi_batch

MODEL = {
    "transition": [[0.7, 0.3], [0.4, 0.6]],
    "emission": [[0.5, 0.4, 0.1], [0.1, 0.3, 0.6]],
    "initial": [0.6, 0.4],
    "observations": [0, 1, 2, 1, 0],
}


def _req(kind, payload, fmt="binary64"):
    return WorkloadRequest(kind=kind, format=fmt, payload=payload)


class TestRegistration:
    def test_kinds_served(self):
        assert {"viterbi", "pairhmm", "kalman"} <= set(HANDLERS)
        for kind in ("viterbi", "pairhmm", "kalman"):
            assert isinstance(HANDLERS[kind], RowBatchHandler)

    def test_handler_table_is_the_api_contract(self):
        assert set(HANDLERS) == set(WORKLOAD_KINDS)
        assert {spec.kind for spec in ROW_KINDS} == set(ROW_PAIRS)

    def test_forward_handler_name_still_resolves(self):
        # The traced benchmark wraps these two methods by class name.
        assert isinstance(handler_for("forward"), ForwardHandler)
        assert {"validate", "run_batch"} <= set(ForwardHandler.__dict__)


class TestViterbiHandler:
    def test_execute_matches_kernel(self):
        backend = _resolve_format("log")
        seqs = [[0, 1, 2, 1], [2, 2, 0, 1]]
        result = execute(_req("viterbi",
                              {"model": MODEL, "sequences": seqs},
                              fmt="log"))
        from repro.service.workloads import _model_from_json
        hmm = _model_from_json(MODEL, where="model")
        want = viterbi_batch(hmm, backend, seqs)
        assert result.values == [
            {"score": encode_value(backend, d.score), "path": d.states()}
            for d in want]
        assert result.stats["sequences"] == 2

    def test_sequences_default_to_model_observations(self):
        result = execute(_req("viterbi", {"model": MODEL}))
        assert len(result.values) == 1
        assert len(result.values[0]["path"]) == len(MODEL["observations"])

    def test_coalesce_same_model_and_length(self):
        h = HANDLERS["viterbi"]
        r1 = _req("viterbi", {"model": MODEL, "sequences": [[0, 1]]})
        r2 = _req("viterbi", {"model": MODEL, "sequences": [[2, 0], [1, 1]]})
        h.validate(r1), h.validate(r2)
        assert h.coalesce_key(r1) == h.coalesce_key(r2)
        r3 = _req("viterbi", {"model": MODEL, "sequences": [[0, 1, 2]]})
        h.validate(r3)
        assert h.coalesce_key(r1) != h.coalesce_key(r3)

    def test_coalesced_scatter_matches_solo(self):
        h = HANDLERS["viterbi"]
        r1 = _req("viterbi", {"model": MODEL, "sequences": [[0, 1, 2]]})
        r2 = _req("viterbi", {"model": MODEL, "sequences": [[2, 2, 0],
                                                            [1, 0, 1]]})
        h.validate(r1), h.validate(r2)
        merged = h.run_batch([r1, r2])
        assert [m[1]["sequences"] for m in merged] == [1, 2]
        assert merged[0][0] == execute(r1).values
        assert merged[1][0] == execute(r2).values

    @pytest.mark.parametrize("payload", [
        {"sequences": [[0, 1]]},                       # no model
        {"model": MODEL, "sequences": []},             # empty
        {"model": MODEL, "sequences": [[0], [0, 1]]},  # ragged
        {"model": MODEL, "sequences": [[0, 3]]},       # symbol too big
        {"model": MODEL, "sequences": [[0, -1]]},      # negative
        {"model": MODEL, "extra": 1},                  # unknown field
    ])
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(InvalidRequest):
            execute(_req("viterbi", payload))


class TestPairhmmHandler:
    PAYLOAD = {"haplotype": [0, 1, 2, 3, 0, 1],
               "reads": [[0, 1, 2], [3, 3, 3]]}

    def test_execute_matches_kernel(self):
        backend = _resolve_format("binary64")
        result = execute(_req("pairhmm", dict(self.PAYLOAD)))
        want = pairhmm_batch(self.PAYLOAD["haplotype"],
                             self.PAYLOAD["reads"], backend)
        assert result.values == [encode_value(backend, v) for v in want]
        assert result.stats["reads"] == 2

    def test_semiring_and_params_respected(self):
        backend = _resolve_format("binary64")
        payload = dict(self.PAYLOAD, semiring="sum-product",
                       gap_open=0.05, mismatch=0.02)
        result = execute(_req("pairhmm", payload))
        from repro.workloads import PairHMMParams
        want = pairhmm_batch(self.PAYLOAD["haplotype"],
                             self.PAYLOAD["reads"], backend,
                             params=PairHMMParams(gap_open=0.05,
                                                  mismatch=0.02),
                             semiring="sum-product")
        assert result.values == [encode_value(backend, v) for v in want]

    def test_coalesce_key_covers_params(self):
        h = HANDLERS["pairhmm"]
        r1 = _req("pairhmm", dict(self.PAYLOAD))
        r2 = _req("pairhmm", dict(self.PAYLOAD, reads=[[1, 1, 1]]))
        r3 = _req("pairhmm", dict(self.PAYLOAD, gap_open=0.2))
        for r in (r1, r2, r3):
            h.validate(r)
        assert h.coalesce_key(r1) == h.coalesce_key(r2)
        assert h.coalesce_key(r1) != h.coalesce_key(r3)

    @pytest.mark.parametrize("payload", [
        {"reads": [[0]]},                                    # no haplotype
        {"haplotype": [], "reads": [[0]]},                   # empty hap
        {"haplotype": [0, 1], "reads": []},                  # no reads
        {"haplotype": [0, 1], "reads": [[0], [0, 1]]},       # ragged
        {"haplotype": [0, 1], "reads": [[0]], "gap_open": 0.9},
        {"haplotype": [0, 1], "reads": [[0]], "semiring": "nope"},
        {"haplotype": [0, 1], "reads": [[0]], "extra": 1},
    ])
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(InvalidRequest):
            execute(_req("pairhmm", payload))


class TestKalmanHandler:
    PAYLOAD = {"tracks": [[0.5, 0.6, 0.4], [1.0, 1.1, 0.9]]}

    def test_execute_matches_kernel(self):
        backend = _resolve_format("binary64")
        result = execute(_req("kalman", dict(self.PAYLOAD)))
        want = kalman_batch(self.PAYLOAD["tracks"], backend)
        assert result.values == [
            {"x": encode_value(backend, e.x),
             "p": encode_value(backend, e.p)} for e in want]
        assert result.stats["tracks"] == 2

    def test_constants_respected(self):
        backend = _resolve_format("binary64")
        payload = dict(self.PAYLOAD, a=0.8, r=1e-4)
        result = execute(_req("kalman", payload))
        from repro.workloads import KalmanParams
        want = kalman_batch(self.PAYLOAD["tracks"], backend,
                            params=KalmanParams(a=0.8, r=1e-4))
        assert result.values[0]["x"] == encode_value(backend, want[0].x)

    def test_coalesce_key_covers_constants(self):
        h = HANDLERS["kalman"]
        r1 = _req("kalman", dict(self.PAYLOAD))
        r2 = _req("kalman", {"tracks": [[2.0, 3.0, 4.0]]})
        r3 = _req("kalman", dict(self.PAYLOAD, r=1e-4))
        for r in (r1, r2, r3):
            h.validate(r)
        assert h.coalesce_key(r1) == h.coalesce_key(r2)
        assert h.coalesce_key(r1) != h.coalesce_key(r3)

    def test_coalesced_scatter_matches_solo(self):
        h = HANDLERS["kalman"]
        r1 = _req("kalman", {"tracks": [[0.5, 0.6]]})
        r2 = _req("kalman", {"tracks": [[1.5, 1.6], [2.5, 2.6]]})
        h.validate(r1), h.validate(r2)
        merged = h.run_batch([r1, r2])
        assert merged[0][0] == execute(r1).values
        assert merged[1][0] == execute(r2).values

    @pytest.mark.parametrize("payload", [
        {},                                        # no tracks
        {"tracks": []},                            # empty
        {"tracks": [[0.5], [0.5, 0.6]]},           # ragged
        {"tracks": [[0.0]]},                       # non-positive
        {"tracks": [[0.5]], "a": 2.0},             # a out of range
        {"tracks": [[0.5]], "r": -1.0},            # negative constant
        {"tracks": [[0.5]], "extra": 1},           # unknown field
    ])
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(InvalidRequest):
            execute(_req("kalman", payload))


class TestExoticFormats:
    @pytest.mark.parametrize("fmt", ("log", "posit(64,9)", "lns(12,50)"))
    def test_all_kinds_serve_every_format(self, fmt):
        for kind, payload in (
                ("viterbi", {"model": MODEL, "sequences": [[0, 1, 2]]}),
                ("pairhmm", {"haplotype": [0, 1, 2], "reads": [[0, 1]]}),
                ("kalman", {"tracks": [[0.5, 0.6]]})):
            result = execute(_req(kind, payload, fmt=fmt))
            assert len(result.values) == 1, (kind, fmt)


# ----------------------------------------------------------------------
# The row-kind contract, over all seven row kinds
# ----------------------------------------------------------------------
MODEL_B = {
    "transition": [[0.9, 0.1], [0.25, 0.75]],
    "emission": [[0.2, 0.2, 0.6], [0.7, 0.2, 0.1]],
    "initial": [0.15, 0.85],
    "observations": [2, 2, 0, 1, 1],
}

#: kind -> two payloads sharing one coalesce key, with 1 and 2+ rows.
ROW_PAIRS = {
    "forward": ({"models": [MODEL]}, {"models": [MODEL_B, MODEL]}),
    "pbd": ({"sites": [[0.1, 0.2, 0.3]], "k": 2},
            {"sites": [[0.5, 0.25, 0.125], [0.9, 0.05, 0.4]], "k": 2}),
    "op": ({"op": "div", "a": [0.3], "b": [0.7]},
           {"op": "div", "a": [1.5, 0.1, 3.0], "b": [0.2, 0.9, 1e-3]}),
    "astype": ({"to": "posit(16,1)", "values": [0.3]},
               {"to": "posit(16,1)", "values": [0.7, 1e-30]}),
    "viterbi": ({"model": MODEL, "sequences": [[0, 1, 2]]},
                {"model": MODEL, "sequences": [[2, 2, 0], [1, 0, 1]]}),
    "pairhmm": ({"haplotype": [0, 1, 2, 3], "reads": [[0, 1]]},
                {"haplotype": [0, 1, 2, 3], "reads": [[3, 3], [1, 2]]}),
    "kalman": ({"tracks": [[0.5, 0.6]]},
               {"tracks": [[1.5, 1.6], [2.5, 2.6]]}),
}

#: kind -> {field: another value}; each changes what the rows share.
#: ``forward`` rows share nothing but the format: models of any shapes
#: coalesce.
SHARED_FIELDS = {
    "pbd": {"k": 1, "sites": [[0.1, 0.2, 0.3, 0.4]]},
    "op": {"op": "mul"},
    "astype": {"to": "posit(32,2)"},
    "viterbi": {"model": dict(MODEL, initial=[0.5, 0.5]),
                "sequences": [[0, 1]]},
    "pairhmm": {"haplotype": [0, 1, 2, 2], "reads": [[0, 1, 2]],
                "gap_open": 0.2, "gap_extend": 0.05, "mismatch": 0.02,
                "semiring": "sum-product"},
    "kalman": {"tracks": [[0.5, 0.6, 0.7]], "a": 0.8, "q": 1e-3,
               "r": 1e-3, "x0": 0.1, "p0": 0.5},
}


def _row_stats(result):
    return {k: v for k, v in result.stats.items()
            if k not in ("batch_size", "coalesced")}


class TestRowKindContract:
    @pytest.mark.parametrize("fmt", ("binary64", "log", "posit(64,12)"))
    @pytest.mark.parametrize("kind", sorted(ROW_PAIRS))
    def test_coalesced_equals_solo(self, kind, fmt):
        h = handler_for(kind)
        requests = [_req(kind, p, fmt=fmt) for p in ROW_PAIRS[kind]]
        for r in requests:
            h.validate(r)
        assert h.coalesce_key(requests[0]) == h.coalesce_key(requests[1])
        merged = h.run_batch(requests)
        for payload, (values, stats) in zip(ROW_PAIRS[kind], merged):
            solo = execute(_req(kind, payload, fmt=fmt))
            assert values == solo.values
            assert stats == _row_stats(solo)

    @pytest.mark.parametrize("kind,field,value", [
        (kind, field, value) for kind, fields in SHARED_FIELDS.items()
        for field, value in fields.items()])
    def test_shared_field_changes_coalesce_key(self, kind, field, value):
        h = handler_for(kind)
        base = ROW_PAIRS[kind][0]
        r1, r2 = _req(kind, base), _req(kind, dict(base, **{field: value}))
        for r in (r1, r2):
            h.validate(r)
        assert h.coalesce_key(r1) != h.coalesce_key(r2)

    @pytest.mark.parametrize("kind", sorted(ROW_PAIRS))
    def test_format_changes_coalesce_key(self, kind):
        h = handler_for(kind)
        r1, r2 = (_req(kind, ROW_PAIRS[kind][0], fmt=fmt)
                  for fmt in ("binary64", "log"))
        for r in (r1, r2):
            h.validate(r)
        assert h.coalesce_key(r1) != h.coalesce_key(r2)


class TestModelProbabilities:
    """Every model probability must lie in [0, 1], for ``forward`` and
    ``viterbi`` alike, in every format."""

    @pytest.mark.parametrize("fmt", ("binary64", "log"))
    @pytest.mark.parametrize("bad", (-0.25, 1.5))
    @pytest.mark.parametrize("field", ("transition", "emission",
                                       "initial"))
    def test_out_of_range_rejected(self, field, bad, fmt):
        value = MODEL[field]
        value = [[bad] + value[0][1:]] + value[1:] \
            if isinstance(value[0], list) else [bad] + value[1:]
        model = dict(MODEL, **{field: value})
        for kind, payload in (("forward", {"models": [model]}),
                              ("viterbi", {"model": model})):
            with pytest.raises(InvalidRequest, match=rf"{field}.*\[0, 1\]"):
                execute(_req(kind, payload, fmt=fmt))

    def test_bounds_are_inclusive(self):
        model = dict(MODEL, initial=[1.0, 0.0])
        assert len(execute(_req("forward", {"models": [model]})).values) == 1
