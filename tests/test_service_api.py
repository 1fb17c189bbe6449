"""The typed service contract: round-trips, strict versioned rejection,
plans travelling inside requests, and the exact value codec."""

import json

import pytest

from repro.bigfloat import BigFloat
from repro.engine.plan import PLAN_SCHEMA_VERSION, ExecPlan
from repro.service.api import (
    API_VERSION,
    ErrorInfo,
    InvalidRequest,
    Overloaded,
    ProtocolError,
    ServiceError,
    UnknownKind,
    WorkloadFailed,
    WorkloadRequest,
    WorkloadResult,
    decode_bigfloat,
    encode_bigfloat,
    encode_value,
    error_from_info,
)


class TestRequestRoundTrip:
    def test_round_trip_preserves_everything(self):
        request = WorkloadRequest(
            kind="forward", payload={"models": [{"x": 1}]},
            format="posit(64,12)", plan=ExecPlan(n_workers=8),
            priority=3, request_id="r-17")
        wire = json.loads(json.dumps(request.to_json()))
        back = WorkloadRequest.from_json(wire)
        assert back == request
        assert back.plan == ExecPlan(n_workers=8)

    def test_defaults_round_trip(self):
        request = WorkloadRequest(kind="pbd")
        back = WorkloadRequest.from_json(request.to_json())
        assert back == request
        assert back.api_version == API_VERSION
        assert back.plan is None and back.priority == 0

    def test_unknown_field_rejected_with_versions(self):
        with pytest.raises(ProtocolError, match=f"api v{API_VERSION}"):
            WorkloadRequest.from_json({"kind": "forward",
                                       "coalesce_hint": True})
        with pytest.raises(ProtocolError, match="coalesce_hint"):
            WorkloadRequest.from_json({"kind": "forward",
                                       "coalesce_hint": True})

    def test_newer_api_version_rejected(self):
        with pytest.raises(ProtocolError,
                           match=f"newer than this build's v{API_VERSION}"):
            WorkloadRequest.from_json({"kind": "forward",
                                       "api_version": API_VERSION + 1})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            WorkloadRequest.from_json(["forward"])

    def test_missing_kind_rejected(self):
        with pytest.raises(ProtocolError, match="kind"):
            WorkloadRequest.from_json({"payload": {}})

    def test_invalid_priority_rejected(self):
        with pytest.raises(InvalidRequest):
            WorkloadRequest(kind="op", priority="high")

    def test_invalid_plan_type_rejected(self):
        with pytest.raises(InvalidRequest):
            WorkloadRequest(kind="op", plan={"batch": True})


class TestPlanTravel:
    """Satellite: ExecPlan JSON rides inside requests."""

    def test_plan_json_embedded(self):
        plan = ExecPlan(batch=False, n_workers=7, cache="refresh")
        wire = WorkloadRequest(kind="op", plan=plan).to_json()
        assert wire["plan"]["plan_version"] == PLAN_SCHEMA_VERSION
        assert WorkloadRequest.from_json(wire).plan == plan

    def test_bad_plan_is_a_protocol_error(self):
        wire = WorkloadRequest(kind="op").to_json()
        wire["plan"] = {"warp_speed": 9}
        with pytest.raises(ProtocolError, match="warp_speed"):
            WorkloadRequest.from_json(wire)

    def test_newer_plan_schema_names_both_versions(self):
        wire = WorkloadRequest(kind="op").to_json()
        wire["plan"] = {"plan_version": PLAN_SCHEMA_VERSION + 1}
        with pytest.raises(ProtocolError,
                           match=f"v{PLAN_SCHEMA_VERSION + 1}"):
            WorkloadRequest.from_json(wire)


class TestResultRoundTrip:
    def test_round_trip(self):
        result = WorkloadResult(kind="forward", values=[[0, "a", -3]],
                                request_id="r", stats={"batch_size": 4},
                                telemetry={"counters": {}})
        back = WorkloadResult.from_json(
            json.loads(json.dumps(result.to_json())))
        assert back == result

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="vibes"):
            WorkloadResult.from_json({"kind": "forward", "vibes": 1})

    def test_bigfloats_decodes_values(self):
        bf = BigFloat.from_float(0.8125)
        result = WorkloadResult(kind="op", values=[encode_bigfloat(bf)])
        assert result.bigfloats() == [bf]


class TestErrorInfo:
    def test_round_trip_and_mapping(self):
        for cls in (ProtocolError, UnknownKind, InvalidRequest,
                    Overloaded, WorkloadFailed, ServiceError):
            info = cls("boom", details={"hint": "x"}).to_error_info()
            back = ErrorInfo.from_json(info.to_json())
            rebuilt = error_from_info(back)
            assert type(rebuilt) is cls
            assert str(rebuilt) == "boom"
            assert rebuilt.details == {"hint": "x"}

    def test_unknown_code_degrades_to_base(self):
        info = ErrorInfo(code="not-a-real-code", message="m")
        assert type(error_from_info(info)) is ServiceError

    def test_http_statuses(self):
        assert ProtocolError("x").http_status == 400
        assert Overloaded("x").http_status == 429
        assert WorkloadFailed("x").http_status == 500

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="severity"):
            ErrorInfo.from_json({"code": "c", "message": "m",
                                 "severity": 11})


class TestValueCodec:
    """The wire form is the exact BigFloat triple — no float rounding."""

    def test_round_trip_exact(self):
        for v in (0.0, 1.0, 0.3, 2.0 ** -1074, -1.5e300):
            bf = BigFloat.from_float(v)
            assert decode_bigfloat(encode_bigfloat(bf)) == bf

    def test_huge_exponent_survives(self):
        tiny = BigFloat.from_float(0.75).mul_pow2(-3_000_000)
        wire = json.loads(json.dumps(encode_bigfloat(tiny)))
        assert decode_bigfloat(wire) == tiny

    def test_encode_value_goes_through_backend(self):
        from repro.arith.backends import Binary64Backend
        backend = Binary64Backend()
        wire = encode_value(backend, backend.from_bigfloat(
            BigFloat.from_float(0.5)))
        assert decode_bigfloat(wire) == BigFloat.from_float(0.5)

    def test_malformed_triples_rejected(self):
        for bad in ([], [0, "a"], [0, 10, -3], "0xa", None):
            with pytest.raises(ProtocolError):
                decode_bigfloat(bad)


class TestCacheIdentity:
    def test_scheduling_fields_excluded(self):
        base = dict(kind="op", payload={"op": "add", "a": [1], "b": [2]},
                    format="binary64")
        a = WorkloadRequest(priority=5, request_id="x",
                            plan=ExecPlan(batch=False, n_workers=2), **base)
        b = WorkloadRequest(**base)
        assert a.cache_identity() == b.cache_identity()

    def test_payload_included(self):
        a = WorkloadRequest(kind="op", payload={"op": "add"},
                            format="binary64")
        b = WorkloadRequest(kind="op", payload={"op": "mul"},
                            format="binary64")
        assert a.cache_identity() != b.cache_identity()

