"""``repro.service.api`` — the versioned, typed entry-layer contract.

Every way into the execution plane that crosses a process or module
boundary speaks the same three dataclasses:

* :class:`WorkloadRequest` — one unit of work: a ``kind`` (``forward``,
  ``pbd``, ``op``, ``astype``, ``viterbi``, ``pairhmm``, ``kalman``,
  ``experiment``), a registry format name, a kind-specific ``payload``
  dict, an optional
  :class:`~repro.engine.plan.ExecPlan`, and a scheduling ``priority``;
* :class:`WorkloadResult` — the per-request answer: exact wire-encoded
  values (see :func:`encode_value`), plus execution stats (coalesced
  batch size, wait time, cache hits);
* :class:`ErrorInfo` — a machine-readable failure with a stable
  ``code`` that maps back onto a :class:`ServiceError` subclass.

The server (:mod:`repro.service.server`), the client
(:mod:`repro.service.client`), and the :mod:`repro.experiments` CLI
runner all construct/consume *these objects* — there is no second
ad-hoc dispatch path.

All three types round-trip through ``to_json``/``from_json``.
Deserialization is *strict*: unknown fields raise a
:class:`ProtocolError` whose message names the schema version on both
sides (the api_redesign contract — a newer client must fail loudly, not
silently drop fields), and payloads tagged with a newer ``api_version``
are rejected outright.

**Exact value encoding.**  Numeric results cross the wire as the exact
BigFloat triple ``[sign, "<hex mantissa>", exponent]`` of the backend
value (every backend's ``to_bigfloat`` is exact), so bit-identity
between a coalesced and a solo execution can be asserted end to end —
a float rendering would destroy exactly the low-order bits the paper
is about.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from ..arith.backend import Backend
from ..bigfloat import BigFloat
from ..engine.plan import ExecPlan

#: Version of the service wire schema; bumped on incompatible changes.
API_VERSION = 1

#: The workload kinds the entry layer defines.  (The executable handler
#: table lives in :mod:`repro.service.workloads`; this tuple is the
#: *contract* side the api module validates against.)
WORKLOAD_KINDS = ("forward", "pbd", "op", "astype", "experiment",
                  "viterbi", "pairhmm", "kalman")


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class ServiceError(Exception):
    """A workload-level failure with a stable wire representation.

    Subclasses fix ``code`` (the machine-readable discriminator an
    :class:`ErrorInfo` carries) and ``http_status`` (what the server
    answers with).
    """

    code = "service-error"
    http_status = 500

    def __init__(self, message: str, *, details: Optional[dict] = None):
        super().__init__(message)
        self.details = dict(details or {})

    def to_error_info(self) -> "ErrorInfo":
        return ErrorInfo(code=self.code, message=str(self),
                         details=self.details)


class ProtocolError(ServiceError):
    """Malformed or incompatible request framing/fields (HTTP 400)."""

    code = "bad-request"
    http_status = 400


class UnknownKind(ProtocolError):
    """The request names a workload kind this build does not serve."""

    code = "unknown-kind"


class InvalidRequest(ProtocolError):
    """Well-formed request whose payload fails kind validation."""

    code = "invalid-request"


class Overloaded(ServiceError):
    """Backpressure: the bounded request queue is full (HTTP 429)."""

    code = "overloaded"
    http_status = 429


class ShuttingDown(ServiceError):
    """The server is stopping; in-flight requests are drained/failed."""

    code = "shutting-down"
    http_status = 503


class WorkloadFailed(ServiceError):
    """The kernel raised while executing an accepted request."""

    code = "workload-failed"
    http_status = 500


class DeadlineExceeded(ServiceError):
    """The request aged past its deadline while queued (HTTP 503).

    The scheduler sheds such entries *before* spending a kernel call
    on them — an answer nobody is still waiting for is pure waste.
    Safe to retry (nothing executed)."""

    code = "deadline-exceeded"
    http_status = 503


class TransportError(ServiceError):
    """Client-side transport failure: the connection dropped or timed
    out before a complete response arrived (never sent by a server).

    Safe to retry against this service: results are deterministic and
    the server dedupes on :meth:`WorkloadRequest.cache_identity`, so a
    retried request coalesces/dedupes rather than recomputing."""

    code = "transport-error"
    http_status = 503


#: code -> exception class, for rebuilding a typed error client-side.
ERROR_CODES = {cls.code: cls for cls in
               (ServiceError, ProtocolError, UnknownKind, InvalidRequest,
                Overloaded, ShuttingDown, WorkloadFailed,
                DeadlineExceeded, TransportError)}


def error_from_info(info: "ErrorInfo") -> ServiceError:
    """The :class:`ServiceError` (subclass) an :class:`ErrorInfo`
    describes — what the client raises on a non-2xx response."""
    cls = ERROR_CODES.get(info.code, ServiceError)
    return cls(info.message, details=info.details)


# ----------------------------------------------------------------------
# Strict (de)serialization helper
# ----------------------------------------------------------------------
def _strict_fields(cls, data, *, rename: str) -> dict:
    """``data`` narrowed to ``cls``'s dataclass fields, rejecting
    unknown keys and newer ``api_version`` tags with versioned
    :class:`ProtocolError` messages."""
    if not isinstance(data, dict):
        raise ProtocolError(
            f"{rename} (api v{API_VERSION}) must be a JSON object, "
            f"got {type(data).__name__}")
    data = dict(data)
    version = data.get("api_version", API_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) \
            or version < 1:
        raise ProtocolError(
            f"{rename}: api_version must be a positive integer, got "
            f"{version!r} (this build speaks api v{API_VERSION})")
    if version > API_VERSION:
        raise ProtocolError(
            f"{rename} carries api v{version}, newer than this build's "
            f"v{API_VERSION}; upgrade the server or send a "
            f"v{API_VERSION} request")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ProtocolError(
            f"{rename} (api v{API_VERSION}) does not define field(s) "
            f"{', '.join(map(repr, unknown))}; known fields: "
            f"{', '.join(sorted(known))}")
    return data


# ----------------------------------------------------------------------
# The three wire types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorInfo:
    """One failure, machine-readable: stable code + human message."""

    code: str
    message: str
    details: Dict[str, Any] = field(default_factory=dict)
    api_version: int = API_VERSION

    def to_json(self) -> dict:
        return {"api_version": self.api_version, "code": self.code,
                "message": self.message, "details": dict(self.details)}

    @classmethod
    def from_json(cls, data) -> "ErrorInfo":
        data = _strict_fields(cls, data, rename="ErrorInfo")
        if not isinstance(data.get("code"), str) or \
                not isinstance(data.get("message"), str):
            raise ProtocolError("ErrorInfo needs string 'code' and "
                                "'message' fields")
        details = data.get("details", {})
        if not isinstance(details, dict):
            raise ProtocolError("ErrorInfo 'details' must be an object")
        return cls(code=data["code"], message=data["message"],
                   details=details,
                   api_version=data.get("api_version", API_VERSION))


@dataclass(frozen=True)
class WorkloadRequest:
    """One unit of work submitted to the evaluation service.

    ``payload`` is kind-specific (validated by the handler in
    :mod:`repro.service.workloads`); ``format`` is a registry name
    (``"binary64"``, ``"posit(64,12)"``, ...), unused by the
    ``experiment`` kind; ``plan`` travels as ExecPlan JSON and governs
    cache policy (execution-plane results are plan-invariant by the
    registry's certification, so the *server's* plan runs the batch);
    ``priority`` orders ready microbatches (higher first).
    """

    kind: str
    payload: Dict[str, Any] = field(default_factory=dict)
    format: Optional[str] = None
    plan: Optional[ExecPlan] = None
    priority: int = 0
    request_id: Optional[str] = None
    api_version: int = API_VERSION

    def __post_init__(self):
        if not isinstance(self.kind, str) or not self.kind:
            raise InvalidRequest("request kind must be a non-empty string")
        if not isinstance(self.payload, dict):
            raise InvalidRequest("request payload must be a dict")
        if self.format is not None and not isinstance(self.format, str):
            raise InvalidRequest("request format must be a registry name "
                                 "string (or None)")
        if self.plan is not None and not isinstance(self.plan, ExecPlan):
            raise InvalidRequest("request plan must be an ExecPlan "
                                 "(or None)")
        if not isinstance(self.priority, int) or \
                isinstance(self.priority, bool):
            raise InvalidRequest("request priority must be an int")

    def to_json(self) -> dict:
        return {
            "api_version": self.api_version,
            "kind": self.kind,
            "format": self.format,
            "payload": self.payload,
            "plan": self.plan.to_json() if self.plan is not None else None,
            "priority": self.priority,
            "request_id": self.request_id,
        }

    @classmethod
    def from_json(cls, data) -> "WorkloadRequest":
        data = _strict_fields(cls, data, rename="WorkloadRequest")
        if "kind" not in data:
            raise ProtocolError(
                f"WorkloadRequest (api v{API_VERSION}) needs a 'kind' "
                f"field (one of: {', '.join(WORKLOAD_KINDS)})")
        plan = data.get("plan")
        if plan is not None and not isinstance(plan, ExecPlan):
            try:
                plan = ExecPlan.from_json(plan)
            except ValueError as exc:
                raise ProtocolError(f"WorkloadRequest plan invalid: "
                                    f"{exc}") from exc
        try:
            return cls(kind=data["kind"],
                       payload=data.get("payload") or {},
                       format=data.get("format"),
                       plan=plan,
                       priority=data.get("priority", 0),
                       request_id=data.get("request_id"),
                       api_version=data.get("api_version", API_VERSION))
        except TypeError as exc:
            raise ProtocolError(f"WorkloadRequest rejected: {exc}") from exc

    def cache_identity(self) -> dict:
        """The result-determining part of the request — what the
        ``.repro-cache`` dedupe keys on.  Excludes ``request_id``,
        ``priority`` and the plan's scheduling knobs: none of them may
        change a result (plan-invariance is the execution plane's
        certification).  ``plan.compiled`` stays part of the identity
        although it now selects nothing (plan-schema v2 still carries
        it): keeping the key shape means entries already written under
        ``.repro-cache/`` keep their keys."""
        return {"api_version": self.api_version, "kind": self.kind,
                "format": self.format, "payload": self.payload,
                "compiled": bool(self.plan.compiled)
                if self.plan is not None else False}


@dataclass(frozen=True)
class WorkloadResult:
    """The per-request answer: exact values + execution stats."""

    kind: str
    values: List[Any] = field(default_factory=list)
    request_id: Optional[str] = None
    stats: Dict[str, Any] = field(default_factory=dict)
    telemetry: Optional[Dict[str, Any]] = None
    api_version: int = API_VERSION

    def to_json(self) -> dict:
        return {
            "api_version": self.api_version,
            "kind": self.kind,
            "values": self.values,
            "request_id": self.request_id,
            "stats": self.stats,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_json(cls, data) -> "WorkloadResult":
        data = _strict_fields(cls, data, rename="WorkloadResult")
        if not isinstance(data.get("kind"), str):
            raise ProtocolError("WorkloadResult needs a string 'kind'")
        values = data.get("values", [])
        if not isinstance(values, list):
            raise ProtocolError("WorkloadResult 'values' must be a list")
        stats = data.get("stats", {})
        if not isinstance(stats, dict):
            raise ProtocolError("WorkloadResult 'stats' must be an object")
        telemetry = data.get("telemetry")
        if telemetry is not None and not isinstance(telemetry, dict):
            raise ProtocolError("WorkloadResult 'telemetry' must be an "
                                "object or null")
        return cls(kind=data["kind"], values=values,
                   request_id=data.get("request_id"), stats=stats,
                   telemetry=telemetry,
                   api_version=data.get("api_version", API_VERSION))

    def bigfloats(self) -> List[BigFloat]:
        """The numeric values decoded back to exact BigFloats."""
        return [decode_bigfloat(v) for v in self.values]


# ----------------------------------------------------------------------
# Exact numeric wire encoding
# ----------------------------------------------------------------------
def encode_bigfloat(x: BigFloat) -> list:
    """``[sign, "<hex mantissa>", exponent]`` — exact and compact even
    for oracle-precision mantissas."""
    return [x.sign, format(x.mantissa, "x"), x.exponent]


def decode_bigfloat(encoded) -> BigFloat:
    """Inverse of :func:`encode_bigfloat` (strict)."""
    if (not isinstance(encoded, (list, tuple)) or len(encoded) != 3
            or not isinstance(encoded[1], str)):
        raise ProtocolError(
            f"expected an exact value triple [sign, hex-mantissa, "
            f"exponent], got {encoded!r}")
    sign, mantissa_hex, exponent = encoded
    try:
        return BigFloat(int(sign), int(mantissa_hex, 16), int(exponent))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad value triple {encoded!r}: "
                            f"{exc}") from exc


def encode_value(backend: Backend, value) -> list:
    """One backend value in exact wire form (through ``to_bigfloat``,
    which is exact for every registered backend)."""
    return encode_bigfloat(backend.to_bigfloat(value))


__all__ = [
    "API_VERSION",
    "DeadlineExceeded",
    "ERROR_CODES",
    "TransportError",
    "WORKLOAD_KINDS",
    "ErrorInfo",
    "InvalidRequest",
    "Overloaded",
    "ProtocolError",
    "ServiceError",
    "ShuttingDown",
    "UnknownKind",
    "WorkloadFailed",
    "WorkloadRequest",
    "WorkloadResult",
    "decode_bigfloat",
    "encode_bigfloat",
    "encode_value",
    "error_from_info",
]
