"""Workload handlers: the executable side of the service contract.

A :class:`WorkloadHandler` per request ``kind`` **validates** a payload
(raising :class:`~repro.service.api.InvalidRequest` naming the field),
gives its **coalesce key** (equal keys within the scheduler's window run
as ONE batched kernel call; ``None``, for experiments, runs solo), and
**runs a batch**, scattering per-request results back in order.

Seven kinds are row batches — rows along one batch axis plus fields
every row shares — served by one :class:`RowBatchHandler` per
:class:`RowKind` row of :data:`ROW_KINDS`; ``experiment`` is bespoke.
The scatter is bit-identical to solo execution by guarantees the
execution plane already proves: ``forward`` runs
:func:`repro.apps.hmm.forward_models_batch`, exact per model,
``pbd``/``op``/``astype``/``kalman`` are elementwise across rows,
``viterbi``'s max/argmax decisions are exact in every format, and the
``pairhmm`` recurrence never mixes batch lanes.

:func:`execute` is the in-process single-request dispatcher the CLI
runner and the tests share with the server (whose scheduler calls
``run_batch`` directly).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry as _tele
from ..bigfloat import BigFloat
from ..engine.plan import ExecPlan, resolve_plan
from .api import (
    InvalidRequest,
    UnknownKind,
    WorkloadRequest,
    WorkloadResult,
    encode_bigfloat,
    encode_value,
)

#: ``(values, stats)`` for one request — what ``run_batch`` yields.
RequestOutput = Tuple[list, dict]


class WorkloadHandler:
    """Base class: one executable workload kind."""

    kind: str = ""

    def validate(self, request: WorkloadRequest) -> None:
        """Raise :class:`InvalidRequest` unless the payload is
        well-formed for this kind.  Called once, before queueing."""
        raise NotImplementedError

    def coalesce_key(self, request: WorkloadRequest) -> Optional[tuple]:
        """The microbatch identity of a *validated* request, or ``None``
        when the request must run solo."""
        return None

    def run_batch(self, requests: Sequence[WorkloadRequest],
                  plan: Optional[ExecPlan] = None) -> List[RequestOutput]:
        """Execute same-key requests as one kernel call; one
        ``(values, stats)`` per request, input order."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Payload parsing
# ----------------------------------------------------------------------
def _backend(format_name, where: str = "format"):
    """The shared scalar backend for a registry format name (shared so
    mirror memoization, LNS tables in particular, holds across
    requests)."""
    from ..nd.context import _default_backend
    if not isinstance(format_name, str) or not format_name:
        raise InvalidRequest(f"{where} must be a registry format name "
                             f"(e.g. \"binary64\", \"posit(64,12)\")")
    try:
        return _default_backend(format_name)
    except (KeyError, ValueError) as exc:
        raise InvalidRequest(f"{where}: {exc.args[0]}") from exc


def _known(payload: dict, where: str, *fields: str) -> None:
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise InvalidRequest(f"{where} has unknown field(s) "
                             f"{', '.join(unknown)}; known: "
                             f"{', '.join(fields)}")


def _number(value, where: str, domain=None) -> BigFloat:
    """One JSON number as an exact BigFloat operand; ``domain`` is an
    optional ``(test, description)`` the value must pass."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidRequest(f"{where} must be numbers, got "
                             f"{type(value).__name__}")
    if domain is not None and not domain[0](value):
        raise InvalidRequest(f"{where} must be {domain[1]}, got {value!r}")
    try:
        return BigFloat.from_float(float(value))
    except (OverflowError, ValueError) as exc:
        raise InvalidRequest(f"{where}: {exc}") from exc


_POSITIVE = (lambda v: v > 0.0, "positive")


def _probability(value, where: str) -> BigFloat:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0.0 <= value <= 1.0:
        raise InvalidRequest(f"{where} must be probabilities in [0, 1], "
                             f"got {value!r}")
    return BigFloat.from_float(float(value))


def _index(bound=math.inf):
    """An item parser for ints in ``[0, bound)``."""
    def item(value, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or \
                not 0 <= value < bound:
            raise InvalidRequest(f"{where} must be ints in [0, {bound})")
        return value
    return item


def _list(values, where: str, item, what: str = "numbers",
          index: bool = False) -> list:
    """A non-empty JSON list, each entry parsed by ``item(value, name)``
    (``name`` is ``where``, or ``where[i]`` with ``index``)."""
    if not isinstance(values, (list, tuple)) or not values:
        raise InvalidRequest(f"{where} must be a non-empty list of {what}")
    if index:
        return [item(v, f"{where}[{i}]") for i, v in enumerate(values)]
    return [item(v, where) for v in values]


def _rows(rows, where: str, item, what: str = "numbers") -> list:
    """A non-empty list of equal-length rows (each a :func:`_list`)."""
    out = _list(rows, where, lambda row, w: _list(row, w, item, what),
                "rows", index=True)
    if any(len(row) != len(out[0]) for row in out):
        raise InvalidRequest(f"{where} rows must share one length")
    return out


def _constants(payload: dict, kind: str, domains: dict) -> dict:
    """The optional float constants of ``domains`` (name -> a
    :func:`_number` domain) that ``payload`` sets."""
    out = {}
    for name, domain in domains.items():
        if name in payload:
            _number(payload[name], f"{kind} {name}", domain)
            out[name] = float(payload[name])
    return out


@dataclass(frozen=True)
class RowKind:
    """One row-batched request kind, as data: ``rows`` names a row (the
    stats key); ``parse(payload) -> (key, shared, rows)`` validates a
    payload, ``key`` holding every field the rows share (so equal keys
    mean one kernel call serves both requests), ``shared`` those fields
    parsed and ``rows`` the batch-axis items;
    ``kernel(shared, rows, backend, plan)`` gives one result per row and
    ``encode(backend, result)`` puts one on the wire."""

    kind: str
    rows: str
    parse: Callable[[dict], Tuple[tuple, Any, list]]
    kernel: Callable[..., Sequence]
    encode: Callable[[Any, Any], Any] = encode_value


class RowBatchHandler(WorkloadHandler):
    """Serves one :class:`RowKind`: parse once, coalesce by
    ``(kind, format, *key)``, concatenate rows, one kernel call,
    scatter by row counts, encode."""

    def __init__(self, spec: RowKind):
        self.spec = spec
        self.kind = spec.kind

    def _parsed(self, request: WorkloadRequest):
        """``(key, shared, rows)``, parsed once and stashed on the
        (frozen) request: validation, the coalesce key and the batch all
        read it, and under load a triple parse outcosts the kernel."""
        parsed = request.__dict__.get("_parsed")
        if parsed is None:
            _backend(request.format)
            parsed = self.spec.parse(request.payload)
            object.__setattr__(request, "_parsed", parsed)
        return parsed

    def validate(self, request: WorkloadRequest) -> None:
        self._parsed(request)

    def coalesce_key(self, request: WorkloadRequest) -> tuple:
        return (self.kind, request.format, *self._parsed(request)[0])

    def run_batch(self, requests, plan=None) -> List[RequestOutput]:
        # Same-key requests share every field outside their rows, so the
        # first request's parsed shared fields serve the whole batch.
        plan = resolve_plan(plan, where=f"{self.kind} run_batch")
        parsed = [self._parsed(r) for r in requests]
        flat = [row for _, _, rows in parsed for row in rows]
        backend = _backend(requests[0].format)
        _tele.count(f"service.{self.kind}.{self.spec.rows}", len(flat))
        results = self.spec.kernel(parsed[0][1], flat, backend, plan)
        out: List[RequestOutput] = []
        lo = 0
        for _, _, rows in parsed:
            hi = lo + len(rows)
            values = [self.spec.encode(backend, r) for r in results[lo:hi]]
            out.append((values, {self.spec.rows: len(rows)}))
            lo = hi
        return out


# perfbench/svc.py's traced phase wraps ForwardHandler.validate/run_batch.
ForwardHandler = RowBatchHandler


# ----------------------------------------------------------------------
# The seven row kinds
# ----------------------------------------------------------------------
_MODEL_FIELDS = ("transition", "emission", "initial", "observations")


def _model_from_json(model, where: str):
    """One JSON model object as an exact :class:`HMMData`: probability
    matrices ``transition``/``emission``/``initial`` and an integer
    ``observations`` sequence."""
    from ..data.dirichlet import HMMData
    if not isinstance(model, dict):
        raise InvalidRequest(f"{where} must be an object with "
                             f"{', '.join(map(repr, _MODEL_FIELDS))}")
    _known(model, where, *_MODEL_FIELDS)
    missing = [k for k in _MODEL_FIELDS if k not in model]
    if missing:
        raise InvalidRequest(f"{where} is missing field(s) "
                             f"{', '.join(missing)}")
    transition, emission = (_rows(model[k], f"{where}.{k}", _probability)
                            for k in ("transition", "emission"))
    initial = _list(model["initial"], f"{where}.initial", _probability)
    if not len(transition) == len(transition[0]) == len(emission) \
            == len(initial):
        raise InvalidRequest(f"{where}: transition must be (H, H) with "
                             f"emission (H, M) and initial (H,)")
    observations = _list(model["observations"], f"{where}.observations",
                         _index(len(emission[0])), "symbol indices")
    return HMMData(tuple(map(tuple, transition)),
                   tuple(map(tuple, emission)), tuple(initial),
                   tuple(observations))


def _parse_forward(payload):
    """``{"models": [<model>, ...]}``: one likelihood per model.  Models
    of any shapes coalesce, by format alone."""
    _known(payload, "forward payload", "models")
    return (), None, _list(payload.get("models"), "models",
                           _model_from_json, "model objects", index=True)


def _forward_kernel(_shared, models, backend, plan):
    from ..apps.hmm import forward_models_batch
    return forward_models_batch(models, backend, plan)


def _parse_pbd(payload):
    """``{"sites": [[p, ...], ...], "k": K}``: P(X >= k) per row of
    success probabilities.  Coalesces by ``(n_trials, k)``."""
    _known(payload, "pbd payload", "sites", "k")
    k = payload.get("k")
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise InvalidRequest("pbd payload needs an integer k >= 1")
    sites = _rows(payload.get("sites"), "sites", _probability)
    if len(sites[0]) < k:
        raise InvalidRequest(f"sites need at least k={k} trials, got "
                             f"{len(sites[0])}")
    return (len(sites[0]), k), k, sites


def _pbd_kernel(k, sites, backend, plan):
    from ..apps.pbd import pbd_pvalue_batch
    return pbd_pvalue_batch(sites, k, backend, plan)


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "div": operator.truediv}


def _parse_op(payload):
    """``{"op": "add"|"sub"|"mul"|"div", "a": [...], "b": [...]}``.
    Coalesces by ``op`` alone, whatever the vector lengths."""
    _known(payload, "op payload", "op", "a", "b")
    op = payload.get("op")
    if not isinstance(op, str) or op not in _OPS:
        raise InvalidRequest(f"op payload needs 'op' in {tuple(_OPS)}, "
                             f"got {op!r}")
    a, b = (_list(payload.get(name), name, _number) for name in "ab")
    if len(a) != len(b):
        raise InvalidRequest(f"op operands must pair up: len(a)="
                             f"{len(a)} vs len(b)={len(b)}")
    return (op,), op, list(zip(a, b))


def _op_kernel(op, pairs, backend, plan):
    from .. import nd
    a, b = (nd.asarray([pair[i] for pair in pairs], backend, plan=plan)
            for i in (0, 1))
    result = _OPS[op](a, b)
    return [result.item(i) for i in range(result.size)]


def _parse_astype(payload):
    """``{"to": "<format>", "values": [...]}``: values rounded from the
    request format into ``to``.  Coalesces by ``to``."""
    _known(payload, "astype payload", "to", "values")
    target = _backend(payload.get("to"), where="astype 'to'")
    values = _list(payload.get("values"), "values", _number)
    return (payload["to"],), target, values


def _astype_kernel(target, values, backend, plan):
    from .. import nd
    src = nd.asarray(values, backend, plan=plan)
    return src.astype(target, plan=plan).to_bigfloats()


def _parse_viterbi(payload):
    """``{"model": <model>, "sequences": [[...], ...]}``: the most
    probable state path per sequence (default: ``observations``)."""
    _known(payload, "viterbi payload", "model", "sequences")
    hmm = _model_from_json(payload.get("model"), "model")
    seqs = payload.get("sequences")
    seqs = [list(hmm.observations)] if seqs is None else \
        _rows(seqs, "sequences", _index(hmm.n_symbols), "ints")
    model = json.dumps(payload["model"], sort_keys=True,
                       separators=(",", ":"))
    return (model, len(seqs[0])), hmm, seqs


def _viterbi_kernel(hmm, seqs, backend, plan):
    from ..workloads.viterbi import viterbi_batch
    return viterbi_batch(hmm, backend, seqs, plan=plan)


_PAIRHMM_CONSTANTS = dict.fromkeys(("gap_open", "gap_extend", "mismatch"),
                                   (lambda v: 0.0 < v < 0.5, "in (0, 0.5)"))


def _parse_pairhmm(payload):
    """``{"haplotype": [...], "reads": [[...], ...]}`` plus optional
    constants and ``semiring``: one likelihood per read."""
    from ..workloads.pairhmm import PairHMMParams
    from ..workloads.semiring import SEMIRINGS
    _known(payload, "pairhmm payload", "haplotype", "reads", "semiring",
           *_PAIRHMM_CONSTANTS)
    hap = tuple(_list(payload.get("haplotype"), "haplotype", _index(),
                      "ints"))
    reads = _rows(payload.get("reads"), "reads", _index(), "ints")
    params = PairHMMParams(**_constants(payload, "pairhmm",
                                        _PAIRHMM_CONSTANTS))
    semiring = payload.get("semiring", "pairhmm-max")
    if not isinstance(semiring, str) or semiring not in SEMIRINGS:
        raise InvalidRequest(f"unknown semiring {semiring!r} "
                             f"(one of {sorted(SEMIRINGS)})")
    return ((hap, len(reads[0]), params, semiring),
            (hap, params, semiring), reads)


def _pairhmm_kernel(shared, reads, backend, plan):
    from ..workloads.pairhmm import pairhmm_batch
    hap, params, semiring = shared
    return pairhmm_batch(hap, reads, backend, params=params, plan=plan,
                         semiring=semiring)


_KALMAN_CONSTANTS = {"a": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
                     **dict.fromkeys(("q", "r", "x0", "p0"), _POSITIVE)}


def _measurement(value, where: str) -> float:
    _number(value, where, _POSITIVE)
    return float(value)


def _parse_kalman(payload):
    """``{"tracks": [[z, ...], ...]}`` plus optional filter constants:
    the final estimate and variance per track."""
    from ..workloads.kalman import KalmanParams
    _known(payload, "kalman payload", "tracks", *_KALMAN_CONSTANTS)
    tracks = _rows(payload.get("tracks"), "tracks", _measurement)
    params = KalmanParams(**_constants(payload, "kalman",
                                       _KALMAN_CONSTANTS))
    return (len(tracks[0]), params), params, tracks


def _kalman_kernel(params, tracks, backend, plan):
    from ..workloads.kalman import kalman_batch
    return kalman_batch(tracks, backend, params=params, plan=plan)


#: The seven row-batched kinds, in dispatch-table order.
ROW_KINDS: Tuple[RowKind, ...] = (
    RowKind("forward", "models", _parse_forward, _forward_kernel),
    RowKind("pbd", "sites", _parse_pbd, _pbd_kernel),
    RowKind("op", "elements", _parse_op, _op_kernel),
    RowKind("astype", "elements", _parse_astype, _astype_kernel,
            lambda _, bf: encode_bigfloat(bf)),
    RowKind("viterbi", "sequences", _parse_viterbi, _viterbi_kernel,
            lambda backend, d: {"score": encode_value(backend, d.score),
                                "path": d.states()}),
    RowKind("pairhmm", "reads", _parse_pairhmm, _pairhmm_kernel),
    RowKind("kalman", "tracks", _parse_kalman, _kalman_kernel,
            lambda backend, e: {"x": encode_value(backend, e.x),
                                "p": encode_value(backend, e.p)}),
)


# ----------------------------------------------------------------------
# experiment — the CLI runner's figures/tables, as service requests
# ----------------------------------------------------------------------
class ExperimentHandler(WorkloadHandler):
    """``experiment``: one registered figure/table experiment.

    Payload: ``{"experiment_id": ..., "scale": ..., "out_dir": ...,
    "use_cache": ..., "cache_dir": ..., "refresh": ...}`` (all but the
    id optional).  Never coalesces — experiments are coarse-grained and
    internally batched already.  ``values`` holds the rendered report;
    ``stats["cached"]`` says whether the ``.repro-cache`` served it.
    """

    kind = "experiment"

    def validate(self, request: WorkloadRequest) -> None:
        from ..experiments.runner import REGISTRY as EXPERIMENTS
        payload = request.payload
        _known(payload, "experiment payload", "experiment_id", "scale",
               "out_dir", "use_cache", "cache_dir", "refresh")
        experiment_id = payload.get("experiment_id")
        if not isinstance(experiment_id, str) or \
                experiment_id not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise InvalidRequest(f"unknown experiment "
                                 f"{experiment_id!r}; known: {known}")
        scale = payload.get("scale", "bench")
        if scale not in ("test", "bench", "full"):
            raise InvalidRequest(f"experiment scale must be 'test', "
                                 f"'bench' or 'full', got {scale!r}")
        for name in ("out_dir", "cache_dir"):
            value = payload.get(name)
            if value is not None and not (isinstance(value, str) and value):
                raise InvalidRequest(f"experiment {name} must be a path "
                                     f"or null, got {value!r}")
        for name in ("use_cache", "refresh"):
            if not isinstance(payload.get(name, False), bool):
                raise InvalidRequest(f"experiment {name} must be true or "
                                     f"false, got {payload[name]!r}")

    def run_batch(self, requests, plan=None) -> List[RequestOutput]:
        from ..experiments.runner import _run_experiment
        out: List[RequestOutput] = []
        for request in requests:
            payload = request.payload
            run_plan = resolve_plan(request.plan if request.plan is not None
                                    else plan,
                                    where="ExperimentHandler.run_batch")
            text, hit = _run_experiment(
                payload["experiment_id"],
                scale=payload.get("scale", "bench"),
                out_dir=payload.get("out_dir"),
                plan=run_plan,
                use_cache=payload.get("use_cache", True),
                cache_dir=payload.get("cache_dir"),
                refresh=payload.get("refresh", False))
            out.append(([text], {"cached": hit}))
        return out


HANDLERS: Dict[str, WorkloadHandler] = {
    **{spec.kind: RowBatchHandler(spec) for spec in ROW_KINDS},
    "experiment": ExperimentHandler(),
}


def handler_for(kind: str) -> WorkloadHandler:
    """The handler serving ``kind`` (:class:`UnknownKind` otherwise)."""
    try:
        return HANDLERS[kind]
    except KeyError:
        known = ", ".join(sorted(HANDLERS))
        raise UnknownKind(f"unknown workload kind {kind!r}; this build "
                          f"serves: {known}") from None


def execute(request: WorkloadRequest,
            plan: Optional[ExecPlan] = None) -> WorkloadResult:
    """Run one request in-process — the solo (batch-of-one) path the
    CLI runner and the tests take, sharing every line of workload code
    below the scatter/gather with a coalesced batch."""
    handler = handler_for(request.kind)
    handler.validate(request)
    plan = request.plan if request.plan is not None else plan
    with _tele.span(f"service.execute.{request.kind}"):
        _tele.count(f"service.requests.{request.kind}")
        (values, stats), = handler.run_batch([request], plan=plan)
    stats = dict(stats, batch_size=1, coalesced=False)
    return WorkloadResult(kind=request.kind, values=values,
                          request_id=request.request_id, stats=stats)


__all__ = [
    "HANDLERS",
    "ROW_KINDS",
    "ExperimentHandler",
    "RowBatchHandler",
    "RowKind",
    "WorkloadHandler",
    "execute",
    "handler_for",
]
