"""``repro.service`` — arithmetic-as-a-service over the execution plane.

The ROADMAP's serving tier: a stdlib-only asyncio evaluation server
(:class:`EvalServer`) that accepts typed workload requests — HMM
forwards, PBD p-values, elementwise op sweeps, ``astype`` conversions,
Viterbi paths, pair-HMM alignments, Kalman tracks, registered
experiments — from many concurrent clients and *coalesces* requests of
one kind, format and shared fields (``forward`` models of any shapes)
into single batched kernel calls, so the measured 11-37x batch
speedups collapse per-request cost under load.

Layers (each its own module):

* :mod:`repro.service.api` — the versioned, typed request/response
  contract (``WorkloadRequest``/``WorkloadResult``/``ErrorInfo`` with
  strict ``to_json``/``from_json``) and the exact BigFloat value codec;
* :mod:`repro.service.workloads` — the ``ROW_KINDS`` table: one
  ``RowKind`` per row-batched kind (payload parser, batched kernel,
  result encoder) drives one shared handler that validates, keys
  coalescing and scatters bit-identically; ``experiment`` keeps its own
  handler.  :func:`execute` is the in-process single-request dispatcher
  the CLI runner shares with the server;
* :mod:`repro.service.scheduler` — the :class:`Microbatcher`: hold
  windows, flush-on-full, priorities, bounded-queue backpressure;
* :mod:`repro.service.server` / :mod:`repro.service.client` — HTTP/JSON
  over asyncio streams, both ends;
* :mod:`repro.service.loadgen` — the synthetic closed-loop load
  harness behind ``BENCH_service.json``.

Quickstart::

    PYTHONPATH=src python -m repro.service serve --port 8421
    PYTHONPATH=src python -m repro.service ping --port 8421
    PYTHONPATH=src python -m repro.service loadtest
"""

from .api import (
    API_VERSION,
    DeadlineExceeded,
    ErrorInfo,
    InvalidRequest,
    Overloaded,
    ProtocolError,
    ServiceError,
    ShuttingDown,
    TransportError,
    UnknownKind,
    WorkloadFailed,
    WorkloadRequest,
    WorkloadResult,
)
from .client import ServiceClient, call
from .scheduler import Microbatcher
from .server import EvalServer
from .workloads import execute, handler_for

__all__ = [
    "API_VERSION",
    "DeadlineExceeded",
    "ErrorInfo",
    "EvalServer",
    "InvalidRequest",
    "Microbatcher",
    "Overloaded",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ShuttingDown",
    "TransportError",
    "UnknownKind",
    "WorkloadFailed",
    "WorkloadRequest",
    "WorkloadResult",
    "call",
    "execute",
    "handler_for",
]
