"""The microbatch scheduler: cross-request coalescing with backpressure.

The throughput story of the whole service lives here.  The execution
plane's batch mirrors are 11-37x faster than per-element scalar loops
(BENCH_batch.json / BENCH_apps.json), but a request carries one model
or a handful of sites — far too little work to amortize a kernel
dispatch.  The :class:`Microbatcher` closes that gap: requests whose
handler reports the same **coalesce key** (same kind, format and shared
fields — any model or sequence shapes for ``forward``) and that arrive
within one ``window_s`` hold window are gathered into one
group and executed as ONE ``run_batch`` call, so N concurrent clients
pay roughly one kernel dispatch between them.

Scheduling rules:

* a group flushes when it reaches ``max_batch`` requests (flush-on-full,
  which also makes tests deterministic) or when its window timer fires,
  whichever is first;
* requests whose key is ``None`` (experiments) bypass coalescing
  entirely — a singleton group goes straight to the ready heap;
* ready groups are drained in **priority order** (highest request
  priority in the group first, FIFO within a priority);
* admission is bounded: once ``max_queue`` requests are in flight,
  :meth:`submit` raises :class:`~repro.service.api.Overloaded` — the
  429 path.  Load-shedding at admission keeps the hold window honest
  (queueing more than we can drain would stretch every latency);
* with a ``deadline_s``, members that aged past it while queued are
  shed with :class:`~repro.service.api.DeadlineExceeded` (503) at
  drain time, *before* the group's kernel call — an answer nobody is
  still waiting for is pure waste.

Execution happens in a thread-pool executor so the event loop keeps
accepting requests mid-kernel.  ``loop.run_in_executor`` does *not*
propagate contextvars, so the executor thread enters its own
``telemetry.collect(collector=child)`` scope explicitly and the child
is merged into the server-level collector back on the loop — the same
picklable-merge contract the multi-process sweep runner uses.

If a *coalesced* batch raises, every member request is retried solo:
one malformed-at-runtime request must not poison its batchmates.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from typing import List, Optional

from .. import faults as _faults
from .. import telemetry as _tele
from ..engine.plan import ExecPlan
from ..telemetry import Collector
from .api import (
    DeadlineExceeded,
    Overloaded,
    ServiceError,
    ShuttingDown,
    WorkloadFailed,
)
from .workloads import WorkloadHandler, WorkloadRequest


class _Group:
    """One pending/ready microbatch: same handler, same coalesce key."""

    __slots__ = ("handler", "requests", "futures", "submitted_at",
                 "timer", "generation")

    def __init__(self, handler: WorkloadHandler):
        self.handler = handler
        self.requests: List[WorkloadRequest] = []
        self.futures: List[asyncio.Future] = []
        self.submitted_at: List[float] = []
        self.timer = None
        self.generation = 0

    @property
    def priority(self) -> int:
        return max(r.priority for r in self.requests)


class Microbatcher:
    """Coalesce, prioritize, bound, and execute workload requests.

    ``window_s`` — how long the first request of a group waits for
    batchmates; ``max_batch`` — flush-on-full group size (``1``
    disables coalescing: the baseline configuration the load harness
    measures against); ``max_queue`` — admission bound on in-flight
    requests; ``plan`` — the server's
    :class:`ExecPlan` for kernel calls; ``collector`` — the server
    collector that per-batch telemetry children merge into.
    """

    def __init__(self, *, window_s: float = 0.002, max_batch: int = 64,
                 max_queue: int = 1024,
                 plan: Optional[ExecPlan] = None,
                 collector: Optional[Collector] = None,
                 deadline_s: Optional[float] = None):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.deadline_s = deadline_s
        self.window_s = window_s
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.plan = plan
        self.collector = collector
        self._pending: dict = {}          # coalesce key -> _Group
        self._ready: list = []            # heap of (-priority, seq, group)
        self._seq = 0
        self._in_flight = 0
        self._woken: Optional[asyncio.Event] = None
        self._drainer: Optional[asyncio.Task] = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def submit(self, handler: WorkloadHandler,
                     request: WorkloadRequest) -> tuple:
        """Queue one *validated* request; returns its ``(values, stats)``
        once its group has executed.  Raises :class:`Overloaded` at the
        admission bound and :class:`ShuttingDown` during drain."""
        self._ensure_drainer()
        if self._stopping:
            raise ShuttingDown("scheduler is stopping")
        if self._in_flight >= self.max_queue:
            if self.collector is not None:
                self.collector.count("service.rejected")
            raise Overloaded(
                f"request queue is full ({self.max_queue} in flight); "
                f"retry with backoff")
        self._in_flight += 1
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        try:
            self._enqueue(handler, request, future, loop)
        except BaseException:
            self._in_flight -= 1
            raise
        try:
            return await future
        finally:
            self._in_flight -= 1

    def _enqueue(self, handler, request, future, loop) -> None:
        key = handler.coalesce_key(request)
        now = time.perf_counter()
        if key is None or self.max_batch == 1 or self.window_s == 0:
            group = _Group(handler)
            group.requests.append(request)
            group.futures.append(future)
            group.submitted_at.append(now)
            self._push_ready(group)
            return
        group = self._pending.get(key)
        if group is None:
            group = _Group(handler)
            self._pending[key] = group
            generation = group.generation
            group.timer = loop.call_later(
                self.window_s, self._flush_window, key, generation)
        group.requests.append(request)
        group.futures.append(future)
        group.submitted_at.append(now)
        if len(group.requests) >= self.max_batch:
            self._flush_now(key, group)

    def _flush_window(self, key, generation) -> None:
        group = self._pending.get(key)
        if group is None or group.generation != generation:
            return  # already flushed-on-full; a newer group owns the key
        self._flush_now(key, group)

    def _flush_now(self, key, group: "_Group") -> None:
        if group.timer is not None:
            group.timer.cancel()
            group.timer = None
        del self._pending[key]
        group.generation += 1
        self._push_ready(group)

    def _push_ready(self, group: "_Group") -> None:
        heapq.heappush(self._ready, (-group.priority, self._seq, group))
        self._seq += 1
        if self._woken is not None:
            self._woken.set()

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _ensure_drainer(self) -> None:
        """Start the one drain task, which executes the ready groups
        strictly in priority order."""
        if self._drainer is not None or self._stopping:
            return
        self._woken = asyncio.Event()
        self._drainer = asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        while True:
            while not self._ready:
                self._woken.clear()
                await self._woken.wait()
            _neg_priority, _seq, group = heapq.heappop(self._ready)
            await self._execute(group)

    def _shed_expired(self, group: "_Group", now: float) -> "_Group":
        """Drop members whose queue wait exceeded the deadline —
        answered 503 *before* a kernel call is spent on them.

        Returns the group of survivors (possibly empty).  Server-side
        deadline enforcement complements the client's per-request
        deadline: a stalled batch ahead in the queue (the
        ``service.batch`` site's ``delay`` mode) ages everything
        behind it, and work nobody is waiting for anymore is waste.
        """
        if self.deadline_s is None:
            return group
        survivors = _Group(group.handler)
        for request, future, t0 in zip(group.requests, group.futures,
                                       group.submitted_at):
            if now - t0 > self.deadline_s:
                if self.collector is not None:
                    self.collector.count("service.shed")
                if not future.done():
                    future.set_exception(DeadlineExceeded(
                        f"request waited {now - t0:.3f}s in queue, past "
                        f"the {self.deadline_s}s deadline; shed unrun"))
            else:
                survivors.requests.append(request)
                survivors.futures.append(future)
                survivors.submitted_at.append(t0)
        return survivors

    async def _execute(self, group: "_Group") -> None:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        group = self._shed_expired(group, started)
        if not group.requests:
            return
        child = Collector()
        try:
            outputs = await loop.run_in_executor(
                None, self._run_batch_in_thread, group, child)
        except ServiceError as exc:
            self._fail_group(group, exc)
            return
        except Exception as exc:
            if len(group.requests) > 1:
                # One request's runtime failure must not poison its
                # batchmates: fall back to solo execution per member.
                await self._execute_solo(group, child)
                self._merge(child, group, started)
                return
            self._fail_group(group, WorkloadFailed(
                f"{group.requests[0].kind} workload raised "
                f"{type(exc).__name__}: {exc}"))
            self._merge(child, group, started)
            return
        self._merge(child, group, started)
        n = len(group.requests)
        for i, future in enumerate(group.futures):
            if future.done():
                continue
            values, stats = outputs[i]
            stats = dict(stats, batch_size=n, coalesced=n > 1,
                         wait_ms=(started - group.submitted_at[i]) * 1e3)
            future.set_result((values, stats))

    def _run_batch_in_thread(self, group: "_Group", child: Collector):
        # Executor threads do not inherit the loop's contextvars, so the
        # telemetry scope is entered here, inside the thread.  The
        # ``service.batch`` fault site fires before the kernel call:
        # ``error`` poisons the batch (coalesced groups fall back to
        # solo members), ``delay`` stalls it (aging the queue past
        # server deadlines).
        with _tele.collect(collector=child):
            with child.span(f"service.batch.{group.requests[0].kind}"):
                _faults.fire("service.batch")
                return group.handler.run_batch(group.requests,
                                               plan=self.plan)

    async def _execute_solo(self, group: "_Group", child: Collector) -> None:
        loop = asyncio.get_running_loop()

        def solo(request):
            with _tele.collect(collector=child):
                (out,) = group.handler.run_batch([request],
                                                 plan=self.plan)
                return out

        for request, future, t0 in zip(group.requests, group.futures,
                                       group.submitted_at):
            if future.done():
                continue
            try:
                values, stats = await loop.run_in_executor(
                    None, solo, request)
            except ServiceError as exc:
                future.set_exception(exc)
            except Exception as exc:
                future.set_exception(WorkloadFailed(
                    f"{request.kind} workload raised "
                    f"{type(exc).__name__}: {exc}"))
            else:
                stats = dict(stats, batch_size=1, coalesced=False,
                             wait_ms=(time.perf_counter() - t0) * 1e3)
                future.set_result((values, stats))

    def _merge(self, child: Collector, group: "_Group",
               started: float) -> None:
        n = len(group.requests)
        if self.collector is None:
            return
        self.collector.merge(child)
        self.collector.count("service.batches")
        self.collector.count("service.batched_requests", n)
        if n > 1:
            self.collector.count("service.coalesced_requests", n)
        agg = self.collector.spans.setdefault(
            "service.batch_wait", [0, 0.0, float("inf"), 0.0])
        for t0 in group.submitted_at:
            wait = started - t0
            agg[0] += 1
            agg[1] += wait
            agg[2] = min(agg[2], wait)
            agg[3] = max(agg[3], wait)

    def _fail_group(self, group: "_Group", exc: ServiceError) -> None:
        for future in group.futures:
            if not future.done():
                future.set_exception(exc)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Stop accepting work, fail everything queued, kill drains."""
        self._stopping = True
        for key, group in list(self._pending.items()):
            if group.timer is not None:
                group.timer.cancel()
            self._fail_group(group, ShuttingDown(
                "server is shutting down; request was never executed"))
        self._pending.clear()
        while self._ready:
            _p, _s, group = heapq.heappop(self._ready)
            self._fail_group(group, ShuttingDown(
                "server is shutting down; request was never executed"))
        if self._drainer is not None:
            self._drainer.cancel()
            try:
                await self._drainer
            except (asyncio.CancelledError, Exception):
                pass
            self._drainer = None


__all__ = ["Microbatcher"]
