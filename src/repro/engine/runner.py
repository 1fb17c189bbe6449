"""Chunked sweep runner: the one implementation of the Figure 3 sweep.

The Figure 3 sweep is embarrassingly parallel — (op, bin) cells are
independent.  This runner partitions each bin into
:class:`~repro.core.sweep.SweepChunk` units (deterministic per-chunk
seeds that survive process boundaries), measures the chunks in-process
or across worker processes, and merges per-chunk tallies into one
:class:`~repro.core.analysis.SweepResult`
(:func:`~repro.core.analysis.run_op_sweep` calls it under every plan).
Within each chunk the measured operation itself runs through
the batched backends of :mod:`repro.engine.batch` when the format has
one (binary64, log, posit), falling back to the scalar loop otherwise
(BigFloat oracle, LNS).

Determinism: the merge is ordered by ``(bin, chunk_index)``, and chunk
seeds come from :func:`~repro.core.sweep.stable_chunk_seed`, so results
are identical for any worker count — ``n_workers=0`` (inline, no
subprocess) is the reference the tests compare against.

**Crash recovery** (PR 10): a chunk whose worker dies (or whose
measurement raises) no longer kills the sweep.  Failed chunks are
resubmitted — on a *fresh* executor when the pool broke — up to
``max_chunk_retries`` times, and because every chunk regenerates its
pairs from its process-stable seed, a chunk measured on attempt 3
produces bit-identical tallies to one measured on attempt 0.  The
``runner.chunk`` fault site (:mod:`repro.faults`) exercises exactly
this path: ``kill`` mode hard-exits the worker process, ``error`` mode
fails the chunk in place; either way retried attempts draw fresh
injection decisions (the site key carries the attempt number), so an
injected crash is transient unless the plan says otherwise.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults as _faults
from .. import telemetry
from ..arith.backend import Backend
from ..core.accuracy import measure_pairs
from ..core.sweep import FIG3_BINS, binary64_skipped, plan_chunks

#: Formats measured per chunk return (errors, underflow, overflow).
ChunkTally = Dict[str, Tuple[List[float], int, int]]

#: Default resubmission budget per chunk before the sweep gives up.
DEFAULT_CHUNK_RETRIES = 2


def _measure_chunk(task):
    """Worker entry: regenerate one chunk's pairs and measure every
    backend on them.  Must stay module-level (pickled by the pool).

    ``task`` is ``(chunk, backends, batch, collect, fault_plan,
    attempt, kill_ok)``.  When the parent had an active collector (the
    ``collect`` flag), the chunk runs inside a fresh child collector —
    picklable, shipped back as the fourth element for the parent to
    merge — wrapped in a ``runner.chunk`` span so per-chunk worker
    timings survive the process boundary.  A shipped fault plan is
    entered the same way; the ``runner.chunk`` site key is the chunk
    identity plus the attempt number, so the schedule is process- and
    worker-count-independent while retries draw fresh decisions."""
    chunk, backends, batch, collect, fault_plan, attempt, kill_ok = task
    child = None
    scope = telemetry.collect() if collect else None
    fscope = _faults.inject(fault_plan) if fault_plan is not None else None
    try:
        if scope is not None:
            child = scope.__enter__()
        if fscope is not None:
            fscope.__enter__()
        with telemetry.span("runner.chunk"):
            _faults.fire("runner.chunk",
                         key=(chunk.op, chunk.bin_range,
                              chunk.chunk_index, attempt),
                         kill_ok=kill_ok)
            pairs = chunk.generate()
            tally: ChunkTally = {}
            for fmt, backend in backends.items():
                if binary64_skipped(fmt, chunk.bin_range):
                    continue
                tally[fmt] = measure_pairs(backend, chunk.op, pairs,
                                           batch=batch)
    finally:
        if fscope is not None:
            fscope.__exit__(None, None, None)
        if scope is not None:
            scope.__exit__(None, None, None)
    return chunk.bin_range, chunk.chunk_index, tally, child


def default_workers() -> int:
    cpus = os.cpu_count() or 1
    return max(1, min(4, cpus - 1))


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


def _run_tasks_inline(tasks, max_retries: int) -> list:
    """The deterministic single-process reference, with the same
    retry budget (``kill`` injections degrade to in-place errors —
    exiting the only process would defeat the exercise)."""
    outcomes = []
    for base in tasks:
        attempt = 0
        while True:
            try:
                outcomes.append(_measure_chunk(base + (attempt, False)))
                break
            except Exception:
                if attempt >= max_retries:
                    raise
                attempt += 1
                telemetry.event("runner.chunk_retry")
    return outcomes


def _run_tasks_pool(tasks, n_workers: int, max_retries: int) -> list:
    """Measure every chunk across worker processes, resubmitting
    failures on a fresh executor.

    A dead worker breaks the whole :class:`ProcessPoolExecutor` —
    every in-flight future raises ``BrokenProcessPool``, casualty and
    bystander alike — so the retry loop is round-based: collect this
    round's failures, tear the pool down, stand up a new one, resubmit
    only the failed chunks.  Two separate budgets keep that fair:

    * a chunk's *own* exception (one malformed measurement, an
      injected ``error``) counts against its ``max_retries`` budget —
      a chunk that keeps failing on its own re-raises;
    * ``BrokenProcessPool`` casualties don't (a crash would otherwise
      burn one retry from every in-flight bystander); instead pool
      *restarts* are bounded at ``max(1, max_retries) * len(tasks)``,
      so a worker that dies on every round still terminates the sweep.

    Every resubmission advances the chunk's attempt number (fresh
    fault-site draws); chunk seeds make resubmission bit-identical;
    ``outcomes`` keeps original task order so the merge stays
    deterministic.
    """
    ctx = _pool_context()
    outcomes: list = [None] * len(tasks)
    pending = {i: 0 for i in range(len(tasks))}  # task index -> attempt
    genuine: Dict[int, int] = {}                 # task index -> failures
    restarts = 0
    max_restarts = max(1, max_retries) * len(tasks)
    while pending:
        failed: Dict[int, int] = {}
        broke = False
        with ProcessPoolExecutor(max_workers=n_workers,
                                 mp_context=ctx) as pool:
            futures = {
                i: pool.submit(_measure_chunk, tasks[i] + (attempt, True))
                for i, attempt in pending.items()}
            for i, future in futures.items():
                try:
                    outcomes[i] = future.result()
                except BrokenProcessPool:
                    broke = True
                    failed[i] = pending[i] + 1
                    telemetry.event("runner.chunk_retry")
                except Exception:
                    count = genuine.get(i, 0) + 1
                    if count > max_retries:
                        raise
                    genuine[i] = count
                    failed[i] = pending[i] + 1
                    telemetry.event("runner.chunk_retry")
        if broke:
            restarts += 1
            if restarts > max_restarts:
                raise BrokenProcessPool(
                    f"sweep workers kept dying: gave up after "
                    f"{restarts} pool restarts")
            telemetry.event("runner.pool_restart")
        pending = failed
    return outcomes


def run_sweep_parallel(op: str, backends: Dict[str, Backend],
                       per_bin: int = 100,
                       bins: Sequence[tuple] = FIG3_BINS,
                       seed: int = 0,
                       n_workers: Optional[int] = None,
                       chunk_size: int = 250,
                       batch: bool = True,
                       max_chunk_retries: int = DEFAULT_CHUNK_RETRIES):
    """Measure the chunk plan of one op's sweep and merge the tallies.

    Returns a :class:`~repro.core.analysis.SweepResult`.  ``n_workers``
    of 0 or 1 measures inline (deterministic reference; no subprocess
    overhead for small sweeps).  ``max_chunk_retries`` bounds how many
    times one chunk may be resubmitted after a worker crash or an
    in-chunk exception before the sweep re-raises.
    """
    from ..core.analysis import BoxStats, SweepResult

    if n_workers is None:
        n_workers = default_workers()
    collector = telemetry.current()
    fault_plan = _faults.active()
    with telemetry.span("runner.sweep"):
        chunks = plan_chunks(op, bins, per_bin, seed, chunk_size)
        tasks = [(chunk, backends, batch, collector is not None,
                  fault_plan)
                 for chunk in chunks]
        if n_workers <= 1:
            outcomes = _run_tasks_inline(tasks, max_chunk_retries)
        else:
            outcomes = _run_tasks_pool(tasks, n_workers,
                                       max_chunk_retries)

    # Outcomes are indexed by task order, and the per-cell tallies
    # commute, so the merge is deterministic without re-sorting —
    # including the per-chunk child collectors folded back into the
    # parent scope.
    merged: Dict[tuple, Dict[str, List]] = {b: {} for b in bins}
    for bin_range, _index, tally, child in outcomes:
        if collector is not None and child is not None:
            collector.merge(child)
        cell = merged[bin_range]
        for fmt, (errors, n_uf, n_of) in tally.items():
            acc = cell.setdefault(fmt, [[], 0, 0])
            acc[0].extend(errors)
            acc[1] += n_uf
            acc[2] += n_of
    result = SweepResult(op)
    for bin_range in bins:
        cell = {}
        for fmt in backends:
            if binary64_skipped(fmt, bin_range):
                continue
            errors, n_uf, n_of = merged[bin_range].get(fmt, ([], 0, 0))
            cell[fmt] = BoxStats.from_errors(fmt, bin_range, errors,
                                             n_uf, n_of)
        result.boxes[bin_range] = cell
    return result
