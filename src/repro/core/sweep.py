"""Exponent-stratified operand generation for the Figure 3 sweep.

The paper draws add/mul operand pairs (from a phylogenetics run and from
uniform sampling in MPFR) whose *results* span base-2 exponents from
-10000 up to 0, then buckets accuracy by result exponent.  This module
generates such pairs deterministically (seeded) as exact dyadic rationals.

Generation is rejection-free: we choose the result's target scale first
and construct operands guaranteed to land in the requested bin.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from ..formats.real import Real

#: Figure 3's x-axis bins: [lo, hi) half-open result-exponent ranges.
FIG3_BINS: tuple = (
    (-10_000, -8_000),
    (-8_000, -6_000),
    (-6_000, -4_000),
    (-4_000, -2_000),
    (-2_000, -1_022),
    (-1_022, -500),
    (-500, -100),
    (-100, -10),
    (-10, 1),  # the paper labels this [-10, 0]; scales are integers
)


def bin_label(bin_range: tuple) -> str:
    lo, hi = bin_range
    if hi == 1:
        # Scales are integers, so [lo, 1) == [lo, 0] — the paper's label.
        return f"[{lo}, 0]"
    return f"[{lo}, {hi})"


def binary64_skipped(fmt: str, bin_range: tuple) -> bool:
    """Figure 3's presentation rule: binary64 is not measured in bins
    entirely left of its normal range ('Binary64 is not shown in ranges
    to the left of 2**-1022')."""
    return fmt == "binary64" and bin_range[1] <= -1_022


@dataclass(frozen=True)
class OperandPair:
    """One sampled operation with its exact result."""

    op: str  # "add" | "mul"
    x: Real
    y: Real
    exact: Real

    @property
    def result_scale(self) -> int:
        return self.exact.scale


def _random_mantissa(rng: random.Random, bits: int) -> int:
    """A random odd mantissa with exactly ``bits`` significant bits."""
    return (1 << (bits - 1)) | rng.getrandbits(bits - 1) | 1


def _real_with_scale(rng: random.Random, scale: int, mant_bits: int) -> Real:
    m = _random_mantissa(rng, mant_bits)
    return Real(0, m, scale - mant_bits + 1)


def generate_add_pairs(bin_range: tuple, count: int, seed: int = 0,
                       mant_bits: int = 80,
                       max_operand_gap: int = 64,
                       rng_seed: Optional[int] = None) -> Iterator[OperandPair]:
    """Addition pairs whose exact sum's scale falls in ``bin_range``.

    The two operands are separated by 0..``max_operand_gap`` binades so
    the sweep exercises both balanced additions and alignments where one
    operand dominates — the regimes that stress LSE and posit rounding
    differently.

    ``rng_seed``, when given, seeds the stream directly; the default is
    :func:`stable_chunk_seed` (op, bin, seed), which is identical in
    every process and interpreter session — the builtin ``hash`` the
    seed code used here is salted per process, which made serial sweep
    results irreproducible across runs.
    """
    if rng_seed is None:
        rng_seed = stable_chunk_seed("add", bin_range, seed)
    lo, hi = bin_range
    rng = random.Random(rng_seed)
    produced = 0
    while produced < count:
        target = rng.randrange(lo, hi)
        gap = rng.randrange(0, max_operand_gap + 1)
        # x at target-1, y at target-1-gap: sum's scale is target-1 or
        # target; retry cheaply if it misses the bin.
        x = _real_with_scale(rng, target - 1, mant_bits)
        y = _real_with_scale(rng, target - 1 - gap, mant_bits)
        exact = x.add(y)
        if lo <= exact.scale < hi:
            yield OperandPair("add", x, y, exact)
            produced += 1


def generate_mul_pairs(bin_range: tuple, count: int, seed: int = 0,
                       mant_bits: int = 80,
                       max_factor_scale: int = 200,
                       rng_seed: Optional[int] = None) -> Iterator[OperandPair]:
    """Multiplication pairs whose exact product's scale falls in
    ``bin_range``.

    One factor is kept within ``max_factor_scale`` binades of 1 (a
    transition/emission probability, in HMM terms); the other carries the
    remaining magnitude (the running state probability).  Both operands
    are probabilities — scale <= 0 — matching the paper's workloads; a
    factor above 1.0 would let log-space cancel digits it never cancels
    in the real applications.
    """
    if rng_seed is None:
        rng_seed = stable_chunk_seed("mul", bin_range, seed)
    lo, hi = bin_range
    rng = random.Random(rng_seed)
    produced = 0
    while produced < count:
        target = rng.randrange(lo, hi)
        # sy in [max(target, -max_factor_scale), -1] keeps sx <= 0.
        sy_min = max(target + 1, -max_factor_scale)
        sy = rng.randrange(sy_min, 0) if sy_min < 0 else -1
        sx = target - sy
        x = _real_with_scale(rng, min(sx, 0), mant_bits)
        y = _real_with_scale(rng, sy, mant_bits)
        exact = x.mul(y)
        if lo <= exact.scale < hi:
            yield OperandPair("mul", x, y, exact)
            produced += 1


# ----------------------------------------------------------------------
# Chunked generation (the unit of work of the parallel sweep runner)
# ----------------------------------------------------------------------
def stable_chunk_seed(op: str, bin_range: tuple, seed: int,
                      chunk_index: int = 0) -> int:
    """A deterministic, process-independent RNG seed for one chunk.

    Unlike Python's built-in ``hash`` (salted per process), this survives
    crossing a process boundary, so a worker regenerates exactly the
    pairs the parent planned.
    """
    key = f"{op}:{bin_range[0]}:{bin_range[1]}:{seed}:{chunk_index}"
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class SweepChunk:
    """One self-contained unit of sweep work: ``count`` pairs of ``op``
    in ``bin_range``, generated from an explicit ``rng_seed``."""

    op: str  # "add" | "mul"
    bin_range: tuple
    count: int
    rng_seed: int
    chunk_index: int = 0

    def generate(self) -> List[OperandPair]:
        gen = generate_add_pairs if self.op == "add" else generate_mul_pairs
        return list(gen(self.bin_range, self.count, rng_seed=self.rng_seed))


def plan_chunks(op: str, bins: Sequence[tuple] = FIG3_BINS,
                per_bin: int = 100, seed: int = 0,
                chunk_size: int = 250) -> List[SweepChunk]:
    """Partition a sweep into deterministic chunks.

    Each (bin, chunk-index) pair gets an independent seeded stream, so
    the plan is reproducible regardless of worker count or scheduling
    order, and scaling ``per_bin`` up only *appends* chunks.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    chunks = []
    for bin_range in bins:
        remaining, index = per_bin, 0
        while remaining > 0:
            count = min(chunk_size, remaining)
            chunks.append(SweepChunk(
                op, bin_range, count,
                stable_chunk_seed(op, bin_range, seed, index), index))
            remaining -= count
            index += 1
    return chunks


def probability_pairs_from_trace(trace: Sequence, op: str) -> Iterator[OperandPair]:
    """Adapt an application operand trace (see ``repro.apps.hmm``'s
    ``trace_operands``) into sweep pairs — the paper's 'operands collected
    from a real phylogenetics application' source."""
    for item in trace:
        t_op, x, y = item
        if t_op != op:
            continue
        exact = x.add(y) if op == "add" else x.mul(y)
        if exact.is_zero():
            continue
        yield OperandPair(op, x, y, exact)
