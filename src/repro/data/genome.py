"""Synthetic genome-alignment pileup columns (the LoFreq workload).

The paper evaluates on eight SARS-CoV-2 alignment datasets (222,131
columns, average depth N ~ 309,189; p-values from 1 down to 2**-434,916).
We cannot ship those reads, and pure-Python arithmetic cannot process
O(N*K) ~ 10^13 operations — so this module generates *magnitude-faithful*
synthetic columns: each column has a depth N, per-read success (error)
probabilities from a Phred-style quality model, and an observed alt count
K chosen so the resulting PBD p-values land in requested exponent bins.

Scaling substitution: to reach the paper's
extreme p-value exponents (down to -434,916) with tractable N*K, columns
targeting deep bins use a *compressed quality scale* — fewer, far less
probable errors with the same total log-magnitude — which exercises the
identical arithmetic regimes (operand exponents, LSE inputs, posit regime
lengths) at a fraction of the operation count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..bigfloat import BigFloat

#: Figure 9's p-value exponent bins, [lo, hi) in base-2 exponent.
FIG9_BINS: tuple = (
    (-440_000, -100_000),
    (-100_000, -31_744),
    (-31_744, -16_000),
    (-16_000, -4_096),
    (-4_096, -1_022),
    (-1_022, -500),
    (-500, -200),
    (-200, 1),
)

#: LoFreq's significance threshold: a column is a variant call when its
#: p-value is below 2**-200 (Section V.A).
CALL_THRESHOLD_SCALE = -200


@dataclass(frozen=True)
class Column:
    """One pileup column: N trials with given success probs, K observed."""

    success_probs: Tuple[BigFloat, ...]
    k: int
    label: str = ""

    @property
    def depth(self) -> int:
        return len(self.success_probs)


@dataclass(frozen=True)
class Dataset:
    """A named collection of columns (one of the paper's D0-D7)."""

    name: str
    columns: Tuple[Column, ...]

    @property
    def total_ops(self) -> int:
        """Multiply-and-add operations a column unit performs: sum of
        N*K (line 4 of Listing 2) — the numerator of the paper's MMAPS
        metric."""
        return sum(c.depth * c.k for c in self.columns)


def phred_error_prob(quality: float) -> float:
    """Phred quality q -> error probability 10**(-q/10)."""
    return 10.0 ** (-quality / 10.0)


def _probs_to_bigfloat(probs: Sequence[float]) -> Tuple[BigFloat, ...]:
    return tuple(BigFloat.from_float(float(p)) for p in probs)


def synth_column(rng: np.random.Generator, depth: int, k: int,
                 mean_quality: float = 30.0, sd_quality: float = 4.0,
                 label: str = "") -> Column:
    """A realistic-quality column: per-read error probs from a normal
    Phred distribution (mean ~Q30, i.e. p ~ 1e-3)."""
    qualities = rng.normal(mean_quality, sd_quality, size=depth).clip(2.0, None)
    probs = [phred_error_prob(q) for q in qualities]
    return Column(_probs_to_bigfloat(probs), k, label)


def column_for_target_scale(rng: np.random.Generator, target_scale: int,
                            k: Optional[int] = None,
                            depth_factor: float = 2.0,
                            label: str = "") -> Column:
    """Construct a column whose PBD p-value's base-2 exponent is close to
    ``target_scale``.

    The p-value is dominated by ``C(N, K) * p^K`` for homogeneous error
    probability p, so ``log2(pvalue) ~ K*log2(p) + log2(C(N,K))``; we
    pick K, solve for p, and jitter per-read qualities around it.  The
    landing accuracy is within a few percent of the target, more than
    enough to stratify into Figure 9's wide bins.
    """
    if target_scale >= 0:
        raise ValueError("target_scale must be negative")
    if k is None:
        k = int(rng.integers(8, 40))
    depth = max(k + 4, int(k * depth_factor))
    # Account for the combinatorial term when solving for log2(p).
    log2_comb = (math.lgamma(depth + 1) - math.lgamma(k + 1)
                 - math.lgamma(depth - k + 1))
    log2_comb /= math.log(2)
    log2_p = (target_scale - log2_comb) / k
    if log2_p >= -1.0:
        log2_p = -1.0  # keep probs < 0.5
    jitter = rng.uniform(-1.0, 1.0, size=depth)
    probs = []
    for j in jitter:
        e = log2_p + float(j)
        e_int = int(math.floor(e))
        frac = e - e_int
        probs.append(BigFloat.from_float(2.0 ** frac).mul_pow2(e_int))
    return Column(tuple(probs), k, label)


def stratified_columns(per_bin: int, seed: int = 0,
                       bins: Sequence[tuple] = FIG9_BINS) -> List[Column]:
    """Columns whose p-values cover every Figure 9 exponent bin."""
    rng = np.random.default_rng(seed)
    columns: List[Column] = []
    for lo, hi in bins:
        for i in range(per_bin):
            target = int(rng.integers(lo, min(hi, -8)))
            columns.append(column_for_target_scale(
                rng, target, label=f"bin[{lo},{hi})#{i}"))
    return columns


def synth_dataset(name: str, n_columns: int, seed: int,
                  critical_fraction: float = 0.073,
                  deep_fraction: float = 0.03,
                  k_range: Tuple[int, int] = (6, 48)) -> Dataset:
    """One SARS-CoV-2-like dataset.

    The paper's eight datasets have 222,131 columns total of which 7.3%
    are critical (p < 2**-200); 40% of critical columns fall below
    2**-1074 and 5% below 2**-10000.  The synthetic datasets reproduce
    those fractions at reduced column counts, with N and K 'diversely
    distributed, unlike T and H in VICAR' (Section VI.A).
    """
    rng = np.random.default_rng(seed)
    columns: List[Column] = []
    n_critical = max(1, int(round(n_columns * critical_fraction)))
    n_deep = max(1, int(round(n_columns * deep_fraction)))
    for i in range(n_columns):
        k = int(rng.integers(*k_range))
        if i < n_deep:
            target = int(rng.integers(-40_000, -10_000))
            columns.append(column_for_target_scale(rng, target, k=k,
                                                   label=f"{name}/deep{i}"))
        elif i < n_critical:
            target = int(rng.integers(-10_000, -200))
            columns.append(column_for_target_scale(rng, target, k=k,
                                                   label=f"{name}/crit{i}"))
        else:
            target = int(rng.integers(-180, -10))
            columns.append(column_for_target_scale(rng, target, k=k,
                                                   label=f"{name}/bg{i}"))
    return Dataset(name, tuple(columns))


def paper_like_datasets(n_datasets: int = 8, columns_per_dataset: int = 24,
                        seed: int = 0) -> List[Dataset]:
    """The D0-D7 stand-ins used by the Figure 7/8 and 11 experiments."""
    return [synth_dataset(f"D{i}", columns_per_dataset, seed + 101 * i)
            for i in range(n_datasets)]


def dataset_shape_stats(datasets: Sequence[Dataset]) -> List[dict]:
    """Per-dataset N/K distribution summary (for the hardware timing
    model, which needs the N and K mix per dataset)."""
    out = []
    for ds in datasets:
        depths = [c.depth for c in ds.columns]
        ks = [c.k for c in ds.columns]
        out.append({
            "name": ds.name,
            "columns": len(ds.columns),
            "mean_depth": float(np.mean(depths)),
            "mean_k": float(np.mean(ks)),
            "total_ops": ds.total_ops,
        })
    return out
