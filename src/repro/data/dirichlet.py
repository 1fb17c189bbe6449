"""Synthetic HMM parameter generation (the paper's 'synthetic HMM data':
transition/emission matrices from the Dirichlet distribution, uniformly
sampled observations)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..bigfloat import BigFloat


@dataclass(frozen=True)
class HMMData:
    """One synthetic HMM instance with an observation sequence.

    Probabilities are kept as exact BigFloats (converted exactly from the
    sampled doubles) so every backend receives identical inputs — the
    paper converts inputs from MPFR into each format the same way.
    """

    transition: tuple  # H x H rows of BigFloat
    emission: tuple  # H x M rows of BigFloat
    initial: tuple  # H BigFloats
    observations: tuple  # T ints in [0, M)

    @property
    def n_states(self) -> int:
        return len(self.transition)

    @property
    def n_symbols(self) -> int:
        return len(self.emission[0])

    @property
    def length(self) -> int:
        return len(self.observations)

    def as_float_arrays(self):
        """(A, B, pi, O) as numpy arrays for the fast float/log paths."""
        a = np.array([[x.to_float() for x in row] for row in self.transition])
        b = np.array([[x.to_float() for x in row] for row in self.emission])
        pi = np.array([x.to_float() for x in self.initial])
        return a, b, pi, np.asarray(self.observations)


def _to_bigfloat_rows(matrix: np.ndarray) -> tuple:
    return tuple(tuple(BigFloat.from_float(float(v)) for v in row) for row in matrix)


def sample_stochastic_matrix(rng: np.random.Generator, rows: int, cols: int,
                             concentration: float = 1.0) -> np.ndarray:
    """Row-stochastic matrix with Dirichlet(concentration) rows."""
    return rng.dirichlet(np.full(cols, concentration), size=rows)


def sample_hmm(n_states: int, n_symbols: int, length: int, seed: int = 0,
               concentration: float = 1.0) -> HMMData:
    """A synthetic HMM in the paper's style.

    With ``n_symbols`` symbols the per-step likelihood shrink is about
    ``log2(n_symbols)`` bits, so alpha's exponent decreases roughly
    linearly with t — the Figure 1 trajectory.
    """
    rng = np.random.default_rng(seed)
    a = sample_stochastic_matrix(rng, n_states, n_states, concentration)
    b = sample_stochastic_matrix(rng, n_states, n_symbols, concentration)
    pi = rng.dirichlet(np.full(n_states, concentration))
    obs = rng.integers(0, n_symbols, size=length)
    return HMMData(_to_bigfloat_rows(a), _to_bigfloat_rows(b),
                   tuple(BigFloat.from_float(float(v)) for v in pi),
                   tuple(int(o) for o in obs))


def sample_hcg_like_hmm(n_states: int, length: int, seed: int = 0,
                        bits_per_step: float = 295.0) -> HMMData:
    """A scaled stand-in for the paper's Human-Chimp-Gorilla VICAR runs.

    The real workload reaches likelihoods ~2**-2_900_000 after 500,000
    sites (~5.8 bits of shrink per site).  Pure-Python arithmetic cannot
    run 500k sites per matrix, so this generator *compresses the
    magnitude axis*: emission probabilities are drawn log-uniformly
    around 2**-bits_per_step, giving the same final likelihood exponent
    after ``length`` sites as the paper reaches after 500k.  Transition
    structure stays a proper Dirichlet-stochastic matrix, so the
    accumulation pattern (the error driver) is unchanged; only the
    per-step magnitude drop is rescaled.
    """
    rng = np.random.default_rng(seed)
    a = sample_stochastic_matrix(rng, n_states, n_states)
    pi = rng.dirichlet(np.ones(n_states))
    n_symbols = 4  # genome alphabet
    # Emission probabilities ~ 2**-(bits_per_step +- jitter).
    exponents = bits_per_step + rng.uniform(-8.0, 8.0, size=(n_states, n_symbols))
    mantissas = rng.uniform(1.0, 2.0, size=(n_states, n_symbols))
    emission_rows: List[tuple] = []
    for i in range(n_states):
        row = []
        for j in range(n_symbols):
            e_int = int(np.floor(exponents[i, j]))
            frac = float(exponents[i, j] - e_int)
            m = BigFloat.from_float(mantissas[i, j] * 2.0 ** (-frac))
            row.append(m.mul_pow2(-e_int))
        emission_rows.append(tuple(row))
    obs = rng.integers(0, n_symbols, size=length)
    return HMMData(_to_bigfloat_rows(a), tuple(emission_rows),
                   tuple(BigFloat.from_float(float(v)) for v in pi),
                   tuple(int(o) for o in obs))
