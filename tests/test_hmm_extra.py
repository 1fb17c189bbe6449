"""Tests for the HMM extensions: backward, Viterbi, posterior decoding.

These provide strong cross-validation of the forward algorithm through
independent dataflows and exact invariants.
"""

import itertools
import math

import pytest

from repro.arith import BigFloatBackend, Binary64Backend, LogSpaceBackend, PositBackend
from repro.apps import (
    backward,
    backward_matrix,
    forward,
    forward_matrix,
    path_probability,
    posterior_decode,
    posterior_distributions,
)
from repro.bigfloat import BigFloat, relative_error
from repro.data import sample_hcg_like_hmm, sample_hmm
from repro.formats import PositEnv
from repro.workloads import viterbi as _viterbi


def viterbi(hmm, backend):
    """``(path, probability)`` of :func:`repro.workloads.viterbi`."""
    best = _viterbi(hmm, backend)
    return best.states(), best.score


@pytest.fixture(scope="module")
def hmm():
    return sample_hmm(4, 5, 12, seed=21)


class TestBackward:
    def test_forward_backward_likelihood_equal_oracle(self, hmm):
        """The fundamental identity: forward and backward compute the
        same likelihood (exactly, in exact-enough arithmetic)."""
        backend = BigFloatBackend(256)
        f = forward(hmm, backend)
        b = backward(hmm, backend)
        assert relative_error(f, b).to_float() < 2 ** -200

    def test_forward_backward_close_in_every_format(self, hmm):
        for backend in (Binary64Backend(), LogSpaceBackend(),
                        PositBackend(PositEnv(64, 12))):
            f = backend.to_bigfloat(forward(hmm, backend))
            b = backend.to_bigfloat(backward(hmm, backend))
            assert relative_error(f, b).to_float() < 1e-12

    def test_alpha_beta_product_invariant(self, hmm):
        """sum_q alpha_t[q] * beta_t[q] equals the likelihood at EVERY t
        (the textbook forward-backward invariant)."""
        backend = BigFloatBackend(256)
        alphas = forward_matrix(hmm, backend)
        betas = backward_matrix(hmm, backend)
        like = forward(hmm, backend)
        for alpha_t, beta_t in zip(alphas, betas):
            total = BigFloat.zero()
            for a, b in zip(alpha_t, beta_t):
                total = total.add(a.mul(b, 256), 256)
            assert relative_error(like, total).to_float() < 2 ** -200

    def test_matrices_shapes(self, hmm):
        backend = Binary64Backend()
        alphas = forward_matrix(hmm, backend)
        betas = backward_matrix(hmm, backend)
        assert len(alphas) == len(betas) == hmm.length
        assert all(len(row) == hmm.n_states for row in alphas)

    def test_backward_deep_magnitudes(self):
        """Backward in posit(64,18) survives the same deep regime as
        forward."""
        deep = sample_hcg_like_hmm(3, 25, seed=3, bits_per_step=500.0)
        backend = PositBackend(PositEnv(64, 18))
        oracle = BigFloatBackend()
        got = backend.to_bigfloat(backward(deep, backend))
        ref = backward(deep, oracle)
        assert relative_error(ref, got).to_float() < 1e-9
        assert ref.scale < -10_000


class TestViterbi:
    def test_path_is_optimal_brute_force(self):
        """Viterbi must find the max-probability path (checked by
        enumerating all H^T paths on a tiny instance)."""
        small = sample_hmm(3, 4, 5, seed=8)
        backend = BigFloatBackend()
        path, prob = viterbi(small, backend)
        best = None
        for cand in itertools.product(range(3), repeat=5):
            p = path_probability(small, list(cand), backend)
            if best is None or p > best:
                best = p
        assert relative_error(best, prob).to_float() < 2 ** -200

    def test_path_probability_below_likelihood(self, hmm):
        backend = BigFloatBackend()
        _, prob = viterbi(hmm, backend)
        like = forward(hmm, backend)
        assert prob < like  # one path vs the sum over all paths

    def test_path_length_and_range(self, hmm):
        path, _ = viterbi(hmm, Binary64Backend())
        assert len(path) == hmm.length
        assert all(0 <= q < hmm.n_states for q in path)

    def test_formats_agree_on_path(self, hmm):
        """All reasonable formats find the same optimal path on a
        well-separated instance."""
        ref_path, _ = viterbi(hmm, BigFloatBackend())
        for backend in (Binary64Backend(), LogSpaceBackend(),
                        PositBackend(PositEnv(64, 12))):
            path, _ = viterbi(hmm, backend)
            assert path == ref_path, backend.name

    def test_viterbi_log_space_needs_no_lse(self, hmm):
        """Viterbi in log-space only multiplies (adds) and compares —
        it must work even where LSE would dominate cost."""
        path, prob = viterbi(hmm, LogSpaceBackend())
        assert math.isfinite(prob)
        assert len(path) == hmm.length

    def test_viterbi_deep_magnitude_binary64_fails(self):
        deep = sample_hcg_like_hmm(3, 30, seed=5, bits_per_step=400.0)
        b64 = Binary64Backend()
        _, prob = viterbi(deep, b64)
        assert prob == 0.0  # all path probabilities underflow
        _, posit_prob = viterbi(deep, PositBackend(PositEnv(64, 18)))
        assert posit_prob != 0


class TestPosterior:
    def test_posterior_path_matches_oracle(self, hmm):
        ref = posterior_decode(hmm, BigFloatBackend())
        got = posterior_decode(hmm, Binary64Backend())
        assert ref == got

    def test_posterior_length(self, hmm):
        assert len(posterior_decode(hmm, Binary64Backend())) == hmm.length

    def test_posterior_distribution_normalizes(self, hmm):
        """sum_q gamma_t(q) = likelihood for every t."""
        backend = BigFloatBackend()
        gammas = posterior_distributions(hmm, backend)
        like = forward(hmm, backend)
        for gamma_t in gammas:
            total = BigFloat.zero()
            for g in gamma_t:
                total = total.add(g, 256)
            assert relative_error(like, total).to_float() < 2 ** -200

    def test_posterior_differs_from_viterbi_sometimes(self):
        """Posterior decoding and Viterbi are different criteria; on at
        least one seed they disagree (sanity that we implemented two
        algorithms, not one)."""
        backend = BigFloatBackend()
        disagreements = 0
        for seed in range(6):
            h = sample_hmm(3, 3, 10, seed=seed)
            v, _ = viterbi(h, backend)
            p = posterior_decode(h, backend)
            if v != p:
                disagreements += 1
        assert disagreements >= 1
