"""The workload kernels: Viterbi, pair-HMM, and Kalman on the nd
plane.

Three families of pins:

* **Semiring identity** — the Viterbi *score* is literally the forward
  recurrence under ``semiring="max-product"`` (same kernel, different
  algebra), bit-for-bit per format.
* **Plan invariance** — batch and serial plans agree: bit-identical
  where the format certifies it (binary64, and max/mul everywhere),
  decision-identical for Viterbi paths in *every* format.
* **Refactor bit-identity** — the semiring-parameterized forward
  (which replaced the three duplicated sum-product loops) still
  matches the serial scalar fold B=1, pinned at 8-bit posit where the
  whole code space is exercised.
"""

import numpy as np
import pytest

from repro.arith import Binary64Backend, LogSpaceBackend
from repro.arith.backends import BigFloatBackend, PositBackend
from repro.apps.hmm import forward, forward_batch
from repro.data.dirichlet import sample_hmm
from repro.engine.plan import ExecPlan
from repro.formats.posit import PositEnv
from repro.workloads import (
    KalmanParams,
    PairHMMParams,
    ViterbiPath,
    kalman_batch,
    pairhmm_batch,
    sample_tracks,
    viterbi,
    viterbi_batch,
)

FORMATS = ("binary64", "log", "posit(64,9)", "lns(12,50)")


def _backend(fmt):
    from repro.nd.context import _resolve_format
    return _resolve_format(fmt)


class TestViterbi:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_score_is_max_product_forward(self, fmt):
        """The semiring identity: same kernel, max algebra."""
        backend = _backend(fmt)
        hmm = sample_hmm(4, 5, 12, seed=2)
        decoded = viterbi(hmm, backend)
        score = forward(hmm, backend, semiring="max-product")
        assert decoded.score == score

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_batch_serial_decision_identity(self, fmt):
        """max/argmax decisions are plan-invariant in every format."""
        backend = _backend(fmt)
        hmm = sample_hmm(4, 5, 10, seed=3)
        rng = np.random.default_rng(4)
        obs = rng.integers(0, 5, size=(6, 10))
        batched = viterbi_batch(hmm, backend, obs)
        serial = viterbi_batch(hmm, backend, obs,
                               plan=ExecPlan.serial())
        for got, want in zip(batched, serial):
            assert got.states() == want.states()
            assert got.score == want.score

    def test_path_is_the_true_argmax(self):
        """Brute force: the decoded path maximizes the joint
        probability over all H**T paths (binary64, small instance)."""
        backend = Binary64Backend()
        hmm = sample_hmm(3, 4, 5, seed=6)
        decoded = viterbi(hmm, backend)

        from itertools import product
        a, b, pi, _ = hmm.as_float_arrays()
        obs = list(hmm.observations)

        def joint(path):
            p = pi[path[0]] * b[path[0], obs[0]]
            for t in range(1, len(obs)):
                p *= a[path[t - 1], path[t]] * b[path[t], obs[t]]
            return p

        best = max(product(range(3), repeat=len(obs)), key=joint)
        assert joint(tuple(decoded.states())) == joint(best)

    def test_single_matches_batch_of_one(self):
        backend = LogSpaceBackend(sum_mode="sequential")
        hmm = sample_hmm(4, 5, 8, seed=9)
        solo = viterbi(hmm, backend)
        [in_batch] = viterbi_batch(hmm, backend, [hmm.observations])
        assert isinstance(solo, ViterbiPath)
        assert solo.states() == in_batch.states()
        assert solo.score == in_batch.score

    def test_bad_obs_shape_rejected(self):
        backend = Binary64Backend()
        hmm = sample_hmm(3, 4, 5, seed=1)
        with pytest.raises(ValueError, match="batch"):
            from repro.workloads.viterbi import _viterbi_nd
            from repro.apps.hmm import model_arrays
            a, b, pi = model_arrays(hmm, backend)
            _viterbi_nd(a, b, pi, np.zeros(5, dtype=int))


class TestPairHMM:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("semiring", ("pairhmm-max", "sum-product"))
    def test_batch_serial_equivalence(self, fmt, semiring):
        """Batch and serial plans run the same ops in the same order —
        bit-identical values per read."""
        backend = _backend(fmt)
        rng = np.random.default_rng(12)
        hap = rng.integers(0, 4, 15)
        reads = rng.integers(0, 4, (5, 6))
        batched = pairhmm_batch(hap, reads, backend, semiring=semiring)
        serial = pairhmm_batch(hap, reads, backend, semiring=semiring,
                               plan=ExecPlan.serial())
        assert batched == serial

    def test_sum_product_matches_scalar_reference(self):
        """An independent scalar float implementation of the GATK
        recurrence agrees with the nd kernel (binary64, sum-product:
        plain float adds, so the reference is exact modulo op order —
        which the kernel pins by construction)."""
        backend = Binary64Backend()
        rng = np.random.default_rng(13)
        hap = rng.integers(0, 4, 8)
        reads = rng.integers(0, 4, (3, 4))
        params = PairHMMParams(gap_open=0.1, gap_extend=0.2,
                               mismatch=0.05)
        got = pairhmm_batch(hap, reads, backend, params=params,
                            semiring="sum-product")

        t = params.transitions()
        length = hap.size
        for r in range(reads.shape[0]):
            read = reads[r]
            m = np.zeros((read.size + 1, length + 1))
            ins = np.zeros((read.size + 1, length + 1))
            del_ = np.zeros((read.size + 1, length + 1))
            del_[0, 1:] = 1.0 / length
            for i in range(1, read.size + 1):
                for j in range(1, length + 1):
                    prior = (1.0 - params.mismatch
                             if read[i - 1] == hap[j - 1]
                             else params.mismatch / 3.0)
                    m[i, j] = prior * (
                        t["tMM"] * m[i - 1, j - 1]
                        + t["tIM"] * ins[i - 1, j - 1]
                        + t["tDM"] * del_[i - 1, j - 1])
                for j in range(length + 1):
                    ins[i, j] = (t["tMI"] * m[i - 1, j]
                                 + t["tII"] * ins[i - 1, j])
                for j in range(1, length + 1):
                    del_[i, j] = (t["tMD"] * m[i, j - 1]
                                  + t["tDD"] * del_[i, j - 1])
            want = float(np.sum(m[read.size, 1:] + ins[read.size, 1:]))
            assert got[r] == pytest.approx(want, rel=1e-12)

    def test_hybrid_bounded_by_full_sum(self):
        """pairhmm-max recombines with max inside the recurrence, so
        its likelihood never exceeds the full sum's."""
        backend = Binary64Backend()
        rng = np.random.default_rng(14)
        hap = rng.integers(0, 4, 12)
        reads = rng.integers(0, 4, (4, 5))
        hybrid = pairhmm_batch(hap, reads, backend, semiring="pairhmm-max")
        full = pairhmm_batch(hap, reads, backend, semiring="sum-product")
        for h, f in zip(hybrid, full):
            assert 0.0 < h <= f

    def test_bad_reads_shape_rejected(self):
        backend = Binary64Backend()
        with pytest.raises(ValueError, match="batch"):
            pairhmm_batch([0, 1], np.zeros(3, dtype=int), backend)

    def test_serial_plan_never_rounds_on_the_batch_plane(self):
        """Every array of a serial-plan call, the free-gap row included,
        is built under that plan (the ambient plan stays the default):
        the posit mirror rounds nothing, and the values are the batch
        plan's."""
        from repro import telemetry
        backend = _backend("posit(64,12)")
        rng = np.random.default_rng(15)
        hap = rng.integers(0, 4, 10)
        reads = rng.integers(0, 4, (3, 5))
        with telemetry.collect() as col:
            serial = pairhmm_batch(hap, reads, backend,
                                   plan=ExecPlan.serial())
        assert "posit.encode" not in col.spans
        assert serial == pairhmm_batch(hap, reads, backend)


class TestKalman:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_batch_serial_equivalence(self, fmt):
        backend = _backend(fmt)
        zs, _ = sample_tracks(4, 12, seed=20)
        batched = kalman_batch(zs, backend)
        serial = kalman_batch(zs, backend, plan=ExecPlan.serial())
        for got, want in zip(batched, serial):
            assert (got.x, got.p) == (want.x, want.p)

    def test_binary64_matches_float_reference(self):
        backend = Binary64Backend()
        params = KalmanParams(a=0.9, q=1e-4, r=1e-2, x0=0.5, p0=0.25)
        zs, _ = sample_tracks(3, 20, seed=21, params=params)
        got = kalman_batch(zs, backend, params=params)
        for trk in range(len(zs)):
            x, p = params.x0, params.p0
            for t in range(len(zs[0])):
                xp = params.a * x
                pp = params.a * params.a * p + params.q
                k = pp / (pp + params.r)
                omk = 1.0 - k
                x = omk * xp + k * zs[trk][t]
                p = omk * pp
            assert (got[trk].x, got[trk].p) == (x, p)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_cancellation_near_sub_domain_edge(self, fmt):
        """Gain saturation: r ≪ pp drives k within one ulp of 1, so
        ``one - k`` sits right at the ``sub`` domain edge (the result
        is tiny but must stay a strictly positive probability — a
        Kalman variance of exactly zero would mean a perfect filter).
        Every format must survive the cancellation with a usable
        estimate."""
        backend = _backend(fmt)
        params = KalmanParams(a=0.9, q=1e-4, r=1e-9, x0=0.5, p0=0.25)
        zs, _ = sample_tracks(3, 10, seed=22, params=params)
        got = kalman_batch(zs, backend, params=params)
        oracle = BigFloatBackend(256)
        truth = kalman_batch(zs, oracle, params=params)
        for est, ref in zip(got, truth):
            x = backend.to_bigfloat(est.x).to_float()
            p = backend.to_bigfloat(est.p).to_float()
            assert p > 0.0, "variance must survive the cancellation"
            ref_x = oracle.to_bigfloat(ref.x).to_float()
            assert x == pytest.approx(ref_x, rel=1e-6), fmt


class TestForwardRefactorBitIdentity:
    """Satellite 1: the semiring-parameterized forward replaced the
    duplicated sum-product loops; B=1 must still be bit-identical to
    the serial scalar fold — pinned where the whole code space is hot
    (8-bit posit) and on every 64-bit format."""

    @pytest.mark.parametrize("seed", range(6))
    def test_posit8_forward_batch_vs_serial(self, seed):
        backend = PositBackend(PositEnv(8, 1))
        hmm = sample_hmm(3, 4, 16, seed=seed)
        got = forward(hmm, backend)
        want = forward(hmm, backend, plan=ExecPlan.serial())
        assert got == want

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_forward_batch_vs_serial(self, fmt):
        backend = _backend(fmt)
        hmm = sample_hmm(5, 6, 24, seed=31)
        got = forward(hmm, backend)
        want = forward(hmm, backend, plan=ExecPlan.serial())
        assert got == want

    def test_max_product_threads_through_forward_batch(self):
        backend = Binary64Backend()
        hmm = sample_hmm(4, 5, 10, seed=33)
        rng = np.random.default_rng(34)
        obs = rng.integers(0, 5, size=(4, 10))
        scores = forward_batch(hmm, backend, obs,
                               semiring="max-product")
        decoded = viterbi_batch(hmm, backend, obs)
        assert scores == [d.score for d in decoded]

    def test_unknown_semiring_rejected(self):
        backend = Binary64Backend()
        hmm = sample_hmm(3, 4, 6, seed=35)
        with pytest.raises(ValueError, match="unknown semiring"):
            forward(hmm, backend, semiring="tropical")
