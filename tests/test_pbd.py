"""Poisson-binomial tests: closed-form checks, scipy cross-validation,
fast-path equivalence, and deep-tail behaviour per format."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro import telemetry
from repro.arith import (
    BigFloatBackend,
    Binary64Backend,
    LNSBackend,
    LogSpaceBackend,
    PositBackend,
)
from repro.apps import (
    complement,
    pbd_pmf,
    pbd_pvalue,
    pbd_pvalue_batch,
    pbd_pvalue_float,
    pbd_pvalue_log,
    reference_pvalue,
)
from repro.bigfloat import BigFloat, relative_error
from repro.engine import ExecPlan
from repro.formats import PositEnv


def bf_probs(values):
    return [BigFloat.from_float(v) for v in values]


class TestPMF:
    def test_uniform_probs_match_binomial(self):
        """With identical p the PBD is a plain binomial."""
        n, p = 12, 0.3
        pmf = pbd_pmf(bf_probs([p] * n), n, Binary64Backend())
        for k in range(n + 1):
            expected = stats.binom.pmf(k, n, p)
            assert math.isclose(pmf[k], expected, rel_tol=1e-10), k

    def test_pmf_sums_to_one(self):
        probs = [0.1, 0.5, 0.9, 0.25]
        pmf = pbd_pmf(bf_probs(probs), 4, BigFloatBackend())
        total = BigFloat.zero()
        for v in pmf:
            total = total.add(v)
        assert relative_error(BigFloat.from_int(1), total).to_float() < 1e-60

    def test_two_trials_closed_form(self):
        p1, p2 = 0.2, 0.7
        pmf = pbd_pmf(bf_probs([p1, p2]), 2, Binary64Backend())
        assert math.isclose(pmf[0], (1 - p1) * (1 - p2), rel_tol=1e-14)
        assert math.isclose(pmf[1], p1 * (1 - p2) + p2 * (1 - p1), rel_tol=1e-14)
        assert math.isclose(pmf[2], p1 * p2, rel_tol=1e-14)


class TestPValue:
    def test_binomial_survival_function(self):
        """P(X >= k) must equal scipy's binomial survival function."""
        n, p, k = 20, 0.2, 5
        got = pbd_pvalue(bf_probs([p] * n), k, Binary64Backend())
        expected = stats.binom.sf(k - 1, n, p)
        assert math.isclose(got, expected, rel_tol=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_heterogeneous_vs_monte_carlo_free_oracle(self, k):
        """Cross-check the recurrence against direct enumeration."""
        probs = [0.05, 0.3, 0.5, 0.12, 0.41, 0.09, 0.77]
        got = pbd_pvalue(bf_probs(probs), k, BigFloatBackend()).to_float()
        # Enumerate all outcomes.
        import itertools
        total = 0.0
        for bits in itertools.product((0, 1), repeat=len(probs)):
            if sum(bits) >= k:
                prob = 1.0
                for b, p in zip(bits, probs):
                    prob *= p if b else (1 - p)
                total += prob
        assert math.isclose(got, total, rel_tol=1e-12)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            pbd_pvalue(bf_probs([0.5]), 0, Binary64Backend())
        with pytest.raises(ValueError):
            pbd_pvalue(bf_probs([0.5]), 2, Binary64Backend())

    def test_certain_successes(self):
        """All p=1 with k=N gives p-value 1."""
        got = pbd_pvalue(bf_probs([1.0] * 5), 5, BigFloatBackend())
        assert got == BigFloat.from_int(1)

    def test_pvalue_decreases_with_k(self):
        probs = bf_probs([0.3] * 15)
        backend = BigFloatBackend()
        values = [pbd_pvalue(probs, k, backend) for k in (2, 5, 9)]
        assert values[0] > values[1] > values[2]


class TestFastPaths:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_float_fast_path_matches_generic(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.001, 0.2, size=30)
        k = 4
        generic = pbd_pvalue(bf_probs(list(probs)), k, Binary64Backend())
        fast = pbd_pvalue_float(probs, k)
        assert math.isclose(generic, fast, rel_tol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_log_fast_path_matches_generic(self, seed):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.001, 0.2, size=30)
        k = 4
        generic = pbd_pvalue(bf_probs(list(probs)), k, LogSpaceBackend())
        fast = pbd_pvalue_log(probs, k)
        assert math.isclose(generic, fast, rel_tol=1e-9)

    def test_deep_tail_float_underflow_log_survives(self):
        probs = np.full(40, 1e-30)
        k = 30
        assert pbd_pvalue_float(probs, k) == 0.0
        ll = pbd_pvalue_log(probs, k)
        assert math.isfinite(ll)
        assert ll < -2000


class TestDeepTails:
    def test_reference_reaches_extreme_scale(self):
        """The oracle must reach p-values far below binary64's range."""
        probs = [BigFloat.exp2(-120)] * 40
        ref = reference_pvalue(probs, 30)
        assert ref.scale < -3000

    def test_posit18_tracks_reference(self):
        probs = [BigFloat.exp2(-120)] * 30
        backend = PositBackend(PositEnv(64, 18))
        ref = reference_pvalue(probs, 20)
        got = backend.to_bigfloat(pbd_pvalue(probs, 20, backend))
        assert relative_error(ref, got).to_float() < 1e-9

    def test_posit9_flush_underflows_deep(self):
        probs = [BigFloat.exp2(-2_000)] * 24
        backend = PositBackend(PositEnv(64, 9, underflow="flush"))
        got = pbd_pvalue(probs, 20, backend)
        assert backend.is_zero(got)

    def test_complement_exact(self):
        p = BigFloat.from_float(0.125)
        assert complement(p) == BigFloat.from_float(0.875)

    def test_complement_validates_domain(self):
        with pytest.raises(ValueError):
            complement(BigFloat.from_float(1.5))
        with pytest.raises(ValueError):
            complement(BigFloat.from_float(-0.1))

    def test_complement_boundaries(self):
        assert complement(BigFloat.zero()) == BigFloat.from_int(1)
        assert complement(BigFloat.from_int(1)).is_zero()


#: Every batched format, in both posit underflow modes and both
#: log-space sum modes.
RAGGED_BACKENDS = [Binary64Backend(), LogSpaceBackend(),
                   LogSpaceBackend(sum_mode="sequential"), LNSBackend()] + [
    PositBackend(PositEnv(64, es, underflow))
    for es in (9, 12, 18) for underflow in ("flush", "saturate")]


@st.composite
def _ragged_sites(draw):
    """1-4 sites of depth 1-12 with one k each (1, the depth, or in
    between), and probabilities down to 2**-6000, deep enough for the
    p-values to flush posit(64,9) (minpos 2**-31744)."""
    sites, ks = [], []
    for _ in range(draw(st.integers(1, 4))):
        depth = draw(st.integers(1, 12))
        sites.append([BigFloat.from_float(draw(st.floats(0.5, 1.0)))
                      .mul(BigFloat.exp2(-draw(st.integers(0, 6000))))
                      for _ in range(depth)])
        ks.append(draw(st.sampled_from([1, depth, draw(
            st.integers(1, depth))])))
    return sites, ks


def _ragged_matches_per_site(sites, ks, plan):
    """One ragged call equals one call per site, in every batched
    format: values (as exact BigFloats) and summed event tallies."""
    for backend in RAGGED_BACKENDS:
        with telemetry.collect() as one_call:
            got = pbd_pvalue_batch(sites, ks, backend, plan=plan)
        with telemetry.collect() as per_site:
            want = [pbd_pvalue(row, k, backend, plan=plan)
                    for row, k in zip(sites, ks)]
        assert [backend.to_bigfloat(v) for v in got] == \
            [backend.to_bigfloat(v) for v in want], backend.name
        assert one_call.events == per_site.events, backend.name
        assert one_call.spans["app.pbd"][0] == 1


_P = BigFloat.from_float(0.25).mul(BigFloat.exp2(-2000))
_Q = BigFloat.from_float(0.75)
_DEEP = BigFloat.exp2(-3000)


class TestRaggedBatch:
    """``pbd_pvalue_batch`` over sites of mixed depths and ``k``s is one
    padded call with the same bits and events as a call per site."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(_ragged_sites())
    @example(([[_Q, _P, _Q]], [1]))                       # k = 1
    @example(([[_P] * 5, [_Q, _P]], [5, 2]))              # k = depth
    @example(([[_P], [_Q] * 4, [_P, _P]], [1, 3, 2]))     # depth = 1
    @example(([[_P, _Q, _P]] * 2, [2, 2]))                # identical sites
    def test_ragged_equals_per_site(self, case):
        _ragged_matches_per_site(*case, ExecPlan())

    def test_flush_events_match_per_site(self):
        """A site below posit(64,9)'s minpos beside live ones: the one
        call tallies exactly the per-site underflow events (``posit.
        flush`` in both modes: saturate clamps the same rounding)."""
        sites, ks = [[_DEEP] * 12, [_Q, _P], [_P] * 3], [12, 1, 2]
        _ragged_matches_per_site(sites, ks, ExecPlan())
        for underflow in ("flush", "saturate"):
            with telemetry.collect() as col:
                pbd_pvalue_batch(sites, ks, PositBackend(
                    PositEnv(64, 9, underflow)))
            assert col.events.get("posit.flush", 0) > 0, underflow

    def test_ragged_equals_per_site_serial(self):
        _ragged_matches_per_site([[_P] * 4, [_Q, _P], [_P, _Q, _Q]],
                                 [3, 1, 2], ExecPlan.serial())

    def test_each_site_needs_its_k_trials(self):
        with pytest.raises(ValueError, match="at least k trials"):
            pbd_pvalue_batch([[_P] * 4, [_Q]], [2, 2], Binary64Backend())
        with pytest.raises(ValueError, match="k must be"):
            pbd_pvalue_batch([[_P] * 4, [_Q]], [2, 0], Binary64Backend())
