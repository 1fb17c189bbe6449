"""The format registry: construction, scalar<->batch pairing, and
capability flags — plus the inversion acceptance property that the
canonical batch-of-one path equals the legacy scalar path for every
registered format (bit-for-bit for binary64/log, element-exact for
posit/LNS).
"""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.arith import (
    BIT_IDENTICAL,
    ELEMENT_EXACT,
    ORACLE,
    REGISTRY,
    STANDARD_FORMATS,
    Backend,
    FormatRegistry,
    standard_backends,
)
from repro.bigfloat import BigFloat
from repro.engine import ExecPlan, batch_backend_for, standard_batch_backends

ALL_FORMATS = sorted(REGISTRY.names())


def _equivalence_backends(name):
    """The instances an equivalence test runs: the default one, plus
    the sequential sum mode for log-space."""
    if name == "log":
        return [REGISTRY.create(name),
                REGISTRY.create(name, sum_mode="sequential")]
    return [REGISTRY.create(name)]


@pytest.mark.parametrize("name", ALL_FORMATS)
class TestRoundTrip:
    def test_create_and_pair(self, name):
        caps = REGISTRY.capabilities(name)
        backend, batch = REGISTRY.create_pair(name)
        assert isinstance(backend, Backend)
        assert backend.name == name
        assert (batch is not None) == caps.batch
        if batch is not None:
            assert batch.scalar is backend
            assert batch.name == backend.name

    def test_exactness_class_is_declared(self, name):
        caps = REGISTRY.capabilities(name)
        assert caps.exactness in (BIT_IDENTICAL, ELEMENT_EXACT, ORACLE)
        # Oracle <=> no array implementation.
        assert (caps.exactness == ORACLE) == (not caps.batch)

    def test_values_round_trip_through_the_pair(self, name):
        """from_bigfloat on the scalar side == from_bigfloats + item on
        the batch side, for probability-magnitude inputs."""
        backend, batch = REGISTRY.create_pair(name)
        if batch is None:
            pytest.skip(f"{name} has no batch mirror")
        probs = [BigFloat.exp2(-s) for s in (0, 7, 40, 900, 4000)]
        arr = batch.from_bigfloats(probs)
        for i, p in enumerate(probs):
            assert batch.item(arr, i) == backend.from_bigfloat(p)

    def test_batch_of_one_equals_legacy_scalar_forward(self, name):
        """The inversion acceptance property: the canonical plan (batch
        kernels, B=1) reproduces the legacy scalar recurrence exactly —
        bit-for-bit (binary64, log in both sum modes), element-exact
        (posit, LNS) — on a deep-underflow forward workload."""
        from repro.apps.hmm import forward
        from repro.data.dirichlet import sample_hcg_like_hmm
        hmm = sample_hcg_like_hmm(4, 12, seed=3, bits_per_step=150.0)
        for backend in _equivalence_backends(name):
            canonical = forward(hmm, backend)
            legacy = forward(hmm, backend, plan=ExecPlan.serial())
            assert canonical == legacy

    def test_batch_of_one_equals_legacy_scalar_pbd(self, name):
        from repro.apps.pbd import pbd_pvalue
        rng = np.random.default_rng(11)
        probs = [BigFloat.from_float(float(p))
                 for p in rng.uniform(1e-8, 0.2, 25)]
        for backend in _equivalence_backends(name):
            canonical = pbd_pvalue(probs, 3, backend)
            legacy = pbd_pvalue(probs, 3, backend, plan=ExecPlan.serial())
            assert canonical == legacy

    def test_batch_of_one_equals_legacy_scalar_backward(self, name):
        from repro.apps.hmm_extra import backward
        from repro.data.dirichlet import sample_hcg_like_hmm
        hmm = sample_hcg_like_hmm(3, 10, seed=5, bits_per_step=120.0)
        for backend in _equivalence_backends(name):
            canonical = backward(hmm, backend)
            legacy = backward(hmm, backend, plan=ExecPlan.serial())
            assert canonical == legacy


@pytest.mark.parametrize("name", ALL_FORMATS)
class TestNdFrontEndEquivalence:
    """The api-redesign acceptance property: hand-written ``repro.nd``
    expressions reproduce the app entry points bit-identically
    (binary64, log in both sum modes) / element-exactly (posit, LNS) —
    under the canonical plan *and* the serial baseline."""

    def _workload(self):
        from repro.data.dirichlet import sample_hcg_like_hmm
        return sample_hcg_like_hmm(4, 12, seed=3, bits_per_step=150.0)

    def _forward_expression(self, hmm, backend, plan):
        import repro.nd as nd
        from repro.apps.hmm import model_arrays
        a, b, pi = model_arrays(hmm, backend, plan=plan)
        obs = list(hmm.observations)
        alpha = pi * b[:, obs[0]]
        for ot in obs[1:]:
            alpha = nd.sum(alpha[:, None] * a, axis=0) * b[:, ot]
        return nd.sum(alpha).item()

    def test_nd_forward_matches_app_both_plans(self, name):
        from repro.apps.hmm import forward
        hmm = self._workload()
        for backend in _equivalence_backends(name):
            reference = forward(hmm, backend)
            for plan in (ExecPlan(), ExecPlan.serial()):
                assert self._forward_expression(hmm, backend, plan) \
                    == reference

    def test_nd_backward_matches_app_both_plans(self, name):
        import repro.nd as nd
        from repro.apps.hmm import model_arrays
        from repro.apps.hmm_extra import backward
        hmm = self._workload()
        obs = list(hmm.observations)
        for backend in _equivalence_backends(name):
            reference = backward(hmm, backend)
            for plan in (ExecPlan(), ExecPlan.serial()):
                a, b, pi = model_arrays(hmm, backend, plan=plan)
                beta = nd.ones_like(a, (len(pi),))
                for t in range(len(obs) - 1, 0, -1):
                    beta = nd.sum(a * (b[:, obs[t]] * beta)[None, :],
                                  axis=1)
                got = nd.sum(pi * (b[:, obs[0]] * beta)).item()
                assert got == reference

    def test_nd_pbd_matches_app_both_plans(self, name):
        import repro.nd as nd
        from repro.apps.pbd import complement, pbd_pvalue
        rng = np.random.default_rng(11)
        probs = [BigFloat.from_float(float(p))
                 for p in rng.uniform(1e-8, 0.2, 25)]
        k = 3
        for backend in _equivalence_backends(name):
            reference = pbd_pvalue(probs, k, backend)
            for plan in (ExecPlan(), ExecPlan.serial()):
                pn = nd.asarray(probs, backend, plan=plan)
                qn = nd.asarray([complement(p) for p in probs], backend,
                                plan=plan)
                pr = nd.concatenate([nd.ones_like(pn, (1,)),
                                     nd.zeros_like(pn, (k - 1,))])
                pvalue = nd.zeros_like(pn, ())
                for n in range(len(probs)):
                    if n >= k - 1:
                        pvalue = pvalue + pr[k - 1] * pn[n]
                    shifted = nd.concatenate([nd.zeros_like(pn, (1,)),
                                              pr[:-1]])
                    pr = pr * qn[n] + shifted * pn[n]
                assert pvalue.item() == reference


class TestRegistryDescribe:
    def test_describe_lists_every_format(self):
        table = REGISTRY.describe()
        for name in ALL_FORMATS:
            assert name in table
        assert "element-exact" in table and "oracle" in table

    def test_reprs_are_informative(self):
        assert "7 formats" in repr(REGISTRY)
        spec = REGISTRY.spec("posit(64,9)")
        assert "posit(64,9)" in repr(spec) and "standard" in repr(spec)
        assert repr(spec.caps) == "<caps element-exact batched width<=64>"


class TestCapabilityTable:
    def test_posit_flags(self):
        caps = REGISTRY.capabilities("posit(64,12)")
        assert caps.max_width == 64
        assert caps.batch
        assert caps.exactness == ELEMENT_EXACT

    def test_log_flags(self):
        caps = REGISTRY.capabilities("log")
        assert caps.exactness == BIT_IDENTICAL
        assert repr(caps) == "<caps bit-identical batched width<=64>"
        # Both sum modes pair with a mirror of the same mode.
        for mode in ("nary", "sequential"):
            backend = REGISTRY.create("log", sum_mode=mode)
            assert REGISTRY.batch_for(backend).sum_mode == mode

    def test_oracle_flags(self):
        caps = REGISTRY.capabilities("bigfloat256")
        assert caps.exactness == ORACLE
        assert caps.max_width is None
        assert not caps.batch

    def test_lns_flags(self):
        caps = REGISTRY.capabilities("lns(12,50)")
        assert caps.exactness == ELEMENT_EXACT
        assert caps.max_width == 64  # 2 + 12 + 50 code bits


class TestRegistryApi:
    def test_standard_names_and_order(self):
        assert tuple(REGISTRY.standard()) == STANDARD_FORMATS
        assert set(REGISTRY.standard_names()) == set(STANDARD_FORMATS)

    def test_standard_backends_delegates(self):
        legacy = standard_backends(underflow="flush")
        via_registry = REGISTRY.standard(underflow="flush")
        assert {n: type(b).__name__ for n, b in legacy.items()} \
            == {n: type(b).__name__ for n, b in via_registry.items()}
        for name in ("posit(64,9)", "posit(64,12)", "posit(64,18)"):
            assert legacy[name].env.underflow == "flush"
            assert via_registry[name].env.underflow == "flush"

    def test_standard_batch_backends_delegates(self):
        batches = standard_batch_backends()
        assert set(batches) == set(STANDARD_FORMATS)
        for name, mirror in batches.items():
            assert mirror is not None and mirror.name == name

    def test_engine_pairing_delegates(self):
        backend = REGISTRY.create("posit(64,18)")
        assert type(batch_backend_for(backend)).__name__ == "BatchPosit"

    def test_dynamic_posit_and_lns_names(self):
        assert REGISTRY.create("posit(16,1)").env.nbits == 16
        assert REGISTRY.capabilities("posit(32,6)").max_width == 32
        assert REGISTRY.create("lns(4,8)").env.frac_bits == 8
        assert REGISTRY.create("bigfloat128").prec == 128

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            REGISTRY.create("binary32")

    def test_duplicate_registration_rejected(self):
        fresh = FormatRegistry()
        spec = REGISTRY.spec("binary64")
        fresh.register(spec)
        with pytest.raises(ValueError):
            fresh.register(spec)

    def test_oracle_has_no_pairing(self):
        assert batch_backend_for(REGISTRY.create("bigfloat256")) is None

    def test_pairing_is_memoized_per_backend(self):
        """Mirrors carry state (BatchLNS's exact sb memo), so repeated
        pairing of the same scalar backend must return the same
        mirror — while distinct backends get distinct mirrors."""
        one = REGISTRY.create("lns(12,50)")
        other = REGISTRY.create("lns(12,50)")
        assert REGISTRY.batch_for(one) is REGISTRY.batch_for(one)
        assert REGISTRY.batch_for(one) is not REGISTRY.batch_for(other)

    @pytest.mark.parametrize("name", ["posit(64,12)", "lns(12,50)",
                                      "binary64"])
    def test_mirror_is_freed_with_its_backend(self, name):
        """A mirror holds its backend, so the memo must not outlive the
        backend: a process that builds backends per call (every
        experiment run) would otherwise keep every mirror forever."""
        backend = REGISTRY.create(name)
        mirror = weakref.ref(REGISTRY.batch_for(backend))
        del backend
        gc.collect()
        assert mirror() is None

    def test_paired_backend_pickles_without_its_mirror(self):
        """Worker pools pickle backends: the memo travels empty and the
        worker's copy builds its own mirror."""
        backend = REGISTRY.create("lns(12,50)")
        mirror = REGISTRY.batch_for(backend)
        copy = pickle.loads(pickle.dumps(backend))
        assert REGISTRY.batch_for(copy) is not mirror
        assert REGISTRY.batch_for(copy).scalar is copy
