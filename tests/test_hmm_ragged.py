"""Ragged HMM batches run in one call: each lane retires at its own
length, so a batch of unequal sequences (``forward_batch``,
``backward_batch``) or of models of unequal shapes
(``forward_models_batch``) equals one call per sequence or model — bit
for bit, in exceptional-event tallies and in ``nd.*`` element counters
— while opening one kernel span (one per distinct state count for
models)."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.apps import pbd_pvalue_batch
from repro.apps.hmm import forward, forward_batch, forward_models_batch
from repro.apps.hmm_extra import backward_batch
from repro.arith.registry import REGISTRY
from repro.data import sample_hcg_like_hmm, sample_hmm
from repro.engine import ExecPlan

#: Every batched format family, both posit(16,1) underflow modes (a
#: width that flushes and saturates on these models), and the oracle.
FORMATS = {"binary64": {}, "log": {}, "posit(64,12)": {},
           "posit(16,1)-flush": {"underflow": "flush"},
           "posit(16,1)-saturate": {"underflow": "saturate"},
           "lns(12,50)": {}, "bigfloat128": {}}
PLANS = {"batch": ExecPlan(), "serial": ExecPlan.serial()}
EVERY_FORMAT_AND_PLAN = pytest.mark.parametrize(
    "fmt,plan", [(f, p) for f in FORMATS for p in PLANS])


def _backend(fmt: str):
    return REGISTRY.create(fmt.split("-")[0], **FORMATS[fmt])


def _work(fn) -> tuple:
    """``fn()``'s result with the events and ``nd.*`` counters it
    tallied."""
    with telemetry.collect() as col:
        out = fn()
    return out, Counter(col.events), Counter(
        {k: n for k, n in col.counters.items() if k.startswith("nd.")})


def _assert_one_call_equals_many(batched, solos) -> None:
    values, events, counters = batched
    assert values == [v for out, _, _ in solos for v in out]
    assert events == sum((e for _, e, _ in solos), Counter())
    assert counters == sum((c for _, _, c in solos), Counter())


def _spans(fn, name: str) -> int:
    with telemetry.collect() as col:
        fn()
    return col.spans[name][0]


@EVERY_FORMAT_AND_PLAN
@settings(max_examples=12, deadline=None)
@given(h=st.integers(2, 4), seed=st.integers(0, 20),
       bits=st.sampled_from((2.0, 6.0, 30.0)),
       cuts=st.lists(st.integers(1, 14), min_size=1, max_size=5))
# In posit(16,1) flush mode the lane that ends at T = 7 flushes once in
# its last step; one more (discarded) step past it would flush again.
@example(h=4, seed=3, bits=6.0, cuts=[30, 7])
def test_ragged_sequences_equal_per_sequence_calls(fmt, plan, h, seed, bits,
                                                   cuts):
    backend, plan = _backend(fmt), PLANS[plan]
    hmm = sample_hcg_like_hmm(h, max(cuts), seed=seed, bits_per_step=bits)
    seqs = [hmm.observations[:t] for t in cuts]
    for batch in (forward_batch, backward_batch):
        _assert_one_call_equals_many(
            _work(lambda: batch(hmm, backend, seqs, plan=plan)),
            [_work(lambda: batch(hmm, backend, [s], plan=plan))
             for s in seqs])


@EVERY_FORMAT_AND_PLAN
@settings(max_examples=8, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(2, 3), st.integers(2, 5),
                                 st.integers(1, 12), st.integers(0, 99)),
                       min_size=1, max_size=5))
def test_mixed_shape_models_equal_per_model_calls(fmt, plan, shapes):
    backend, plan = _backend(fmt), PLANS[plan]
    models = [sample_hmm(h, m, t, seed=seed) for h, m, t, seed in shapes]
    _assert_one_call_equals_many(
        _work(lambda: forward_models_batch(models, backend, plan)),
        [_work(lambda: [forward(m, backend, plan=plan)]) for m in models])


class TestOneSpanPerBatch:
    """A ragged batch is one kernel call, not one per sequence or
    shape."""

    HMM = sample_hmm(3, 4, 12, seed=1)
    RAGGED = [HMM.observations, HMM.observations[:5], HMM.observations[:9]]

    @pytest.mark.parametrize("name", ("posit(64,12)", "bigfloat128"))
    @pytest.mark.parametrize("batch,span", [
        (forward_batch, "app.hmm.forward"),
        (backward_batch, "app.hmm.backward")], ids=("forward", "backward"))
    def test_ragged_batch_opens_one_span(self, batch, span, name):
        backend = REGISTRY.create(name)
        assert _spans(lambda: batch(self.HMM, backend, self.RAGGED),
                      span) == 1

    def test_models_open_one_span_per_state_count(self):
        models = [sample_hmm(2, 3, 5, seed=0), sample_hmm(3, 3, 5, seed=1),
                  sample_hmm(2, 4, 8, seed=2), sample_hmm(3, 2, 3, seed=3),
                  sample_hmm(2, 3, 2, seed=4)]
        backend = REGISTRY.create("posit(64,12)")
        assert _spans(lambda: forward_models_batch(models, backend),
                      "app.hmm.forward_models") == 2


def test_empty_batches_return_empty_lists():
    hmm = sample_hmm(2, 3, 4, seed=0)
    backend = REGISTRY.create("posit(64,12)")
    assert forward_batch(hmm, backend, []) == []
    assert backward_batch(hmm, backend, []) == []
    assert forward_models_batch([], backend) == []
    assert pbd_pvalue_batch([], 1, backend) == []
