"""Batched-vs-scalar equivalence across the Figure 3 formats.

One parameterized fixture supplies (scalar backend, batch backend)
pairs; every test asserts bit-for-bit (binary64, log) or element-exact
(posit) agreement, per the engine's contract.  Log-space runs in both
accumulation modes: ``sequential`` (the binary-LSE fold) and the
default n-ary Equation-3 LSE.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.apps import forward_batch, pbd_pvalue_batch
from repro.apps.hmm import forward
from repro.apps.pbd import pbd_pvalue
from repro.arith import Binary64Backend, LogSpaceBackend, PositBackend
from repro.bigfloat import BigFloat
from repro.core.accuracy import measure_op, measure_ops_batch
from repro.core.sweep import FIG3_BINS, generate_add_pairs, generate_mul_pairs
from repro.data.dirichlet import HMMData
from repro.engine import ExecPlan, batch_backend_for
from repro.formats import PositEnv

FORMATS = ["binary64", "log", "log-nary", "posit(64,9)", "posit(64,12)",
           "posit(64,18)"]


def _scalar_backend(fmt):
    if fmt == "binary64":
        return Binary64Backend()
    if fmt == "log":
        return LogSpaceBackend(sum_mode="sequential")
    if fmt == "log-nary":
        return LogSpaceBackend()
    es = int(fmt.rstrip(")").split(",")[1])
    return PositBackend(PositEnv(64, es))


@pytest.fixture(params=FORMATS)
def backend_pair(request):
    """(scalar, batch) backends mirroring one another."""
    scalar = _scalar_backend(request.param)
    batch = batch_backend_for(scalar)
    assert batch is not None
    return scalar, batch


def _pairs_for_bin(op, bin_range, count, seed):
    gen = generate_add_pairs if op == "add" else generate_mul_pairs
    return list(gen(bin_range, count, seed=seed))


@pytest.mark.parametrize("op", ["add", "mul"])
def test_ops_bit_for_bit_across_fig3_bins(backend_pair, op):
    """The core acceptance property: one batched op call per bin must
    reproduce the scalar backend exactly, in every exponent bin."""
    scalar, batch = backend_pair
    for i, bin_range in enumerate(FIG3_BINS):
        pairs = _pairs_for_bin(op, bin_range, 6, seed=i)
        xs = batch.from_bigfloats([p.x.to_bigfloat() for p in pairs])
        ys = batch.from_bigfloats([p.y.to_bigfloat() for p in pairs])
        got = batch.add(xs, ys) if op == "add" else batch.mul(xs, ys)
        for j, pair in enumerate(pairs):
            a = scalar.from_bigfloat(pair.x.to_bigfloat())
            b = scalar.from_bigfloat(pair.y.to_bigfloat())
            want = scalar.add(a, b) if op == "add" else scalar.mul(a, b)
            assert batch.item(got, j) == want, (bin_range, pair)


@pytest.mark.parametrize("op", ["add", "mul"])
def test_measure_ops_batch_matches_measure_op(backend_pair, op):
    scalar, batch = backend_pair
    bin_range = (-2_000, -1_022)
    pairs = _pairs_for_bin(op, bin_range, 12, seed=5)
    got = measure_ops_batch(batch, op, pairs)
    want = [measure_op(scalar, op, p.x, p.y, exact=p.exact) for p in pairs]
    assert got == want


def test_forward_batch_equals_scalar(backend_pair):
    from repro.data.dirichlet import sample_hmm
    scalar, _batch = backend_pair
    hmm = sample_hmm(5, 6, 15, seed=11)
    rng = np.random.default_rng(12)
    obs = rng.integers(0, 6, size=(4, 15))
    got = forward_batch(hmm, scalar, obs)
    for i in range(obs.shape[0]):
        want = forward(hmm, scalar,
                       observations=tuple(int(o) for o in obs[i]),
                       plan=ExecPlan.serial())
        assert got[i] == want


def test_pbd_batch_equals_scalar(backend_pair):
    scalar, _batch = backend_pair
    rng = np.random.default_rng(13)
    sites = [[BigFloat.from_float(float(p))
              for p in rng.uniform(1e-6, 0.3, 30)] for _ in range(4)]
    got = pbd_pvalue_batch(sites, 3, scalar)
    want = [pbd_pvalue(row, 3, scalar, plan=ExecPlan.serial())
            for row in sites]
    assert got == want


def test_forward_batch_deep_underflow_regime():
    """A compressed-magnitude HMM drives likelihoods far below
    binary64's range — the regimes where the formats diverge; batched
    results must still track the scalar backends exactly."""
    from repro.data.dirichlet import sample_hcg_like_hmm
    hmm = sample_hcg_like_hmm(4, 12, seed=21, bits_per_step=200.0)
    obs = np.array([hmm.observations, hmm.observations[::-1]])
    for fmt in ("binary64", "log", "log-nary", "posit(64,9)"):
        scalar = _scalar_backend(fmt)
        got = forward_batch(hmm, scalar, obs)
        for i in range(2):
            want = forward(hmm, scalar,
                           observations=tuple(int(o) for o in obs[i]),
                           plan=ExecPlan.serial())
            assert got[i] == want, fmt


def test_default_log_backend_batch_forward_equals_scalar_bitwise():
    """With the default n-ary sum mode the batch forward equals the
    scalar Equation-3 dataflow bit for bit."""
    from repro.data.dirichlet import sample_hmm
    scalar = LogSpaceBackend()  # nary
    hmm = sample_hmm(4, 5, 20, seed=3)
    obs = np.array([hmm.observations])
    got = forward_batch(hmm, scalar, obs)[0]
    want = forward(hmm, scalar, plan=ExecPlan.serial())
    assert got == want


@pytest.mark.parametrize("sum_mode", ["nary", "sequential"])
def test_log_entry_points_agree_across_plans(sum_mode):
    """Every HMM entry point, B=1 view or explicit batch, gives one
    value under the batch and the serial plan in either log-space sum
    mode: the scalar views are the batch kernels at B=1, and both
    planes run the same LSE."""
    from repro.apps.hmm import forward_models_batch
    from repro.apps.hmm_extra import backward, backward_batch
    from repro.data.dirichlet import sample_hcg_like_hmm
    from repro.workloads.viterbi import viterbi, viterbi_batch
    scalar = LogSpaceBackend(sum_mode=sum_mode)
    hmm = sample_hcg_like_hmm(6, 16, seed=4, bits_per_step=80.0)
    obs = [hmm.observations]
    likes, betas, paths = set(), set(), set()
    for plan in (ExecPlan(), ExecPlan.serial()):
        likes |= {forward(hmm, scalar, plan=plan),
                  forward_batch(hmm, scalar, obs, plan=plan)[0],
                  forward_models_batch([hmm], scalar, plan=plan)[0]}
        betas |= {backward(hmm, scalar, plan=plan),
                  backward_batch(hmm, scalar, obs, plan=plan)[0]}
        for path in (viterbi(hmm, scalar, plan=plan),
                     viterbi_batch(hmm, scalar, obs, plan=plan)[0]):
            paths.add((path.score, tuple(path.states())))
    assert len(likes) == 1 and len(betas) == 1 and len(paths) == 1


def _near_uniform_hmm(n_states, n_symbols, length, n_seqs, seed):
    """An HMM whose every row is uniform within 5% (normalised), with
    ``n_seqs`` observation sequences.  Each step's LSE terms then sit
    within a few units of their max, so a last-bit difference in one
    ``exp`` survives the sum: the app-level fixture that tells two exp
    kernels apart."""
    rng = np.random.default_rng(seed)

    def rows(n_rows, n_cols):
        v = rng.uniform(0.95, 1.05, size=(n_rows, n_cols))
        v /= v.sum(axis=1, keepdims=True)
        return tuple(tuple(BigFloat.from_float(float(x)) for x in row)
                     for row in v)

    obs = rng.integers(0, n_symbols, size=(n_seqs, length))
    hmm = HMMData(rows(n_states, n_states), rows(n_states, n_symbols),
                  rows(1, n_states)[0], tuple(int(o) for o in obs[0]))
    return hmm, obs


@pytest.mark.parametrize("n_states", [4, 8])
def test_near_uniform_log_forward_agrees_across_plans(n_states):
    """n-ary log forward over near-uniform models, 10 seeds x 8
    sequences: the batch plane's fold and the scalar plane's ``lse_n``
    must agree in every lane."""
    scalar = LogSpaceBackend()  # nary
    for seed in range(10):
        hmm, obs = _near_uniform_hmm(n_states, 2, 16, 8, seed)
        assert forward_batch(hmm, scalar, obs, plan=ExecPlan()) == \
            forward_batch(hmm, scalar, obs, plan=ExecPlan.serial()), seed


def _nd_counts(run, plan) -> tuple:
    """``run(plan)``'s ``nd.<op>.<format>`` element counts, keyed
    without the plane suffix, plus the set of planes they ran on."""
    with telemetry.collect() as col:
        run(plan)
    counts = {name.rsplit(".", 1)[0]: n
              for name, n in col.counters.items() if name.startswith("nd.")}
    planes = {name.rsplit(".", 1)[1]
              for name in col.counters if name.startswith("nd.")}
    return counts, planes


def _posit_entry_points():
    from repro.data.dirichlet import sample_hmm
    from repro.workloads.kalman import kalman_batch
    from repro.workloads.viterbi import viterbi_batch
    scalar = _scalar_backend("posit(64,12)")
    hmm = sample_hmm(4, 5, 12, seed=7)
    obs = np.random.default_rng(8).integers(0, 5, size=(3, 12))
    rng = np.random.default_rng(9)
    sites = [[BigFloat.from_float(float(p))
              for p in rng.uniform(1e-4, 0.3, 10)] for _ in range(3)]
    tracks = rng.uniform(0.5, 2.0, size=(2, 8))
    return {
        "forward": lambda plan: forward_batch(hmm, scalar, obs, plan=plan),
        "pbd": lambda plan: pbd_pvalue_batch(sites, 2, scalar, plan=plan),
        "viterbi": lambda plan: viterbi_batch(hmm, scalar, obs, plan=plan),
        "kalman": lambda plan: kalman_batch(tracks, scalar, plan=plan),
    }


@pytest.mark.parametrize("entry", ["forward", "pbd", "viterbi", "kalman"])
def test_scalar_plane_counts_the_batch_plane_ops(entry):
    """One dispatch path: under ``ExecPlan.serial()`` every nd op runs
    on the scalar plane and counts the same ``nd.<op>.<format>``
    elements the batch plane counts under ``ExecPlan()`` (a dot is one
    dot, not a mul and a sum)."""
    run = _posit_entry_points()[entry]
    serial, serial_planes = _nd_counts(run, ExecPlan.serial())
    batch, batch_planes = _nd_counts(run, ExecPlan())
    assert serial_planes == {"scalar"} and batch_planes == {"batch"}
    assert serial == batch
