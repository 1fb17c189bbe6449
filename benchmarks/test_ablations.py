"""Ablation benchmarks for the design choices the paper makes in
passing.

Each one isolates such a claim and measures it:

1. LSE stability: Equation (2) vs the naive Equation (1).
2. Posit rounding policy: saturate vs flush on deep-tail p-values.
3. ES sweep: accuracy vs ES beyond the paper's three configs.
4. n-ary LSE vs sequential fold accumulation error.
5. Rescaling (the related-work alternative) vs log-space.
6. DFT-CF (the paper's ref [32]) vs the recurrence, bulk and deep tail.
7. Viterbi's op mix: log-space max-product needs no LSE.
"""

import math

import numpy as np

from repro.apps import forward_float, forward_log, forward_rescaled, pbd_pvalue
from repro.arith import BigFloatBackend, PositBackend
from repro.bigfloat import BigFloat, log10_relative_error
from repro.core import measure_op
from repro.data import sample_hmm
from repro.formats import PositEnv, Real, lse2, lse2_naive, lse_n, lse_sequential
from repro.report import render_table


def test_lse_stability_ablation(benchmark, report):
    """Equation (2) never overflows/underflows where Equation (1) does."""
    pairs = [(-1000.0, -999.0), (-5000.0, -5001.0), (800.0, 801.0)]

    def run():
        return [(lse2(a, b), lse2_naive(a, b)) for a, b in pairs]

    results = benchmark(run)
    rows = []
    for (a, b), (stable, naive) in zip(pairs, results):
        rows.append({"lx": a, "ly": b, "LSE (eq 2)": stable,
                     "naive (eq 1)": naive,
                     "naive failed": not math.isfinite(naive)})
    report("Ablation: LSE vs naive log(exp+exp)", render_table(rows))
    for (_, _), (stable, naive) in zip(pairs, results):
        assert math.isfinite(stable)
    assert sum(1 for _, n in results if not math.isfinite(n)) == 3


def test_underflow_policy_ablation(benchmark, report):
    """Saturate yields huge-but-finite errors; flush yields underflow.
    Both behaviours appear in the paper's Section VI.D discussion."""
    probs = [BigFloat.exp2(-2_000)] * 24
    k = 20

    def run():
        out = {}
        for mode in ("saturate", "flush"):
            backend = PositBackend(PositEnv(64, 9, underflow=mode))
            out[mode] = pbd_pvalue(probs, k, backend)
        return out

    values = benchmark.pedantic(run, rounds=1, iterations=1)
    ref = pbd_pvalue(probs, k, BigFloatBackend())
    sat_backend = PositBackend(PositEnv(64, 9, underflow="saturate"))
    sat_err = log10_relative_error(ref, sat_backend.to_bigfloat(values["saturate"]))
    report("Ablation: posit underflow policy", render_table([
        {"mode": "saturate", "result": "minpos-clamped",
         "log10 rel err": sat_err},
        {"mode": "flush", "result": "underflowed to 0",
         "log10 rel err": None},
    ]))
    flush_backend = PositBackend(PositEnv(64, 9, underflow="flush"))
    assert flush_backend.is_zero(values["flush"])
    assert not sat_backend.is_zero(values["saturate"])
    assert sat_err > 10.0  # saturation error is enormous, not silent


def test_es_sweep_ablation(benchmark, report):
    """Accuracy vs ES at two magnitudes: small ES wins near 1.0, large
    ES wins at extreme magnitudes — Table I's trade-off measured."""
    es_values = (6, 9, 12, 15, 18, 21)
    shallow = Real(0, (1 << 60) + 12345, -64 - 60)  # scale ~ -64
    deep = Real(0, (1 << 60) + 54321, -200_000 - 60)  # scale ~ -200k

    def run():
        rows = []
        for es in es_values:
            backend = PositBackend(PositEnv(64, es))
            row = {"ES": es}
            row["err @2^-64"] = measure_op(backend, "add", shallow,
                                           shallow).log10_error
            res = measure_op(backend, "mul", deep, shallow)
            row["err @2^-200k"] = res.log10_error if res.ok else None
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Ablation: ES sweep", render_table(rows))
    assert rows[0]["err @2^-64"] < rows[-1]["err @2^-64"]  # small ES wins
    deep_errs = [(r["ES"], r["err @2^-200k"]) for r in rows
                 if r["err @2^-200k"] is not None and r["err @2^-200k"] < 0]
    assert all(es >= 12 for es, _ in deep_errs)  # only large ES survives


def test_lse_tree_vs_sequential(benchmark, report):
    """The n-ary LSE (Equation 3 / the accelerator's reduction) vs a
    sequential fold of binary LSEs: both accurate, n-ary slightly
    better-conditioned and cheaper in ops."""
    rng = np.random.default_rng(7)
    batches = [list(rng.uniform(-2_000.0, -1.0, size=64)) for _ in range(20)]

    def run():
        return [(lse_n(b), lse_sequential(b)) for b in batches]

    results = benchmark(run)
    diffs = [abs(a - b) for a, b in results]
    report("Ablation: n-ary vs sequential LSE", render_table([
        {"batches": len(batches), "max |n-ary - sequential|": max(diffs)}]))
    assert max(diffs) < 1e-9


def test_rescaling_baseline(benchmark, report):
    """Section VII dismisses rescaling for wide ranges; for an HMM it
    works and agrees with log-space — included as the extra baseline."""
    hmm = sample_hmm(6, 64, 150, seed=11)
    a, b, pi, obs = hmm.as_float_arrays()

    def run():
        return forward_rescaled(a, b, pi, obs), forward_log(a, b, pi, obs)

    (scale, mant), ll = benchmark(run)
    log2_from_log = ll / math.log(2)
    log2_from_rescale = scale + math.log2(mant)
    report("Ablation: rescaling baseline", render_table([
        {"method": "log-space", "log2(likelihood)": log2_from_log},
        {"method": "rescaling", "log2(likelihood)": log2_from_rescale},
        {"method": "binary64", "log2(likelihood)":
            "underflow" if forward_float(a, b, pi, obs) == 0.0 else "ok"},
    ]))
    assert abs(log2_from_log - log2_from_rescale) < 1e-6 * abs(log2_from_log)


def test_dft_cf_baseline_ablation(benchmark, report):
    """DFT-CF (Hong 2013, the paper's ref [32]) agrees with the
    Listing-2 recurrence in the bulk but cannot resolve the deep tails
    the paper targets — the quantitative reason the recurrence (and its
    underflow problem) is the method of record."""
    from repro.apps import pbd_pvalue_dft, reference_pvalue

    rng = np.random.default_rng(5)
    bulk_probs = rng.uniform(0.05, 0.5, size=30)
    deep_probs = np.full(40, 1e-6)

    def run():
        return (pbd_pvalue_dft(bulk_probs, 10),
                pbd_pvalue_dft(deep_probs, 35))

    bulk_dft, deep_dft = benchmark(run)
    from repro.apps import pbd_pvalue_float
    bulk_rec = pbd_pvalue_float(bulk_probs, 10)
    deep_ref = reference_pvalue([BigFloat.from_float(1e-6)] * 40, 35)
    report("Ablation: DFT-CF baseline", render_table([
        {"regime": "bulk (p~1e-1)", "DFT-CF": bulk_dft,
         "recurrence": bulk_rec,
         "agree": abs(bulk_dft - bulk_rec) < 1e-9 * bulk_rec},
        {"regime": f"tail (p~2^{deep_ref.scale})", "DFT-CF": deep_dft,
         "recurrence": "needs wide-range arithmetic",
         "agree": False},
    ]))
    assert abs(bulk_dft - bulk_rec) < 1e-9 * bulk_rec
    assert deep_ref.scale < -600
    assert deep_dft < 1e-14  # noise floor: the tail is unresolvable


def test_viterbi_needs_no_lse_ablation(benchmark, report):
    """Viterbi in log-space uses only adds and compares — its op mix is
    immune to the LSE cost penalty, unlike the forward algorithm.  This
    bounds the paper's argument: log-space hurts *sum-product* kernels,
    not max-product ones."""
    from repro.arith import LogSpaceBackend
    from repro.data import sample_hmm as _sample
    from repro.workloads import viterbi

    hmm = _sample(6, 8, 40, seed=13)
    backend = LogSpaceBackend()

    def run():
        return viterbi(hmm, backend)

    best = benchmark(run)
    path, prob = best.states(), best.score
    lse_ops_forward = hmm.length * hmm.n_states  # one n-ary LSE per state/step
    report("Ablation: Viterbi vs forward op mix", render_table([
        {"kernel": "forward", "LSE ops": lse_ops_forward,
         "max/add ops": hmm.length * hmm.n_states ** 2},
        {"kernel": "viterbi", "LSE ops": 0,
         "max/add ops": hmm.length * hmm.n_states ** 2},
    ]))
    assert len(path) == hmm.length
    assert math.isfinite(prob)

