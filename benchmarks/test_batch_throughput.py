"""Scalar vs batched throughput for the repro.engine subsystem.

Quantifies the batching win for each primitive (add / mul / LSE
accumulation) and for the forward algorithm, and asserts the engine's
headline guarantee: the batched log-space forward algorithm on a batch
of 64 sequences (T=1000, H=16) is at least 10x faster than the scalar
``LogSpaceBackend`` loop, with bit-identical results.

All measurements land in ``BENCH_batch.json`` at the repo root, the
seed point of the performance trajectory for later scaling PRs.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from repro.apps.hmm import forward, forward_batch
from repro.arith import Binary64Backend, LogSpaceBackend, PositBackend
from repro.arith.backends import LNSBackend
from repro.data.dirichlet import sample_hmm
from repro.engine import (
    BatchLNS,
    BatchLogSpace,
    BatchPosit,
    ExecPlan,
    batch_backend_for,
)
from repro.formats import PositEnv
from repro.formats.logspace import lse2, lse_sequential

_RESULTS = {}
_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_batch.json")

#: Acceptance floor for the batched log-space forward speedup.  10x on
#: an unloaded machine (the recorded result is ~18x); CI sets the env
#: var to a lower floor because shared runners make wall-clock asserts
#: flaky.
FORWARD_SPEEDUP_FLOOR = float(
    os.environ.get("REPRO_FORWARD_SPEEDUP_FLOOR", "10.0"))


@pytest.fixture(scope="module", autouse=True)
def _emit_json():
    """Collect every test's measurements, then write BENCH_batch.json."""
    yield
    if _RESULTS:
        payload = {
            "benchmark": "batch_throughput",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "results": _RESULTS,
        }
        with open(_JSON_PATH, "w") as f:
            json.dump(payload, f, indent=1)


def _rate(fn, n_ops, min_time=0.05):
    """Best-of-3 ops/second for fn() covering n_ops operations."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = min(best, dt)
        if dt > min_time * 10:
            break
    return n_ops / best


@pytest.fixture(scope="module")
def log_operands():
    rng = np.random.default_rng(0)
    a = rng.uniform(-2000.0, 0.0, 20_000)
    b = a + rng.uniform(-50.0, 50.0, 20_000)
    return a, b


def test_logspace_add_scalar_vs_batch(log_operands):
    a, b = log_operands
    sub_a, sub_b = list(a[:2_000]), list(b[:2_000])

    def scalar():
        total = 0.0
        for x, y in zip(sub_a, sub_b):
            total += lse2(x, y)
        return total

    bb = BatchLogSpace()
    scalar_rate = _rate(scalar, len(sub_a))
    batch_rate = _rate(lambda: bb.add(a, b), a.size)
    _RESULTS["logspace_add"] = {
        "scalar_ops_per_s": scalar_rate, "batch_ops_per_s": batch_rate,
        "speedup": batch_rate / scalar_rate,
    }
    assert batch_rate > scalar_rate


def test_logspace_lse_reduction_scalar_vs_batch(log_operands):
    a, _ = log_operands
    rows = a.reshape(-1, 16)
    sub = rows[:200]
    bb = BatchLogSpace(sum_mode="sequential")

    def scalar():
        out = 0.0
        for row in sub:
            out += lse_sequential(list(row))
        return out

    scalar_rate = _rate(scalar, sub.size)
    batch_rate = _rate(lambda: bb.sum(rows, axis=1), rows.size)
    _RESULTS["logspace_lse_reduce"] = {
        "scalar_ops_per_s": scalar_rate, "batch_ops_per_s": batch_rate,
        "speedup": batch_rate / scalar_rate,
    }
    assert batch_rate > scalar_rate


def test_binary64_mul_scalar_vs_batch():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.0, 1.0, 50_000)
    b = rng.uniform(0.0, 1.0, 50_000)
    backend = Binary64Backend()
    sub_a, sub_b = list(a[:5_000]), list(b[:5_000])

    def scalar():
        total = 0.0
        for x, y in zip(sub_a, sub_b):
            total += backend.mul(x, y)
        return total

    bb = batch_backend_for(backend)
    scalar_rate = _rate(scalar, len(sub_a))
    batch_rate = _rate(lambda: bb.mul(a, b), a.size)
    _RESULTS["binary64_mul"] = {
        "scalar_ops_per_s": scalar_rate, "batch_ops_per_s": batch_rate,
        "speedup": batch_rate / scalar_rate,
    }
    assert batch_rate > scalar_rate


@pytest.mark.parametrize("op", ["add", "mul"])
def test_posit_scalar_vs_batch(op):
    env = PositEnv(64, 12)
    bp = BatchPosit(env)
    rng = np.random.default_rng(2)
    # Probability-magnitude operands (the workload regime).
    floats = 2.0 ** rng.uniform(-600, 0, 16_000)
    a = bp.from_floats(floats)
    b = bp.from_floats(floats[::-1])
    sub_a = [int(x) for x in a[:150]]
    sub_b = [int(x) for x in b[:150]]
    scalar_fn = env.add if op == "add" else env.mul
    batch_fn = bp.add if op == "add" else bp.mul

    def scalar():
        out = 0
        for x, y in zip(sub_a, sub_b):
            out ^= scalar_fn(x, y)
        return out

    scalar_rate = _rate(scalar, len(sub_a))
    batch_rate = _rate(lambda: batch_fn(a, b), a.size)
    _RESULTS[f"posit64_12_{op}"] = {
        "scalar_ops_per_s": scalar_rate, "batch_ops_per_s": batch_rate,
        "speedup": batch_rate / scalar_rate,
    }
    assert batch_rate > scalar_rate


def _op_entry(key, scalar_fn, scalar_pairs, batch_fn, a, b):
    """One (scalar loop vs batch kernel) measurement -> _RESULTS[key]."""
    def scalar():
        out = None
        for x, y in scalar_pairs:
            out = scalar_fn(x, y)
        return out

    scalar_rate = _rate(scalar, len(scalar_pairs))
    batch_rate = _rate(lambda: batch_fn(a, b), np.asarray(a).size)
    _RESULTS[key] = {
        "scalar_ops_per_s": scalar_rate, "batch_ops_per_s": batch_rate,
        "speedup": batch_rate / scalar_rate,
    }
    assert batch_rate > scalar_rate, key


def test_binary64_sub_div_scalar_vs_batch():
    rng = np.random.default_rng(21)
    a = rng.uniform(0.5, 1.0, 50_000)
    b = rng.uniform(0.0, 0.5, 50_000)
    backend = Binary64Backend()
    bb = batch_backend_for(backend)
    pairs = list(zip(a[:5_000].tolist(), b[:5_000].tolist()))
    _op_entry("binary64_sub", backend.sub, pairs, bb.sub, a, b)
    divisors = b + 0.25  # bounded away from the zero-divisor error
    pairs_div = list(zip(a[:5_000].tolist(), divisors[:5_000].tolist()))
    _op_entry("binary64_div", backend.div, pairs_div, bb.div, a, divisors)


def test_logspace_sub_div_scalar_vs_batch(log_operands):
    a, b = log_operands
    hi = np.maximum(a, b)
    lo = np.minimum(a, b) - 1e-6
    backend = LogSpaceBackend()
    bb = batch_backend_for(backend)
    pairs = list(zip(hi[:2_000].tolist(), lo[:2_000].tolist()))
    _op_entry("logspace_sub", backend.sub, pairs, bb.sub, hi, lo)
    _op_entry("logspace_div", backend.div, pairs, bb.div, hi, lo)


@pytest.mark.parametrize("es", [9, 12])
def test_posit_sub_div_scalar_vs_batch(es):
    """Native batch posit subtraction (decoded-plane add of the
    negation) and division (vectorized exact long division) vs the
    scalar environment's big-int/BigFloat paths."""
    env = PositEnv(64, es)
    bp = BatchPosit(env)
    rng = np.random.default_rng(22 + es)
    floats = 2.0 ** rng.uniform(-600, 0, 16_000)
    a = bp.from_floats(floats)
    b = bp.from_floats(floats[::-1])
    pairs_sub = [(int(x), int(y)) for x, y in zip(a[:150], b[:150])]
    pairs_div = [(int(x), int(y)) for x, y in zip(a[:60], b[:60])]
    _op_entry(f"posit64_{es}_sub", env.sub, pairs_sub, bp.sub, a, b)
    _op_entry(f"posit64_{es}_div", env.div, pairs_div, bp.div, a, b)


def test_lns_sub_div_scalar_vs_batch():
    """LNS subtraction through the *full-table* mode (the lookup table
    the paper's Section VII rules out at 64 bits — affordable in
    software at lns(6,8)'s 2.5k entries) and lns(12,50) division
    (pure saturating fixed-point subtract)."""
    from repro.formats.lns import LNSEnv

    small = LNSBackend(LNSEnv(6, 8))
    bb_small = BatchLNS(scalar=small, sb_table=True)
    env = small.env
    rng = np.random.default_rng(24)
    hi = rng.integers(env.min_code // 2, env.max_code, 20_000,
                      dtype=np.int64)
    gap = rng.integers(0, -int(bb_small._sb_floor), 20_000, dtype=np.int64)
    lo = np.maximum(hi - gap, np.int64(env.min_code))
    pairs = list(zip(hi[:100].tolist(), lo[:100].tolist()))
    _op_entry("lns6_8_sub", small.sub, pairs, bb_small.sub, hi, lo)

    wide = LNSBackend()
    bb_wide = batch_backend_for(wide)
    env_w = wide.env
    a = rng.integers(env_w.min_code // 2, env_w.max_code // 2, 20_000
                     ).astype(np.int64)
    b = a[::-1].copy()
    pairs = list(zip(a[:2_000].tolist(), b[:2_000].tolist()))
    _op_entry("lns12_50_div", wide.div, pairs, bb_wide.div, a, b)


class TestForwardAcceptance:
    """The tentpole acceptance criterion: batched log-space forward on
    64 sequences (T=1000, H=16) >= 10x the scalar backend loop, with
    bit-identical likelihoods."""

    B, T, H, M = 64, 1000, 16, 16
    SCALAR_SEQS = 2  # scalar loop is timed on a subset, per-sequence

    @pytest.fixture(scope="class")
    def workload(self):
        hmm = sample_hmm(self.H, self.M, self.T, seed=5)
        rng = np.random.default_rng(6)
        obs = rng.integers(0, self.M, size=(self.B, self.T))
        return hmm, obs

    def test_forward_log_speedup_10x(self, workload, report):
        hmm, obs = workload
        backend = LogSpaceBackend(sum_mode="sequential")

        t0 = time.perf_counter()
        batch_values = forward_batch(hmm, backend, obs)
        batch_per_seq = (time.perf_counter() - t0) / self.B

        scalar_values = []
        t0 = time.perf_counter()
        for i in range(self.SCALAR_SEQS):
            scalar_values.append(forward(
                hmm, backend,
                observations=tuple(int(o) for o in obs[i]),
                plan=ExecPlan.serial()))
        scalar_per_seq = (time.perf_counter() - t0) / self.SCALAR_SEQS

        speedup = scalar_per_seq / batch_per_seq
        _RESULTS["forward_log_batch64"] = {
            "batch": self.B, "t": self.T, "h": self.H,
            "scalar_s_per_seq": scalar_per_seq,
            "batch_s_per_seq": batch_per_seq,
            "speedup": speedup,
        }
        report("Batched forward throughput",
               f"log-space forward, B={self.B} T={self.T} H={self.H}: "
               f"scalar {scalar_per_seq * 1e3:.1f} ms/seq, batched "
               f"{batch_per_seq * 1e3:.2f} ms/seq -> {speedup:.1f}x")
        # Bit-identical results on the sequences both paths computed.
        assert batch_values[:self.SCALAR_SEQS] == scalar_values
        assert speedup >= FORWARD_SPEEDUP_FLOOR

    def test_forward_binary64_batch_matches_and_speeds_up(self, workload):
        hmm, obs = workload
        backend = Binary64Backend()
        t0 = time.perf_counter()
        batch_values = forward_batch(hmm, backend, obs)
        batch_per_seq = (time.perf_counter() - t0) / self.B
        t0 = time.perf_counter()
        want = forward(hmm, backend,
                       observations=tuple(int(o) for o in obs[0]),
                       plan=ExecPlan.serial())
        scalar_per_seq = time.perf_counter() - t0
        _RESULTS["forward_binary64_batch64"] = {
            "scalar_s_per_seq": scalar_per_seq,
            "batch_s_per_seq": batch_per_seq,
            "speedup": scalar_per_seq / batch_per_seq,
        }
        assert batch_values[0] == want
        assert scalar_per_seq / batch_per_seq > 1.0


def test_forward_posit_batch_speedup(report):
    """Posit batches amortize the ~150 array-kernel launches per op
    across the whole batch; the scalar path pays big-int decode/encode
    per element.  Timed at reduced T to keep CI fast."""
    b_sz, t_len, h, m = 64, 40, 8, 8
    hmm = sample_hmm(h, m, t_len, seed=7)
    rng = np.random.default_rng(8)
    obs = rng.integers(0, m, size=(b_sz, t_len))
    backend = PositBackend(PositEnv(64, 12))
    t0 = time.perf_counter()
    batch_values = forward_batch(hmm, backend, obs)
    batch_per_seq = (time.perf_counter() - t0) / b_sz
    t0 = time.perf_counter()
    want = forward(hmm, backend, observations=tuple(int(o) for o in obs[0]),
                   plan=ExecPlan.serial())
    scalar_per_seq = time.perf_counter() - t0
    speedup = scalar_per_seq / batch_per_seq
    _RESULTS[f"forward_posit64_12_batch{b_sz}"] = {
        "batch": b_sz, "t": t_len, "h": h,
        "scalar_s_per_seq": scalar_per_seq,
        "batch_s_per_seq": batch_per_seq,
        "speedup": speedup,
    }
    report("Batched posit forward",
           f"posit(64,12) forward, B={b_sz} T={t_len} H={h}: "
           f"{speedup:.1f}x over the scalar loop")
    assert batch_values[0] == want
    assert speedup > 1.0
