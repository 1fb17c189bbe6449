"""The benchmark-regression gate script, and the standing guarantee
that the *committed* BENCH_*.json artifacts (recorded on dedicated
hardware) meet the full >=10x / >=5x floors."""

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))
import ab  # noqa: E402
import check_bench_regression as gate  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _payload(bench, key, speedup):
    return {"benchmark": bench, "results": {key: {"speedup": speedup}}}


def _overhead_payload(bench, key, frac):
    return {"benchmark": bench, "results": {key: {"overhead_frac": frac}}}


class TestCheckPayload:
    FLOORS = gate.gate_floors({})
    CEILINGS = gate.gate_ceilings({})

    def test_passing_payload(self):
        ok = _payload("batch_throughput", "forward_log_batch64", 17.9)
        assert gate.check_payload(ok, self.FLOORS) == []

    def test_below_gate_fails(self):
        bad = _payload("batch_throughput", "forward_log_batch64", 9.4)
        assert len(gate.check_payload(bad, self.FLOORS)) == 1

    def test_prefix_match_covers_parameterized_keys(self):
        bad = _payload("apps_throughput", "vicar_forward_multi48_h13", 4.0)
        assert len(gate.check_payload(bad, self.FLOORS)) == 1

    def test_ungated_results_ignored(self):
        other = _payload("apps_throughput", "lns_mul", 1.1)
        assert gate.check_payload(other, self.FLOORS) == []

    def test_missing_speedup_is_a_violation(self):
        broken = {"benchmark": "batch_throughput",
                  "results": {"forward_log_batch64": {}}}
        assert len(gate.check_payload(broken, self.FLOORS)) == 1

    def test_env_lowers_floor(self):
        floors = gate.gate_floors({"REPRO_FORWARD_SPEEDUP_FLOOR": "2.0"})
        marginal = _payload("batch_throughput", "forward_log_batch64", 3.0)
        assert gate.check_payload(marginal, floors) == []

    def test_posit_gap_floors(self):
        """The PR 5 posit-gap gates: add/mul >= 15x, fused forward
        >= 7x."""
        ok = _payload("batch_throughput", "posit64_12_add", 16.0)
        assert gate.check_payload(ok, self.FLOORS) == []
        bad = _payload("batch_throughput", "posit64_12_mul", 14.0)
        assert len(gate.check_payload(bad, self.FLOORS)) == 1
        bad = _payload("batch_throughput", "forward_posit64_12_batch64", 6.0)
        assert len(gate.check_payload(bad, self.FLOORS)) == 1

    def test_sub_div_entries_gated(self):
        for key in ("binary64_sub", "logspace_div", "posit64_12_div",
                    "lns6_8_sub", "lns12_50_div"):
            bad = _payload("batch_throughput", key, 2.0)
            assert len(gate.check_payload(bad, self.FLOORS)) == 1, key
            ok = _payload("batch_throughput", key, 8.0)
            assert gate.check_payload(ok, self.FLOORS) == [], key

    def test_overhead_ceiling(self):
        """The telemetry disabled-overhead gate bounds a cost fraction
        from above (a ceiling, not a speedup floor)."""
        ok = _overhead_payload("telemetry_overhead",
                               "forward_disabled_overhead", 0.001)
        assert gate.check_payload(ok, self.FLOORS, self.CEILINGS) == []
        bad = _overhead_payload("telemetry_overhead",
                                "forward_disabled_overhead", 0.05)
        assert len(gate.check_payload(bad, self.FLOORS,
                                      self.CEILINGS)) == 1

    def test_overhead_missing_frac_is_a_violation(self):
        broken = {"benchmark": "telemetry_overhead",
                  "results": {"forward_disabled_overhead": {}}}
        assert len(gate.check_payload(broken, self.FLOORS,
                                      self.CEILINGS)) == 1

    def test_ceilings_optional_and_env_raises_ceiling(self):
        bad = _overhead_payload("telemetry_overhead",
                                "forward_disabled_overhead", 0.05)
        # Omitting the ceilings dict keeps the old call signature valid.
        assert gate.check_payload(bad, self.FLOORS) == []
        relaxed = gate.gate_ceilings(
            {"REPRO_TELEMETRY_OVERHEAD_CEILING": "0.10"})
        assert gate.check_payload(bad, self.FLOORS, relaxed) == []

    def test_service_coalescing_floor(self):
        """The serving-tier gate: the coalescing server must beat the
        no-coalescing configuration >= 3x on same-shape forward
        traffic."""
        ok = _payload("service_load", "forward_coalescing", 4.1)
        assert gate.check_payload(ok, self.FLOORS) == []
        bad = _payload("service_load", "forward_coalescing", 2.4)
        assert len(gate.check_payload(bad, self.FLOORS)) == 1
        relaxed = gate.gate_floors({"REPRO_SERVICE_SPEEDUP_FLOOR": "1.5"})
        assert gate.check_payload(bad, relaxed) == []

    def test_service_required_entry(self):
        empty = {"benchmark": "service_load", "results": {}}
        assert gate.missing_required(empty) == ["forward_coalescing"]

    def test_workloads_floors(self):
        """The PR 9 workload gates: batched Viterbi and pair-HMM must
        stay >= 5x their serial plans; Kalman is recorded but
        ungated."""
        ok = _payload("workloads_throughput", "viterbi_log_batch128", 9.0)
        assert gate.check_payload(ok, self.FLOORS) == []
        bad = _payload("workloads_throughput", "viterbi_log_batch128", 4.0)
        assert len(gate.check_payload(bad, self.FLOORS)) == 1
        bad = _payload("workloads_throughput",
                       "pairhmm_binary64_batch256", 3.0)
        assert len(gate.check_payload(bad, self.FLOORS)) == 1
        ungated = _payload("workloads_throughput",
                           "kalman_binary64_batch64", 1.2)
        assert gate.check_payload(ungated, self.FLOORS) == []
        relaxed = gate.gate_floors(
            {"REPRO_WORKLOADS_SPEEDUP_FLOOR": "2.0"})
        assert gate.check_payload(
            _payload("workloads_throughput",
                     "pairhmm_binary64_batch256", 3.0), relaxed) == []

    def test_workloads_required_entries(self):
        empty = {"benchmark": "workloads_throughput", "results": {}}
        assert gate.missing_required(empty) == \
            ["viterbi", "pairhmm", "kalman"]

    def test_missing_required_detects_absent_entries(self):
        partial = _payload("batch_throughput", "forward_log_batch64", 20.0)
        missing = gate.missing_required(partial)
        assert "posit64_12_sub" in missing and "lns6_8_sub" in missing
        assert gate.missing_required(
            _payload("other_bench", "x", 1.0)) == []


def test_ci_env_relaxes_exactly_the_gates():
    """The workflow's top-level ``env:`` sets one relaxed value per gate
    env var and no other ``REPRO_*_FLOOR``/``REPRO_*_CEILING``: a
    removed gate must not leave its CI floor behind, and a new gate
    must not ship without one."""
    with open(os.path.join(REPO_ROOT, ".github", "workflows",
                           "ci.yml")) as f:
        text = f.read()
    block = re.search(r"^env:\n((?:[ \t]+.*\n)+)", text, re.M).group(1)
    in_ci = set(re.findall(r"^\s+(REPRO_\w+_(?:FLOOR|CEILING)):", block,
                           re.M))
    gated = {var for var, _ in (*gate.GATES.values(),
                                *gate.CEILINGS.values())}
    assert in_ci == gated


class TestMain:
    @pytest.fixture(autouse=True)
    def _full_gates(self, monkeypatch):
        """main() reads its floors from os.environ; CI's relaxed
        REPRO_* values must not leak into these full-gate checks."""
        for var, _ in (*gate.GATES.values(), *gate.CEILINGS.values()):
            monkeypatch.delenv(var, raising=False)

    def test_missing_path_is_skipped(self, tmp_path, capsys):
        assert gate.main([str(tmp_path / "nope")]) == 0
        assert "skipping" in capsys.readouterr().out

    def test_directory_scan_and_failure_exit(self, tmp_path, capsys):
        good = tmp_path / "BENCH_batch.json"
        good.write_text(json.dumps(
            _payload("batch_throughput", "forward_log_batch64", 15.0)))
        assert gate.main([str(tmp_path)]) == 0
        bad = tmp_path / "BENCH_apps.json"
        bad.write_text(json.dumps(
            _payload("apps_throughput", "vicar_forward_multi48_h13", 2.0)))
        assert gate.main([str(tmp_path)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_unreadable_file_fails(self, tmp_path):
        broken = tmp_path / "BENCH_x.json"
        broken.write_text("{not json")
        assert gate.main([str(broken)]) == 1


class TestABCompare:
    """``benchmarks/ab.py``'s statistics over synthetic paired runs."""

    METRICS = [{"name": "wall_s", "unit": "s", "better": "lower",
                "bound": 0.2},
               {"name": "throughput", "unit": "1/s", "better": "higher",
                "bound": 0.2}]

    @staticmethod
    def _pairs(base, change):
        return [{"base": {"wall_s": b, "throughput": 1 / b},
                 "change": {"wall_s": c, "throughput": 1 / c}}
                for b, c in zip(base, change)]

    def test_medians_iqr_ratio_and_wins(self):
        base = [1.40, 1.50, 1.45, 1.38, 1.52]
        change = [1.10, 1.05, 1.60, 1.08, 1.12]
        wall, thr = ab.compare(self._pairs(base, change), self.METRICS)
        assert wall["base_median"] == 1.45
        assert wall["change_median"] == 1.10
        assert wall["ratio"] == 1.10 / 1.45
        # statistics.quantiles' exclusive method: (1.39, 1.51) for base.
        assert abs(wall["base_iqr"] - 0.12) < 1e-12
        assert (wall["won"], wall["lost"], wall["pairs"]) == (4, 1, 5)
        # A higher-is-better metric judges the same pairs the same way.
        assert (thr["won"], thr["lost"]) == (4, 1)
        assert thr["ratio"] > 1

    def test_ties_count_for_neither_side(self):
        row, = ab.compare(self._pairs([1.0, 2.0, 3.0], [1.0, 1.5, 3.5]),
                          self.METRICS[:1])
        assert (row["won"], row["lost"]) == (1, 1)
        assert row["ratio"] == 1.5 / 2.0

    def test_render_names_every_metric(self):
        rows = ab.compare(self._pairs([1.0, 1.2], [0.9, 1.0]),
                          self.METRICS)
        text = ab.render(rows)
        assert "`wall_s` (s)" in text and "`throughput` (1/s)" in text
        assert "2 of 2 (lost 0)" in text


class TestABStatistics:
    """Each of ``ab.py``'s verdicts, with synthetic pairs on both sides
    of its rule (bound 0.2)."""

    WALL, THROUGHPUT = TestABCompare.METRICS

    @staticmethod
    def _verdict(metric, base, change):
        pairs = [{"base": {metric["name"]: b},
                  "change": {metric["name"]: c}}
                 for b, c in zip(base, change)]
        row, = ab.compare(pairs, [metric])
        return row["verdict"]

    def test_worse_past_the_bound(self):
        base = [1.0] * 10
        assert self._verdict(self.WALL, base, [1.25] * 10) == "worse"
        assert self._verdict(self.WALL, base, [1.15] * 10) == "same"
        assert self._verdict(self.THROUGHPUT, base, [0.75] * 10) == "worse"
        assert self._verdict(self.THROUGHPUT, base, [0.85] * 10) == "same"

    def test_gain_needs_nine_wins_and_a_gap_past_the_iqr(self):
        base = [1.00, 1.02, 0.98, 1.01, 0.99] * 2  # IQR about 0.03
        nine = [0.90] * 9 + [1.05]
        assert self._verdict(self.WALL, base, nine) == "gain"
        eight = [0.90] * 8 + [1.05] * 2
        assert self._verdict(self.WALL, base, eight) == "same"
        # Nine wins, but the medians lie within the base's IQR.
        close = [0.985] * 9 + [1.05]
        assert self._verdict(self.WALL, base, close) == "same"
        faster = [1 / b for b in base]
        assert self._verdict(self.THROUGHPUT, faster,
                             [1 / c for c in nine]) == "gain"
        # A tie counts for neither side, so it cannot make a ninth win.
        tied = [0.90] * 8 + [base[8], 1.05]
        assert self._verdict(self.WALL, base, tied) == "same"

    def test_unresolved_when_the_base_spreads_past_the_bound(self):
        base = [1.0, 1.5] * 5  # IQR 0.5 against a median of 1.25
        overlapping = [1.1, 1.4] * 5
        assert self._verdict(self.WALL, base, overlapping) == "unresolved"
        # Every change run beats every base run: resolved (but within
        # the IQR, so no gain).
        below = [0.95, 0.99] * 5
        assert self._verdict(self.WALL, base, below) == "same"
        steady = [1.0, 1.1] * 5  # IQR 0.1 against 1.05: inside the bound
        assert self._verdict(self.WALL, steady, [1.02, 1.08] * 5) == "same"


class TestCommittedArtifacts:
    """The repo-root BENCH files are the recorded dedicated-hardware
    results; they must meet the full gates at all times (the
    acceptance criterion that the inversion did not cost the recorded
    speedups)."""

    ARTIFACTS = ("BENCH_batch.json", "BENCH_apps.json",
                 "BENCH_telemetry.json", "BENCH_faults.json",
                 "BENCH_service.json", "BENCH_workloads.json")

    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_artifact_exists(self, name):
        assert os.path.exists(os.path.join(REPO_ROOT, name))

    def test_committed_artifacts_meet_full_gates(self):
        floors = gate.gate_floors({})  # full gates, no env relaxing
        ceilings = gate.gate_ceilings({})
        for name in self.ARTIFACTS:
            with open(os.path.join(REPO_ROOT, name)) as f:
                payload = json.load(f)
            assert gate.check_payload(payload, floors, ceilings) == [], name

    def test_committed_artifacts_contain_required_entries(self):
        """The recorded artifacts must carry every gated entry —
        including the PR 5 sub/div coverage for all batched formats
        and the telemetry disabled-overhead measurement (absence would
        silently skip the gate)."""
        for name in self.ARTIFACTS:
            with open(os.path.join(REPO_ROOT, name)) as f:
                payload = json.load(f)
            assert gate.missing_required(payload) == [], name
