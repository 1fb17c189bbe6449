"""The benchmark-regression gate script, and the standing guarantee
that the *committed* BENCH_*.json artifacts (recorded on dedicated
hardware) meet the full >=10x / >=5x floors."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))
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
        >= 7x, quire accumulation >= 10x."""
        ok = _payload("batch_throughput", "posit64_12_add", 16.0)
        assert gate.check_payload(ok, self.FLOORS) == []
        bad = _payload("batch_throughput", "posit64_12_mul", 14.0)
        assert len(gate.check_payload(bad, self.FLOORS)) == 1
        bad = _payload("batch_throughput", "forward_posit64_12_batch64", 6.0)
        assert len(gate.check_payload(bad, self.FLOORS)) == 1
        bad = _payload("apps_throughput", "quire_accumulate_posit16_1", 9.0)
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
