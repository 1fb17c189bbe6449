"""ExecPlan: validation, plan threading (explicit and ambient), the
versioned JSON wire form, and the *removal* of the
``batch=``/``n_workers=`` deprecation shims — one release on, every
former shim site must reject the legacy kwargs with a plain
:class:`TypeError`.
"""

import random

import pytest

from repro.arith import LogSpaceBackend, PositBackend, standard_backends
from repro.engine import (DEFAULT_PLAN, ExecPlan, current_plan,
                          resolve_plan, use_plan)
from repro.formats import PositEnv


class TestExecPlan:
    def test_default_is_batch_canonical(self):
        assert DEFAULT_PLAN.batch is True
        assert DEFAULT_PLAN.n_workers is None
        assert DEFAULT_PLAN.cache == "auto"
        assert not DEFAULT_PLAN.measure

    def test_serial_constructor(self):
        plan = ExecPlan.serial()
        assert plan.batch is False
        assert ExecPlan.serial(n_workers=2).n_workers == 2

    def test_with_replaces_fields(self):
        plan = DEFAULT_PLAN.with_(n_workers=4, cache="off")
        assert (plan.n_workers, plan.cache) == (4, "off")
        assert DEFAULT_PLAN.n_workers is None  # frozen, copy-on-write

    @pytest.mark.parametrize("bad", [
        {"n_workers": -2}, {"cache": "AUTO"}, {"n_workers": -1},
        {"cache": "sometimes"},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExecPlan(**bad)

    def test_parallel_property(self):
        assert not ExecPlan().parallel
        assert not ExecPlan(n_workers=1).parallel
        assert ExecPlan(n_workers=2).parallel

    def test_exactly_four_fields(self):
        from dataclasses import fields
        assert [f.name for f in fields(ExecPlan)] == [
            "batch", "n_workers", "cache", "measure"]


class TestResolvePlan:
    def test_passthrough(self):
        plan = ExecPlan(n_workers=3)
        assert resolve_plan(plan) is plan
        assert resolve_plan(None) is DEFAULT_PLAN

    def test_type_check(self):
        with pytest.raises(TypeError):
            resolve_plan({"batch": True})


class TestAmbientPlan:
    """with use_plan(...): installs the plan every plan-aware call
    picks up when no explicit plan= is passed."""

    def test_current_plan_defaults(self):
        assert current_plan() is DEFAULT_PLAN

    def test_use_plan_scopes_and_nests(self):
        outer = ExecPlan(n_workers=2)
        inner = ExecPlan.serial()
        with use_plan(outer):
            assert current_plan() is outer
            assert resolve_plan(None) is outer
            with use_plan(inner):
                assert resolve_plan(None) is inner
            assert current_plan() is outer
        assert current_plan() is DEFAULT_PLAN

    def test_explicit_plan_beats_ambient(self):
        explicit = ExecPlan(n_workers=7)
        with use_plan(ExecPlan.serial()):
            assert resolve_plan(explicit) is explicit

    def test_use_plan_type_check(self):
        with pytest.raises(TypeError):
            with use_plan("serial"):
                pass

    def test_ambient_plan_reaches_apps(self):
        from repro.apps.hmm import forward
        from repro.data.dirichlet import sample_hmm
        hmm = sample_hmm(3, 4, 6, seed=3)
        backend = LogSpaceBackend(sum_mode="sequential")
        default = forward(hmm, backend)
        with use_plan(ExecPlan.serial()):
            assert forward(hmm, backend) == default


class TestExecPlanRepr:
    def test_default_is_bare(self):
        assert repr(ExecPlan()) == "ExecPlan()"

    def test_non_defaults_only(self):
        assert repr(ExecPlan.serial()) == "ExecPlan(batch=False)"
        text = repr(ExecPlan(n_workers=4, cache="off"))
        assert text == "ExecPlan(n_workers=4, cache='off')"


def _columns(n=4):
    from repro.data.genome import synth_dataset
    return synth_dataset("shim", n, seed=0, critical_fraction=0.5,
                         deep_fraction=0.25).columns


class TestLegacyKwargsRemoved:
    """The PR 3 one-release deprecation shims are gone: every former
    batch=/n_workers= call site now rejects the legacy kwargs with a
    plain TypeError (unexpected keyword argument)."""

    def test_run_lofreq(self):
        from repro.apps.lofreq import run_lofreq
        backends = {"log": LogSpaceBackend()}
        with pytest.raises(TypeError):
            run_lofreq(_columns(), backends, batch=True)

    def test_column_pvalues(self):
        from repro.apps.lofreq import column_pvalues
        backend = PositBackend(PositEnv(64, 18))
        with pytest.raises(TypeError):
            column_pvalues(_columns(), backend, batch=False)

    def test_run_vicar(self):
        from repro.apps.vicar import VicarConfig, run_vicar
        config = VicarConfig(length=8, h_values=(3,), matrices_per_h=2,
                             bits_per_step=40.0, seed=0, oracle_prec=128)
        backends = {"log": LogSpaceBackend(sum_mode="sequential")}
        with pytest.raises(TypeError):
            run_vicar(config, backends, batch=True, n_workers=0)

    def test_run_chains(self):
        from repro.apps.mcmc import run_chains
        backend = PositBackend(PositEnv(64, 18))
        with pytest.raises(TypeError):
            run_chains(backend, 2, steps=3, seeds=[1, 2], batch=False)

    def test_run_op_sweep(self):
        from repro.core.analysis import run_op_sweep
        from repro.core.sweep import FIG3_BINS
        with pytest.raises(TypeError):
            run_op_sweep("add", standard_backends(), per_bin=4,
                         bins=(FIG3_BINS[0],), seed=1, batch=True)

    @pytest.mark.parametrize("module, kwargs", [
        ("fig3_op_accuracy", {"batch": True, "n_workers": 0}),
        ("fig9_pvalue_accuracy", {"batch": True}),
        ("fig10_vicar_cdf", {"batch": True}),
        ("fig11_lofreq_cdf", {"batch": True}),
    ])
    def test_experiment_runs_reject(self, module, kwargs):
        import importlib
        mod = importlib.import_module(f"repro.experiments.{module}")
        with pytest.raises(TypeError):
            mod.run("test", **kwargs)

    def test_fig6_rejects_legacy_batch(self):
        from repro.experiments import fig6_forward_perf
        with pytest.raises(TypeError):
            fig6_forward_perf.run(batch=True)

    def test_run_experiment_rejects_legacy_batch(self, tmp_path,
                                                 monkeypatch):
        from repro.experiments.runner import run_experiment
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with pytest.raises(TypeError):
            run_experiment("table1", batch=True)

    def test_resolve_plan_has_no_legacy_path(self):
        with pytest.raises(TypeError):
            resolve_plan(None, {"batch": True}, where="test")


class TestPlanJson:
    """ExecPlan.to_json/from_json: the versioned wire form plans use to
    travel inside repro.service requests."""

    def test_round_trip(self):
        import json
        from repro.engine import PLAN_SCHEMA_VERSION
        plan = ExecPlan(batch=False, n_workers=2, cache="refresh",
                        measure=True)
        wire = json.loads(json.dumps(plan.to_json()))
        assert wire["plan_version"] == PLAN_SCHEMA_VERSION
        assert ExecPlan.from_json(wire) == plan

    def test_round_trip_constant_and_random_plans(self):
        """encode -> decode is the identity over the constant plans and
        over seeded random ones."""
        import json
        rng = random.Random(20)
        plans = [ExecPlan(), ExecPlan.serial(), DEFAULT_PLAN]
        for _ in range(50):
            plans.append(ExecPlan(
                batch=rng.random() < 0.5,
                n_workers=rng.choice([None, 0, 1, 2, rng.randrange(64)]),
                cache=rng.choice(["auto", "off", "refresh"]),
                measure=rng.random() < 0.5))
        for plan in plans:
            wire = json.loads(json.dumps(plan.to_json()))
            assert ExecPlan.from_json(wire) == plan

    def test_absent_fields_keep_defaults(self):
        assert ExecPlan.from_json({}) == ExecPlan()
        assert ExecPlan.from_json({"batch": False}) == \
            ExecPlan(batch=False)

    def test_unknown_field_rejected_with_version(self):
        from repro.engine import PLAN_SCHEMA_VERSION
        with pytest.raises(ValueError) as err:
            ExecPlan.from_json({"batch": True, "gpu": "yes"})
        message = str(err.value)
        assert "'gpu'" in message
        assert f"v{PLAN_SCHEMA_VERSION}" in message
        assert "n_workers" in message  # names the known fields

    def test_newer_schema_rejected(self):
        from repro.engine import PLAN_SCHEMA_VERSION
        with pytest.raises(ValueError, match="newer than this build"):
            ExecPlan.from_json(
                {"plan_version": PLAN_SCHEMA_VERSION + 1})

    def test_bad_version_tag_rejected(self):
        for bad in (0, -1, "1", 1.5, True):
            with pytest.raises(ValueError, match="plan_version"):
                ExecPlan.from_json({"plan_version": bad})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            ExecPlan.from_json("batch")

    def test_invalid_field_value_is_versioned_value_error(self):
        # Constructor TypeErrors/ValueErrors surface as the versioned
        # rejection, not a bare TypeError.
        with pytest.raises(ValueError, match="rejected"):
            ExecPlan.from_json({"cache": "maybe"})
        with pytest.raises(ValueError, match="rejected"):
            ExecPlan.from_json({"n_workers": -1})

    @pytest.mark.parametrize("version", [1, 2])
    def test_dropped_fields_ignored_before_v3(self, version):
        """v3 dropped ``batch_size``, ``chunk_size`` and ``compiled``; a
        v1/v2 payload that carries them still parses, ignoring them."""
        wire = {"plan_version": version, "batch": False, "batch_size": 8,
                "chunk_size": 100, "compiled": True, "n_workers": 2}
        assert ExecPlan.from_json(wire) == ExecPlan(batch=False,
                                                    n_workers=2)

    @pytest.mark.parametrize("name", ["batch_size", "chunk_size",
                                      "compiled"])
    def test_dropped_fields_rejected_at_v3(self, name):
        from repro.engine import PLAN_SCHEMA_VERSION
        assert PLAN_SCHEMA_VERSION == 3
        with pytest.raises(ValueError, match="schema v3") as err:
            ExecPlan.from_json({"plan_version": 3, name: 1})
        assert repr(name) in str(err.value)
