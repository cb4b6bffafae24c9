"""Tests for the campaign engine (specs, cache, executors, campaign, CLI)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    BackendExecutor,
    Campaign,
    ResultCache,
    RunRecord,
    RunSpec,
    SerialExecutor,
    SweepSpec,
    execute_run,
    make_executor,
    run_all,
    spec_fingerprint,
)
from repro.engine.cli import main as cli_main
from repro.engine.cli import parse_axis, parse_value
from repro.utils.validation import ValidationError


class TestRunSpec:
    def test_fingerprint_is_order_independent(self):
        a = RunSpec("ablation_tuning", params={"x": 1, "y": 2})
        b = RunSpec("ablation_tuning", params={"y": 2, "x": 1})
        assert spec_fingerprint(a, "1.0") == spec_fingerprint(b, "1.0")

    def test_fingerprint_changes_with_version_params_and_seed(self):
        spec = RunSpec("ablation_tuning", params={"x": 1})
        base = spec_fingerprint(spec, "1.0")
        assert spec_fingerprint(spec, "2.0") != base
        assert spec_fingerprint(RunSpec("ablation_tuning", params={"x": 2}), "1.0") != base
        assert spec_fingerprint(RunSpec("ablation_tuning", {"x": 1}, seed=1), "1.0") != base

    #: Fingerprints of default resolved specs under a fixed version string.
    #: A change here invalidates every cached result of that experiment.
    #: Every registered experiment is pinned, in registry order.
    PINNED_FINGERPRINTS = {
        "table1": "4d08cd031cea66cb3f769f6c299d0c3b7287f0b89c97a65526e91815bec02018",
        "fig6": "183e82f88440aa8313b9ad9aae95948e6fca30cdc55a44042e5b4d0ad8fc0cb7",
        "fig7": "8a4e54c9ccbedeef21fdf18f1b847620e2e8b8a8bcb82172ae56c386271391af",
        "fig7_point": "ad0e7d62c0dbc7360527b485a46f9862ed18d5f5a59d994a1f3d96f719570c51",
        "fig7_grid": "f78194c29445f5c18a80c857c71e218e8df8ba724e6b85f73088a1c72771225e",
        "fig7_candidate": "57cc77f0c495ac69cc8ff3ebdc2636a944d9f2f5caca91668bae163b8d38bcba",
        "fig7_adversarial": "cd034b9c6b4562d1b4b41060862b315b44c595d2033531094820ca9d324b649b",
        "fig8": "06c961a348de759d6b4387754ba30c04234ba5a99e4009157cf0e9afcd1268e9",
        "fig8_variant": "e7151c72f75c3cd9a48d6ee00e9e50828fb4162e2cf64f7e8157719a281e49cd",
        "signal_mc": "ebc6bf4efe5de406c2cb8b8c6877badd9b6bdd7c37ba90760405e6aed1fd0faf",
        "fig9": "17b1f10b9d0db70e9b47fe7577db678444b08a53780faea8d4d323c73b0656a4",
        "ablation_mitigation": "148c1e03a5003e35e0afc7221e80c7e73fd468d126242a6de7fb283466bce1a5",
        "ablation_tuning": "a66c8116d32f13ded791e17a377e24f247600cd49b33a5ca7bfec545542871cd",
    }

    def test_every_experiment_pins_its_defaults_in_registry_order(self):
        from repro.analysis.experiments import experiment_ids

        assert list(self.PINNED_FINGERPRINTS) == experiment_ids()

    @pytest.mark.parametrize("experiment_id", sorted(PINNED_FINGERPRINTS))
    def test_default_spec_fingerprints_are_pinned(self, experiment_id):
        from repro.analysis.experiments import get_experiment

        params = get_experiment(experiment_id).resolve_params()
        params.pop("seed", None)
        spec = RunSpec(experiment_id, params=params)
        assert spec_fingerprint(spec, "0.0.0-test") == (
            self.PINNED_FINGERPRINTS[experiment_id]
        )

    def test_rejects_seed_in_params_and_unserializable_params(self):
        with pytest.raises(ValidationError):
            RunSpec("fig7_point", params={"seed": 3})
        with pytest.raises(ValidationError):
            RunSpec("fig7_point", params={"fn": object()})

    @pytest.mark.parametrize(
        "experiment_id, name",
        [("fig7_grid", "backend"), ("fig8", "stacked_training"),
         ("fig9", "stacked_training")],
    )
    def test_removed_path_switches_are_unknown_params(self, experiment_id, name):
        from repro.analysis.experiments import get_experiment

        descriptor = get_experiment(experiment_id)
        assert name not in descriptor.default_params
        with pytest.raises(KeyError, match="unknown parameter"):
            descriptor.resolve_params({name: True})


class TestSweepSpec:
    def test_cartesian_expansion_order_and_count(self):
        sweep = SweepSpec(
            experiment_id="fig7_point",
            grid={"kind": ["actuation", "hotspot"], "fraction": [0.01, 0.05]},
            seeds=(0, 1),
        )
        specs = sweep.expand()
        assert sweep.num_points == len(specs) == 8
        assert [s.seed for s in specs[:2]] == [0, 1]
        assert specs[0].params["kind"] == "actuation"
        assert specs[-1].params == specs[-2].params  # seeds replicate points
        # Expansion resolves defaults, so every point carries the full params.
        assert specs[0].params["block"] == "both"
        assert "seed" not in specs[0].params

    def test_zip_axes_advance_together(self):
        sweep = SweepSpec(
            experiment_id="fig8_variant",
            zipped={"variant": ["Original", "l2+n3"], "num_placements": [1, 2]},
        )
        specs = sweep.expand()
        assert len(specs) == 2
        assert specs[0].params["variant"] == "Original"
        assert specs[0].params["num_placements"] == 1
        assert specs[1].params["variant"] == "l2+n3"
        assert specs[1].params["num_placements"] == 2

    def test_validation_failures(self):
        with pytest.raises(ValidationError):
            SweepSpec("fig7_point", grid={"kind": []})
        with pytest.raises(ValidationError):
            SweepSpec("fig7_point", zipped={"a": [1, 2], "b": [1]})
        with pytest.raises(ValidationError):
            SweepSpec("fig7_point", base={"kind": "hotspot"}, grid={"kind": ["hotspot"]})
        with pytest.raises(ValidationError):
            SweepSpec("fig7_point", seeds=())
        with pytest.raises(KeyError):
            SweepSpec("fig7_point", grid={"not_a_param": [1]}).expand()
        with pytest.raises(KeyError):
            SweepSpec("no_such_experiment", grid={"x": [1]}).expand()
        with pytest.raises(ValidationError):
            SweepSpec("fig7_point", grid={"seed": [0, 1]}).expand()

    def test_expand_without_validation_keeps_raw_params(self):
        specs = SweepSpec("anything", grid={"x": [1]}).expand(validate=False)
        assert specs[0].params == {"x": 1}


class TestResultCache:
    def _record(self, spec: RunSpec, cache: ResultCache) -> RunRecord:
        return RunRecord(
            fingerprint=cache.fingerprint(spec),
            spec=spec,
            payload={"value": 42},
            duration_s=0.5,
            started_at="2026-07-29T00:00:00+00:00",
            provenance={"version": cache.version, "executor": "serial", "pid": 1},
        )

    def test_put_get_roundtrip_marks_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning", params={"shifts_nm": [0.2]})
        assert cache.get(spec) is None
        cache.put(self._record(spec, cache))
        hit = cache.get(spec)
        assert hit is not None and hit.cached
        assert dict(hit.payload) == {"value": 42}
        assert hit.spec == spec

    def test_version_change_invalidates(self, tmp_path):
        spec = RunSpec("ablation_tuning")
        cache_v1 = ResultCache(tmp_path, version="1.0.0")
        cache_v1.put(self._record(spec, cache_v1))
        assert cache_v1.get(spec) is not None
        cache_v2 = ResultCache(tmp_path, version="2.0.0")
        assert cache_v2.get(spec) is None  # addressed under a new fingerprint

    def test_invalidate_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning")
        cache.put(self._record(spec, cache))
        assert cache.invalidate(spec) is True
        assert cache.invalidate(spec) is False
        cache.put(self._record(spec, cache))
        assert cache.clear() == 1
        assert cache.get(spec) is None

    def test_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning")
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(spec) is None

    def test_refuses_to_cache_failures(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec("ablation_tuning")
        record = RunRecord(
            fingerprint=cache.fingerprint(spec), spec=spec, status="error", error="boom"
        )
        with pytest.raises(ValueError):
            cache.put(record)


class TestExecutors:
    def test_execute_run_captures_failures(self):
        record = execute_run(RunSpec("no_such_experiment"))
        assert not record.ok
        assert "unknown experiment" in (record.error or "")
        assert record.payload == {}

    def test_make_executor_knob(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        pool = make_executor(3)
        assert isinstance(pool, BackendExecutor)
        assert pool.workers == 3
        with pytest.raises(ValidationError):
            make_executor(-2)

    def test_run_all_preserves_spec_order(self):
        specs = [
            RunSpec("ablation_tuning", params={"shifts_nm": [shift]})
            for shift in (0.2, 0.5, 1.0)
        ]
        records = run_all(SerialExecutor(), specs)
        assert [r.spec for r in records] == specs
        assert all(r.ok for r in records)

    def test_serial_and_pool_records_are_byte_identical(self):
        """Guards the per-worker RNG plumbing: same seeds => same payloads."""
        sweep = SweepSpec(
            experiment_id="fig7_point",
            grid={"kind": ["actuation", "hotspot"], "placement": [0, 1]},
            base={"fraction": 0.10},
            seeds=(0,),
        )
        specs = sweep.expand()
        serial = run_all(SerialExecutor(), specs)
        pooled = run_all(make_executor(2), specs)
        assert [r.canonical_payload() for r in serial] == [
            r.canonical_payload() for r in pooled
        ]
        assert all(r.ok for r in serial)
        assert {r.provenance["executor"] for r in pooled} == {"worker-pool"}


class TestCampaign:
    def test_registry_roundtrip_through_campaign(self, tmp_path):
        """Registry experiments run through Campaign and hit the cache on repeat."""
        specs = [
            RunSpec("table1"),
            RunSpec("ablation_tuning", params={"shifts_nm": [0.2, 2.0]}),
            RunSpec("fig6", params={"attacked_banks": [650, 1260]}),
        ]
        first = Campaign(specs, cache=tmp_path).run()
        assert first.executed == 3 and first.cache_hits == 0 and first.failures == 0
        assert first.records[0].payload["rows"]
        assert first.records[2].payload["peak_rise_k"] > 0

        second = Campaign(specs, cache=tmp_path).run()
        assert second.executed == 0 and second.cache_hits == 3
        assert [dict(r.payload) for r in second.records] == [
            dict(r.payload) for r in first.records
        ]

    def test_progress_events_and_failure_accounting(self, tmp_path):
        events = []
        specs = [RunSpec("table1"), RunSpec("no_such_experiment")]
        result = Campaign(
            specs, cache=tmp_path, progress=events.append
        ).run()
        assert result.failures == 1
        assert len(events) == 2
        assert events[-1].total == 2
        assert any("ERROR" in event.message for event in events)
        # Failed runs are not cached: re-running retries them.
        again = Campaign(specs, cache=tmp_path).run()
        assert again.cache_hits == 1 and again.executed == 1

    def test_campaign_without_cache(self):
        result = Campaign([RunSpec("table1")]).run()
        assert result.executed == 1 and result.cache_hits == 0


def count_unit_runs(monkeypatch, experiment_id: str = "fig8_variant") -> list[dict]:
    """Record the parameters of every in-process run of ``experiment_id``."""
    import dataclasses
    import functools

    from repro.analysis import experiments

    descriptor = experiments.EXPERIMENTS[experiment_id]
    calls: list[dict] = []

    @functools.wraps(descriptor.runner)
    def counting(**params):
        calls.append(params)
        return descriptor.runner(**params)

    monkeypatch.setitem(
        experiments.EXPERIMENTS, experiment_id, dataclasses.replace(descriptor, runner=counting)
    )
    return calls


def payload_bytes(payload) -> str:
    from repro.engine.spec import canonical_json

    return canonical_json(dict(payload))


class TestFigureReductions:
    """fig7/fig8/fig9/ablation_mitigation reduce cacheable ``fig7_grid`` and
    ``fig8_variant`` units, which ``Campaign`` runs through its cache."""

    @pytest.mark.parametrize(
        "experiment_id, params",
        [
            ("fig7", {"fractions": [0.1], "num_placements": 1}),
            ("fig8", {}),
            ("fig9", {}),
            ("ablation_mitigation", {"variants": ["Original", "L2_reg"]}),
        ],
    )
    def test_campaign_payload_equals_descriptor_run(self, tmp_path, experiment_id, params):
        from repro.analysis.experiments import get_experiment

        descriptor = get_experiment(experiment_id)
        assert descriptor.reduction
        spec = descriptor.spec(params)
        result = Campaign([spec], cache=tmp_path).run()
        assert result.failures == 0 and result.executed == 1
        expected = payload_bytes(descriptor.run(params))
        assert result.records[0].canonical_payload() == expected
        # Again with every unit read back from the JSON cache.
        ResultCache(tmp_path).invalidate(spec)
        again = Campaign([spec], cache=tmp_path).run()
        assert again.records[0].canonical_payload() == expected

    def test_units_share_fingerprints_with_sweep_points(self):
        from repro.analysis.experiments import get_experiment

        variants = ["Original", "L2_reg", "l2+n2", "l2+n5"]
        cases = [
            (get_experiment("fig8").start(seed=3)[1],
             SweepSpec("fig8_variant", grid={"variant": variants}, seeds=(3,))),
            (get_experiment("fig7").start({"model_names": ["cnn_mnist", "vgg16_variant"]})[1],
             SweepSpec("fig7_grid", base={"fractions": [0.01, 0.1], "num_placements": 2},
                       grid={"model": ["cnn_mnist", "vgg16_variant"]})),
        ]
        for units, sweep in cases:
            assert [spec_fingerprint(unit, "v") for unit in units] == [
                spec_fingerprint(point, "v") for point in sweep.expand()
            ]

    def test_fig9_after_fig8_executes_no_unit(self, tmp_path, monkeypatch):
        from repro.analysis.experiments import get_experiment

        fig8 = get_experiment("fig8").spec()
        fig9 = get_experiment("fig9").spec()
        expected = payload_bytes(get_experiment("fig9").run())
        assert Campaign([fig8], cache=tmp_path).run().failures == 0
        calls = count_unit_runs(monkeypatch)
        result = Campaign([fig9], cache=tmp_path).run()
        assert calls == []
        assert result.failures == 0 and not result.records[0].cached
        assert result.records[0].canonical_payload() == expected
        assert len(list(ResultCache(tmp_path).records("fig8_variant"))) == 4

    def test_shared_units_run_once(self, tmp_path, monkeypatch):
        from repro.analysis.experiments import get_experiment

        calls = count_unit_runs(monkeypatch)
        specs = [get_experiment("fig8").spec(), get_experiment("fig9").spec()]
        result = Campaign(specs, cache=tmp_path).run()
        assert result.failures == 0 and result.executed == 2
        assert sorted(call["variant"] for call in calls) == sorted(
            ["Original", "L2_reg", "l2+n2", "l2+n5"]
        )
        assert len(list(ResultCache(tmp_path).records("fig8_variant"))) == 4
        # A cached reduction is not expanded again.
        calls.clear()
        again = Campaign(specs, cache=tmp_path).run()
        assert again.cache_hits == 2 and calls == []

    def test_failing_unit_gives_one_error_record(self, tmp_path, monkeypatch):
        from repro.analysis.experiments import get_experiment
        from repro.engine import RetryPolicy

        calls = count_unit_runs(monkeypatch)
        spec = get_experiment("ablation_mitigation").spec({"variants": ["Original", "bogus"]})
        result = Campaign(
            [spec], cache=tmp_path, retry=RetryPolicy(max_attempts=2, backoff_s=0.0)
        ).run()
        assert result.failures == 1 and len(result.records) == 1
        record = result.records[0]
        assert not record.ok
        assert "unit fig8_variant[" in record.error and "variant=bogus" in record.error
        assert ResultCache(tmp_path).get(spec) is None
        assert [call["variant"] for call in calls].count("bogus") == 2
        assert len(list(ResultCache(tmp_path).records("fig8_variant"))) == 1
        with pytest.raises(ValueError, match="bogus"):
            get_experiment("ablation_mitigation").run({"variants": ["Original", "bogus"]})

    def test_runner_that_yields_twice_is_an_error(self, tmp_path, monkeypatch):
        from repro.analysis import experiments

        def twice(seed: int = 0):
            yield []
            yield []

        descriptor = experiments.ExperimentDescriptor("twice", "Yields twice", "-", twice)
        monkeypatch.setitem(experiments.EXPERIMENTS, "twice", descriptor)
        result = Campaign([descriptor.spec()], cache=tmp_path).run()
        assert result.failures == 1
        assert "exactly once" in result.records[0].error
        assert not list(ResultCache(tmp_path).records())
        with pytest.raises(RuntimeError, match="exactly once"):
            descriptor.run()

    def test_reduction_duration_counts_the_units_run_for_it(self, tmp_path, monkeypatch):
        import time

        from repro.analysis import experiments

        def nap(seconds: float = 0.0, seed: int = 0):
            time.sleep(seconds)
            return {"slept": seconds}

        unit = experiments.ExperimentDescriptor("nap", "Sleeps", "-", nap)

        def naps(seconds: tuple = (0.0,), seed: int = 0):
            payloads = yield [unit.spec({"seconds": value}, seed) for value in seconds]
            return {"slept": sum(payload["slept"] for payload in payloads)}

        reduction = experiments.ExperimentDescriptor("naps", "Sleeps more", "-", naps)
        monkeypatch.setitem(experiments.EXPERIMENTS, "nap", unit)
        monkeypatch.setitem(experiments.EXPERIMENTS, "naps", reduction)
        both = reduction.spec({"seconds": [0.2, 0.3]})
        shared = reduction.spec({"seconds": [0.3]})
        result = Campaign([both, shared], cache=tmp_path).run()
        assert result.failures == 0
        naps_taken = {
            record.spec.params["seconds"]: record.duration_s
            for record in ResultCache(tmp_path).records("nap")
        }
        assert sorted(naps_taken) == [0.2, 0.3]
        # Each reduction counts the units it needed, not the campaign's wall time.
        both_s, shared_s = (record.duration_s for record in result.records)
        assert 0.0 <= both_s - (naps_taken[0.2] + naps_taken[0.3]) < 0.1
        assert 0.0 <= shared_s - naps_taken[0.3] < 0.1
        # Units the cache serves cost the reduction nothing.
        cached_units = reduction.spec({"seconds": [0.3, 0.2]})
        again = Campaign([cached_units], cache=tmp_path).run()
        assert again.records[0].ok and again.records[0].duration_s < 0.1


class TestCli:
    def test_parse_value_and_axis(self):
        assert parse_value("0.05") == 0.05
        assert parse_value("true") is True
        assert parse_value("hotspot") == "hotspot"
        assert parse_axis("kind=actuation,hotspot") == ("kind", ["actuation", "hotspot"])
        assert parse_axis("fraction=0.01,0.1") == ("fraction", [0.01, 0.1])
        assert parse_axis("model=cnn_mnist") == ("model", ["cnn_mnist"])

    def test_cli_list_smoke(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7_point" in out and "Table I" in out

    def test_cli_run_and_cache(self, tmp_path, capsys):
        argv = ["run", "ablation_tuning", "--json", "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "total_power_w" in payload
        assert cli_main(argv) == 0  # second run served from cache
        assert json.loads(capsys.readouterr().out) == payload

    def test_cli_run_unknown_experiment_fails(self, tmp_path, capsys):
        assert cli_main(["run", "fig42", "--cache-dir", str(tmp_path)]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_cli_sweep_and_report(self, tmp_path, capsys):
        argv = [
            "sweep", "ablation_tuning",
            "--grid", "shifts_nm=[0.2],[2.0]",
            "-j", "1", "--json", "--cache-dir", str(tmp_path),
        ]
        assert cli_main(argv) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["summary"]["points"] == 2
        assert output["summary"]["executed"] == 2
        assert cli_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["cache_hits"] == 2
        assert cli_main(["report", "--cache-dir", str(tmp_path)]) == 0
        report_out = capsys.readouterr().out
        assert "ablation_tuning" in report_out
        assert "min_s" in report_out and "mean_s" in report_out and "max_s" in report_out

    def test_cli_sweep_has_no_serial_switch(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["sweep", "ablation_tuning", "--serial"])
        assert exit_info.value.code == 2
        assert "--serial" in capsys.readouterr().err

    def test_cli_report_surfaces_run_timing(self, tmp_path, capsys):
        argv = [
            "sweep", "ablation_tuning",
            "--grid", "shifts_nm=[0.2],[1.0],[2.0]",
            "-j", "1", "--quiet", "--cache-dir", str(tmp_path),
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(["report", "--json", "--cache-dir", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)["experiments"]["ablation_tuning"]
        assert stats["records"] == 3
        assert 0.0 <= stats["min_duration_s"] <= stats["mean_duration_s"]
        assert stats["mean_duration_s"] <= stats["max_duration_s"]
        assert stats["total_duration_s"] == pytest.approx(
            3 * stats["mean_duration_s"]
        )

    def test_cli_run_rejects_negative_scenario_chunk(self, capsys):
        """A negative chunk is an error, not a grid of 0% accuracies."""
        argv = [
            "run", "fig7_grid", "--no-cache", "--json",
            "--set", 'kinds=["hotspot"]', "--set", "fractions=[0.1]",
            "--set", 'blocks=["fc"]', "--set", "num_placements=2",
            "--set", "scenario_chunk=-1",
        ]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert "scenario_chunk" in captured.err
        assert captured.out == ""

    def test_cli_run_rejects_out_of_range_signal_mc_fraction(self, capsys):
        """A fraction above 1 is an error, not every weight ring attacked."""
        argv = [
            "run", "signal_mc", "--no-cache", "--json",
            "--set", "kind=actuation", "--set", "fraction=2",
        ]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "fraction" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_python_dash_m_repro_entrypoint(self):
        """``python -m repro list`` works as a real subprocess."""
        repo_src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{repo_src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fig7_point" in proc.stdout
