"""Tests for the analysis harnesses: metrics, the Fig. 7-9 reductions, reporting."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    EXPERIMENTS,
    accuracy_drop,
    accuracy_recovery,
    box_stats,
    format_fig7_table,
    format_fig8_table,
    format_fig9_table,
    format_table,
    format_table1,
    get_experiment,
    most_robust_variant,
    percent,
    robust_comparison,
)
from repro.analysis.reporting import format_deployment_report
from repro.nn.models import table1_rows
from repro.utils.validation import ValidationError

from parity_digests import RUN_ORDER_RUNS, run_digests


class TestMetrics:
    def test_accuracy_drop_and_recovery(self):
        assert accuracy_drop(0.99, 0.915) == pytest.approx(0.075)
        assert accuracy_recovery(0.4, 0.75) == pytest.approx(0.35)

    def test_box_stats_five_numbers(self):
        stats = box_stats(np.array([0.1, 0.2, 0.3, 0.4, 0.5]))
        assert stats.minimum == 0.1 and stats.maximum == 0.5
        assert stats.median == 0.3
        assert stats.q1 == 0.2 and stats.q3 == 0.4
        assert stats.mean == pytest.approx(0.3)
        assert set(stats.as_dict()) == {"min", "q1", "median", "q3", "max", "mean"}

    def test_box_stats_empty_raises(self):
        with pytest.raises(ValueError):
            box_stats(np.array([]))

    def test_percent_formatting(self):
        assert percent(0.1234) == "12.34%"
        assert percent(0.5, digits=0) == "50%"


class TestReportingFormatters:
    def test_generic_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_table1_formatter_includes_all_models(self):
        text = format_table1(table1_rows(include_measured=True))
        for name in ("CNN_1", "ResNet18", "VGG16_v"):
            assert name in text

    def test_deployment_report_formatter(self):
        text = format_deployment_report({"model": "cnn_mnist", "conv_rounds": 2})
        assert "conv_rounds" in text


@pytest.fixture(scope="module")
def quick_fig7_grid():
    """The ``fig7_grid`` unit ``fig7`` reduces, on its default quick grid."""
    return get_experiment("fig7_grid").run(
        {"fractions": [0.01, 0.10], "num_placements": 2, "blocks": ["both"]}
    )


def grid_accuracies(grid: dict, kind: str | None = None, fraction: float | None = None):
    """The ``fig7_grid`` accuracies whose scenario label matches the filters."""
    values = []
    for label, accuracy in grid["accuracies"].items():
        label_kind, _, percent_label = label.split("#")[0].rsplit("-", 2)
        if kind is not None and label_kind != kind:
            continue
        if fraction is not None and percent_label != f"{round(fraction * 100)}%":
            continue
        values.append(accuracy)
    return np.asarray(values)


class TestSusceptibilityStudy:
    def test_baselines_and_scenarios_recorded(self, quick_fig7_grid):
        grid = quick_fig7_grid
        assert grid["model"] == "cnn_mnist" and grid["baseline"] > 0.7
        # 2 kinds x 1 block x 2 fractions x 2 placements
        assert grid["num_scenarios"] == len(grid["accuracies"]) == 8
        assert all(0.0 <= a <= 1.0 for a in grid["accuracies"].values())

    def test_larger_attacks_cause_larger_drops(self, quick_fig7_grid):
        small = grid_accuracies(quick_fig7_grid, fraction=0.01).mean()
        large = grid_accuracies(quick_fig7_grid, fraction=0.10).mean()
        assert large <= small + 0.02

    def test_hotspot_at_least_as_damaging_as_actuation(self, quick_fig7_grid):
        actuation = grid_accuracies(quick_fig7_grid, kind="actuation", fraction=0.10).mean()
        hotspot = grid_accuracies(quick_fig7_grid, kind="hotspot", fraction=0.10).mean()
        assert hotspot <= actuation + 0.05

    def test_worst_case_drop_and_series(self, quick_fig7_grid):
        grid = quick_fig7_grid
        assert grid["worst_case_drop"] == grid["baseline"] - min(grid["accuracies"].values())
        assert grid["worst_case_drop"] >= 0.0
        fig7 = get_experiment("fig7").run()
        assert fig7 == {
            "baselines": {"cnn_mnist": grid["baseline"]},
            "worst_case_drops": {"cnn_mnist": grid["worst_case_drop"]},
        }
        series: dict[str, list[float]] = {}
        for label, accuracy in grid["accuracies"].items():
            series.setdefault(label.split("#")[0], []).append(accuracy)
        assert any(label.startswith("hotspot-both") for label in series)
        assert all(len(values) == 2 for values in series.values())

    def test_prepare_workload_trains_the_serial_baseline(self):
        """The baseline trains as the stacked ``Original`` variant, with the
        weights the serial trainer gives it."""
        from repro.analysis.susceptibility import _WORKLOAD_DEFAULTS, SusceptibilityStudy
        from repro.nn import Trainer, TrainingConfig
        from repro.nn.models import build_model

        model, split = SusceptibilityStudy().prepare_workload("cnn_mnist")
        reference = build_model("cnn_mnist", profile="scaled", rng=0)
        training = TrainingConfig(seed=0, **_WORKLOAD_DEFAULTS["cnn_mnist"]["training"])
        Trainer(reference, training).fit(split.train)
        state, expected = model.full_state_dict(), reference.full_state_dict()
        assert state.keys() == expected.keys()
        for name in state:
            assert state[name].tobytes() == expected[name].tobytes(), name

    def test_fig7_formatter(self, quick_fig7_grid):
        text = format_fig7_table(quick_fig7_grid)
        assert "hotspot" in text and "actuation" in text and "baseline" in text
        assert len(text.splitlines()) == 3 + 4  # title, header, rule + 4 settings


#: A reduced Fig. 8 attack grid: both paper kinds, CONV+FC, 10%, 2 placements.
QUICK_FIG8_GRID = {
    "kinds": ["actuation", "hotspot"],
    "blocks": ["both"],
    "fractions": [0.10],
    "num_placements": 2,
}


@pytest.fixture(scope="module")
def quick_variant_payloads():
    """Two ``fig8_variant`` units on the reduced grid, as ``fig8`` sees them."""
    unit = get_experiment("fig8_variant")
    return [unit.run({"variant": name, **QUICK_FIG8_GRID}) for name in ("Original", "l2+n3")]


class TestMitigationStudy:
    def test_distributions_cover_all_variants(self, quick_variant_payloads):
        assert {unit["variant"] for unit in quick_variant_payloads} == {"Original", "l2+n3"}
        for unit in quick_variant_payloads:
            assert unit["model"] == "cnn_mnist"
            assert len(unit["accuracies"]) == 4  # 2 kinds x 1 fraction x 2 placements

    def test_best_variant_is_not_original(self, quick_variant_payloads):
        assert most_robust_variant(quick_variant_payloads) != "Original"

    def test_comparison_rows_have_both_kinds(self, quick_variant_payloads):
        rows = robust_comparison(quick_variant_payloads, QUICK_FIG8_GRID)
        assert {row["kind"] for row in rows} == {"actuation", "hotspot"}
        for row in rows:
            assert row["model"] == "cnn_mnist" and row["robust_variant"] == "l2+n3"
            assert 0.0 <= row["original_min"] <= row["original_mean"] <= 1.0
            assert 0.0 <= row["robust_min"] <= row["robust_mean"] <= 1.0
            assert row["recovery"] == row["robust_min"] - row["original_min"]

    def test_fig8_and_fig9_formatters(self, quick_variant_payloads):
        fig8 = format_fig8_table(quick_variant_payloads, "cnn_mnist")
        assert "l2+n3" in fig8
        rows = robust_comparison(quick_variant_payloads, QUICK_FIG8_GRID)
        fig9 = format_fig9_table(rows, "cnn_mnist")
        assert "recovery" in fig9.lower()


class TestExperimentRegistry:
    def test_registry_covers_all_paper_artefacts(self):
        assert {"table1", "fig6", "fig7", "fig8", "fig9"}.issubset(EXPERIMENTS)

    def test_get_experiment_unknown_id(self):
        with pytest.raises(KeyError):
            get_experiment("fig42")

    def test_runner_parameter_without_default_is_rejected(self):
        from repro.analysis.experiments import ExperimentDescriptor

        def runner(size, seed: int = 0) -> dict:
            return {"size": size, "seed": seed}

        with pytest.raises(TypeError, match="'no_default'.*'size'"):
            ExperimentDescriptor("no_default", "title", "Fig. 0", runner)

    def test_table1_runner(self):
        result = get_experiment("table1").run()
        assert len(result["rows"]) == 3

    def test_fig6_runner(self):
        result = get_experiment("fig6").run()
        assert result["peak_rise_k"] > 5.0
        assert result["num_affected_banks"] >= len(result["attacked_banks"])

    def test_ablation_tuning_runner(self):
        result = get_experiment("ablation_tuning").run()
        assert result["shift_0.2nm"]["eo_energy_j"] < result["shift_0.2nm"]["to_energy_j"]
        assert result["total_power_w"] > 0


class TestSignalMonteCarlo:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"size": True},
            {"trials": 0},
            {"max_delta_t_k": -5.0},
            {"max_delta_t_k": float("nan")},
            {"kind": "actuation", "fraction": -0.5},
            {"kind": "actuation", "fraction": 2.0},
            {"kind": "phase"},
        ],
        ids=["size=true", "trials=0", "max_delta_t_k=-5", "max_delta_t_k=nan",
             "fraction=-0.5", "fraction=2", "kind=phase"],
    )
    def test_out_of_domain_fields_are_rejected(self, overrides):
        field = list(overrides)[-1]
        with pytest.raises(ValidationError, match=field):
            get_experiment("signal_mc").run(overrides)

    def test_domain_bounds_are_accepted(self):
        experiment = get_experiment("signal_mc")
        unheated = experiment.run({"trials": 1, "max_delta_t_k": 0.0})
        assert unheated["trials"] == 1 and unheated["max_abs_error"] < 1e-12
        every_ring = experiment.run({"kind": "actuation", "fraction": 1.0, "trials": 3})
        assert every_ring["corrupted_trials_fraction"] == 1.0


class TestWorkloadMemos:
    """A run's payload and weights do not depend on what ran earlier in-process."""

    MEMOS = ("_WORKLOADS",)

    @pytest.fixture
    def reset_memos(self, monkeypatch, tmp_path):
        from repro.analysis import experiments

        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))

        def reset():
            for name in self.MEMOS:
                monkeypatch.setattr(experiments, name, {})

        reset()
        return reset

    def test_unquantized_candidate_after_quantized_run(self, reset_memos):
        from repro.analysis.experiments import prepared_workload

        candidate = get_experiment("fig7_candidate")
        params = {"variant": "l2+n3", "checkpoint_cache": True}

        def run_unquantized():
            payload = candidate.run({**params, "quantize_weights": False})
            engine, _, _, _ = prepared_workload(
                "cnn_mnist", "l2+n3", 0, quantize_weights=False, checkpoint_cache=True
            )
            return payload, engine.model.full_state_dict()

        candidate.run({**params, "quantize_weights": True})
        quantized, _, _, _ = prepared_workload(
            "cnn_mnist", "l2+n3", 0, quantize_weights=True, checkpoint_cache=True
        )
        payload_after, weights_after = run_unquantized()
        # A fresh process: the variant loads from the checkpoint stored above.
        reset_memos()
        payload_fresh, weights_fresh = run_unquantized()

        assert payload_after == payload_fresh
        assert sorted(weights_after) == sorted(weights_fresh)
        for key, value in weights_fresh.items():
            assert weights_after[key].tobytes() == value.tobytes(), key
        quantized_weights = quantized.model.full_state_dict()
        assert any(
            quantized_weights[key].tobytes() != value.tobytes()
            for key, value in weights_fresh.items()
        )

    def test_clean_accuracy_is_computed_on_first_read(self, reset_memos, monkeypatch):
        from repro.accelerator.inference import AttackedInferenceEngine

        calls = []
        clean_accuracy = AttackedInferenceEngine.clean_accuracy

        def counting(engine, dataset):
            calls.append(engine)
            return clean_accuracy(engine, dataset)

        monkeypatch.setattr(AttackedInferenceEngine, "clean_accuracy", counting)
        get_experiment("fig8_variant").run()
        assert calls == []  # fig8_variant reports the trained variant's accuracy
        candidate = get_experiment("fig7_candidate")
        candidate.run({"variant": "l2+n3"})
        candidate.run({"variant": "l2+n3", "fraction": 0.1})
        assert len(calls) == 1  # memoized per engine

    @pytest.mark.parametrize("experiment_id", ["fig8_variant", "fig7_candidate"])
    def test_checkpoint_run_after_uncached_run_fills_store(
        self, reset_memos, tmp_path, experiment_id
    ):
        from repro.engine.checkpoints import CheckpointCache

        experiment = get_experiment(experiment_id)
        uncached = experiment.run({"variant": "l2+n3", "checkpoint_cache": False})
        cached = experiment.run({"variant": "l2+n3", "checkpoint_cache": True})

        assert cached == uncached
        stored = [entry["variant"] for entry in CheckpointCache(tmp_path).entries()]
        assert stored == ["l2+n3"]

    def test_payloads_independent_of_run_order(self, reset_memos, tmp_path):
        """A shuffled in-process sweep matches a fresh process in registry order."""
        order = random.Random(18).sample(range(len(RUN_ORDER_RUNS)), len(RUN_ORDER_RUNS))
        assert order != sorted(order)
        shuffled = run_digests([RUN_ORDER_RUNS[index] for index in order])

        tests_dir = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tests_dir.parent / "src"), env.get("PYTHONPATH", "")]
        )
        env["REPRO_CHECKPOINT_DIR"] = str(tmp_path / "fresh")
        script = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from parity_digests import RUN_ORDER_RUNS, run_digests; "
            "print(json.dumps(run_digests(RUN_ORDER_RUNS)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tests_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        fresh = json.loads(proc.stdout.splitlines()[-1])

        assert len(fresh) == len(RUN_ORDER_RUNS)
        for position, index in enumerate(order):
            assert shuffled[position] == fresh[index], RUN_ORDER_RUNS[index]
