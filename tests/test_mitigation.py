"""Tests for the mitigation package: L2, noise-aware training, variant grid, selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset, train_test_split
from repro.mitigation import (
    L2Config,
    NoiseAwareConfig,
    VariantSpec,
    default_variant_grid,
    l2_training_config,
    noise_aware_training_config,
    select_most_robust,
    train_variant,
    train_variant_grid,
    variant_spec_from_name,
)
from repro.mitigation.noise_aware import PAPER_NOISE_LEVELS
from repro.mitigation.selection import score_variant
from repro.nn.training import TrainingConfig


class TestConfigs:
    def test_l2_config_applies_weight_decay(self):
        base = TrainingConfig(epochs=1)
        updated = l2_training_config(base, L2Config(weight_decay=1e-3))
        assert updated.weight_decay == 1e-3
        assert base.weight_decay == 0.0

    def test_l2_config_rejects_negative(self):
        with pytest.raises(ValueError):
            L2Config(weight_decay=-1.0)

    def test_noise_config_suffix_and_fields(self):
        noise = NoiseAwareConfig(std=0.3)
        assert noise.variant_suffix == "n3"
        assert noise.enabled
        assert noise.model_noise_std == 0.3
        assert noise.weight_noise_std == 0.3

    def test_noise_config_injection_sites(self):
        activations_only = NoiseAwareConfig(std=0.2, inject_weights=False)
        assert activations_only.weight_noise_std == 0.0
        assert activations_only.model_noise_std == 0.2
        weights_only = NoiseAwareConfig(std=0.2, inject_activations=False)
        assert weights_only.model_noise_std == 0.0
        assert weights_only.weight_noise_std == 0.2

    def test_noise_training_config_helper(self):
        base = TrainingConfig(epochs=1)
        updated = noise_aware_training_config(base, NoiseAwareConfig(std=0.4))
        assert updated.weight_noise_std == 0.4

    def test_paper_noise_levels(self):
        assert PAPER_NOISE_LEVELS == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class TestVariantGrid:
    def test_default_grid_matches_paper(self):
        grid = default_variant_grid()
        names = [spec.name for spec in grid]
        assert names[0] == "Original"
        assert names[1] == "L2_reg"
        assert names[2:] == [f"l2+n{i}" for i in range(1, 10)]
        assert len(grid) == 11

    def test_noise_only_variants_optional(self):
        grid = default_variant_grid(include_noise_only=True, noise_levels=(0.1, 0.2))
        names = [spec.name for spec in grid]
        assert "noise_n1" in names and "noise_n2" in names

    def test_variant_names_parse_to_grid_specs(self):
        for spec in default_variant_grid(include_noise_only=True):
            assert variant_spec_from_name(spec.name) == spec

    @pytest.mark.parametrize(
        "name", ["l2+n0", "l2+n10", "noise_n12", "l2+n05", "l2+n\u0663", "noise_n", "l2+n3\n"]
    )
    def test_variant_name_needs_one_ascii_digit_1_to_9(self, name):
        with pytest.raises(ValueError, match="unknown variant name"):
            variant_spec_from_name(name)

    def test_cli_train_rejects_out_of_range_variant(self, tmp_path, capsys):
        from repro.engine.cli import main as cli_main

        argv = ["train", "cnn_mnist", "--variants", "l2+n10", "--checkpoint-dir", str(tmp_path)]
        assert cli_main(argv) == 1
        assert "'l2+n10'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_variant_flags(self):
        original = VariantSpec(name="Original")
        combined = VariantSpec(name="l2+n1", l2=L2Config(), noise=NoiseAwareConfig(std=0.1))
        assert not original.uses_l2 and not original.uses_noise
        assert combined.uses_l2 and combined.uses_noise


class TestTrainVariants:
    @pytest.fixture(scope="class")
    def small_split(self):
        data = load_dataset("mnist", num_samples=260, seed=3)
        return train_test_split(data, 0.25, seed=4)

    def test_train_single_variant_reaches_reasonable_accuracy(self, small_split):
        result = train_variant(
            "cnn_mnist",
            VariantSpec(name="L2_reg", l2=L2Config()),
            small_split,
            TrainingConfig(epochs=3, batch_size=32, lr=2e-3, seed=0),
        )
        assert result.baseline_accuracy > 0.5
        assert result.spec.name == "L2_reg"

    def test_noise_variant_builds_model_with_noise_layers(self, small_split):
        from repro.nn.layers import GaussianNoise

        result = train_variant(
            "cnn_mnist",
            VariantSpec(name="l2+n3", l2=L2Config(), noise=NoiseAwareConfig(std=0.3)),
            small_split,
            TrainingConfig(epochs=1, batch_size=32, lr=2e-3, seed=0),
        )
        assert any(isinstance(m, GaussianNoise) for m in result.model.modules())

    def test_train_variant_grid_returns_all(self, small_split):
        variants = (
            VariantSpec(name="Original"),
            VariantSpec(name="L2_reg", l2=L2Config()),
        )
        results = train_variant_grid(
            "cnn_mnist",
            small_split,
            TrainingConfig(epochs=1, batch_size=32, lr=2e-3, seed=0),
            variants=list(variants),
        )
        assert [r.spec.name for r in results] == ["Original", "L2_reg"]


class TestSelection:
    def test_selects_highest_median(self):
        accuracy_by_variant = {
            "Original": np.array([0.5, 0.6, 0.4]),
            "L2_reg": np.array([0.7, 0.72, 0.68]),
            "l2+n3": np.array([0.8, 0.82, 0.78]),
        }
        best, scores = select_most_robust(accuracy_by_variant)
        assert best == "l2+n3"
        assert scores[0].variant == "l2+n3"
        assert scores[0].median_accuracy > scores[-1].median_accuracy

    def test_original_is_excluded_even_if_best(self):
        accuracy_by_variant = {
            "Original": np.array([0.99, 0.99]),
            "L2_reg": np.array([0.6, 0.6]),
        }
        best, _ = select_most_robust(accuracy_by_variant)
        assert best == "L2_reg"

    def test_mean_breaks_median_ties(self):
        accuracy_by_variant = {
            "Original": np.array([0.1]),
            "a": np.array([0.5, 0.7, 0.7]),
            "b": np.array([0.7, 0.7, 0.7]),
        }
        best, _ = select_most_robust(accuracy_by_variant)
        assert best == "b"

    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            select_most_robust({"Original": np.array([0.5])})
        with pytest.raises(ValueError):
            score_variant("x", np.array([]))
