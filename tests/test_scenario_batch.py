"""Tests for scenario-batched attacked inference.

The scenario-batch subsystem has three layers — the vectorized corruption
kernel (:func:`repro.attacks.injection.corrupted_state_batch`), the
ensemble-weight forward path (:mod:`repro.nn.ensemble` + the stacked-aware
layers) and the engine's chunked evaluation
(:meth:`AttackedInferenceEngine.accuracy_under_attacks`).  Each layer is
property-tested against the per-scenario reference path, which stays the
source of truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import AcceleratorConfig, AttackedInferenceEngine, WeightMapping
from repro.attacks import (
    ActuationAttack,
    AttackOutcome,
    AttackSpec,
    BlockEffect,
    HotspotAttack,
    corrupted_state_batch,
    corrupted_state_dict,
)
from repro.attacks.injection import OFF_RESONANCE_MAGNITUDE
from repro.nn import stacked_state
from repro.nn.layers import BatchNorm2D, Conv2D, Linear, MaxPool2D
from repro.nn.models import build_model
from repro.photonics import constants
from repro.photonics.thermal_sensitivity import ThermalSensitivity
from repro.utils.validation import ValidationError


def _mixed_outcomes(config, seeds=(0, 1, 2, 3)):
    """A small grid of actuation + hotspot outcomes on both blocks."""
    outcomes = []
    for seed in seeds:
        outcomes.append(
            ActuationAttack(AttackSpec("actuation", "both", 0.1)).sample(config, seed=seed)
        )
        outcomes.append(
            HotspotAttack(AttackSpec("hotspot", "both", 0.1)).sample(config, seed=seed)
        )
    return outcomes


def _hotspot_outcome(block: str, bank_delta_t: dict[int, float], attacked=None):
    """Hand-placed hotspot outcome (no thermal solver)."""
    outcome = AttackOutcome(spec=AttackSpec("hotspot", block, 0.05))
    outcome.effects[block] = BlockEffect(
        bank_delta_t=dict(bank_delta_t),
        attacked_banks=tuple(attacked if attacked is not None else bank_delta_t),
    )
    return outcome


def _delta_for_channels(config, channels: float) -> float:
    """Temperature rise producing a resonance shift of ``channels`` spacings."""
    sensitivity = ThermalSensitivity()
    return sensitivity.temperature_for_shift(
        constants.C_BAND_CENTER_NM, channels * config.channel_spacing_nm
    )


class TestCorruptedStateBatch:
    @pytest.fixture
    def model_and_mapping(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        return model, mapping

    def test_batch_rows_bit_identical_to_serial(self, model_and_mapping,
                                                tiny_accelerator_config):
        model, mapping = model_and_mapping
        outcomes = _mixed_outcomes(tiny_accelerator_config)
        stacked = corrupted_state_batch(model, mapping, outcomes)
        for index, outcome in enumerate(outcomes):
            serial = corrupted_state_dict(model, mapping, outcome)
            for mapped in mapping.parameters:
                np.testing.assert_array_equal(
                    stacked[mapped.name][index], serial[mapped.name],
                    err_msg=f"{mapped.name} scenario {index}",
                )

    def test_batch_contains_only_mapped_parameters(self, model_and_mapping,
                                                   tiny_accelerator_config):
        model, mapping = model_and_mapping
        outcome = _mixed_outcomes(tiny_accelerator_config, seeds=(0,))[0]
        stacked = corrupted_state_batch(model, mapping, [outcome])
        assert set(stacked) == {m.name for m in mapping.parameters}
        for mapped in mapping.parameters:
            assert stacked[mapped.name].shape == (1, *mapped.shape)

    def test_empty_outcome_list_rejected(self, model_and_mapping):
        model, mapping = model_and_mapping
        with pytest.raises(ValidationError):
            corrupted_state_batch(model, mapping, [])

    def test_base_state_not_mutated(self, model_and_mapping, tiny_accelerator_config):
        model, mapping = model_and_mapping
        clean = model.state_dict()
        snapshot = {k: v.copy() for k, v in clean.items()}
        outcomes = _mixed_outcomes(tiny_accelerator_config, seeds=(0, 1))
        corrupted_state_batch(model, mapping, outcomes, state=clean)
        corrupted_state_dict(model, mapping, outcomes[0], state=clean)
        for name in clean:
            np.testing.assert_array_equal(clean[name], snapshot[name])


class TestHotspotEdgeCases:
    """Re-pairing corner cases, asserted identical between both paths."""

    @pytest.fixture
    def model_and_mapping(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=1)
        mapping = WeightMapping(model, tiny_accelerator_config)
        return model, mapping

    def _assert_paths_agree(self, model, mapping, outcomes):
        stacked = corrupted_state_batch(model, mapping, outcomes)
        for index, outcome in enumerate(outcomes):
            serial = corrupted_state_dict(model, mapping, outcome)
            for mapped in mapping.parameters:
                np.testing.assert_array_equal(
                    stacked[mapped.name][index], serial[mapped.name]
                )
        return stacked

    def test_whole_channel_shift_at_bank_boundary(self, model_and_mapping,
                                                  tiny_accelerator_config):
        """A k-channel shift re-pairs within the bank; the first k carriers die."""
        model, mapping = model_and_mapping
        config = tiny_accelerator_config
        geometry = config.conv_block
        shift_channels = 2
        delta = _delta_for_channels(config, shift_channels)
        outcome = _hotspot_outcome("conv", {0: delta})
        self._assert_paths_agree(model, mapping, [outcome])

        corrupted = corrupted_state_dict(model, mapping, outcome)
        for mapped in mapping.parameters_in_block("conv"):
            slots = mapping.slots_for(mapped)
            cols = slots % geometry.cols
            banks = slots // geometry.cols
            original = model.state_dict()[mapped.name].reshape(-1)
            changed = corrupted[mapped.name].reshape(-1)
            in_bank = banks == 0
            # Carriers below the shift lose their magnitude entirely.
            dead = in_bank & (cols < shift_channels)
            assert np.all(
                np.abs(changed[dead]) <= mapped.scale * OFF_RESONANCE_MAGNITUDE + 1e-6
            )
            # Re-paired carriers pick up the magnitude k positions earlier
            # (residual is zero for an exact whole-channel shift).
            repaired = np.flatnonzero(in_bank & (cols >= shift_channels))
            np.testing.assert_allclose(
                np.abs(changed[repaired]),
                np.abs(original[repaired - shift_channels]),
                atol=1e-6,
            )

    def test_shift_of_full_bank_width_kills_the_bank(self, model_and_mapping,
                                                     tiny_accelerator_config):
        """``k >= cols`` pushes every ring of the bank past its carrier comb."""
        model, mapping = model_and_mapping
        config = tiny_accelerator_config
        geometry = config.fc_block
        delta = _delta_for_channels(config, geometry.cols)
        outcome = _hotspot_outcome("fc", {1: delta})
        self._assert_paths_agree(model, mapping, [outcome])

        corrupted = corrupted_state_dict(model, mapping, outcome)
        for mapped in mapping.parameters_in_block("fc"):
            banks = mapping.slots_for(mapped) // geometry.cols
            changed = corrupted[mapped.name].reshape(-1)
            in_bank = banks == 1
            assert np.all(
                np.abs(changed[in_bank]) <= mapped.scale * OFF_RESONANCE_MAGNITUDE + 1e-6
            )

    def test_mixed_actuation_and_hotspot_on_same_bank(self, model_and_mapping,
                                                      tiny_accelerator_config):
        """Actuated rings go dark first; the shift then re-pairs the dark slot."""
        model, mapping = model_and_mapping
        config = tiny_accelerator_config
        geometry = config.conv_block
        delta = _delta_for_channels(config, 1)
        outcome = _hotspot_outcome("conv", {2: delta})
        # Actuate the first two slots of the heated bank.
        outcome.effect("conv").slots_off = np.array(
            [2 * geometry.cols, 2 * geometry.cols + 1]
        )
        self._assert_paths_agree(model, mapping, [outcome])

        corrupted = corrupted_state_dict(model, mapping, outcome)
        for mapped in mapping.parameters_in_block("conv"):
            slots = mapping.slots_for(mapped)
            cols = slots % geometry.cols
            banks = slots // geometry.cols
            changed = corrupted[mapped.name].reshape(-1)
            # Carrier 1 of the heated bank re-pairs with the actuated ring 0,
            # so it couples the off-resonance floor, not its programmed value.
            repaired_from_actuated = (banks == 2) & (cols == 1)
            assert np.all(
                np.abs(changed[repaired_from_actuated])
                <= mapped.scale * OFF_RESONANCE_MAGNITUDE + 1e-6
            )

    def test_fractional_shift_scales_by_lorentzian(self, model_and_mapping,
                                                   tiny_accelerator_config):
        model, mapping = model_and_mapping
        config = tiny_accelerator_config
        delta = _delta_for_channels(config, 0.25)
        outcome = _hotspot_outcome("conv", {0: delta})
        stacked = self._assert_paths_agree(model, mapping, [outcome])
        mapped = mapping.parameters_in_block("conv")[0]
        banks = mapping.slots_for(mapped) // config.conv_block.cols
        original = np.abs(model.state_dict()[mapped.name].reshape(-1))
        changed = np.abs(stacked[mapped.name][0].reshape(-1))
        in_bank = (banks == 0) & (original > 1e-4)
        ratio = changed[in_bank] / original[in_bank]
        residual_nm = 0.25 * config.channel_spacing_nm
        linewidth_nm = constants.C_BAND_CENTER_NM / config.q_factor
        expected = 1.0 / (1.0 + (2.0 * residual_nm / linewidth_nm) ** 2)
        np.testing.assert_allclose(ratio, expected, atol=1e-5)


class TestNegativeShiftGuard:
    def _negative_sensitivity(self) -> ThermalSensitivity:
        """A (physically exotic) negative-dn/dT sensitivity, bypassing validation."""
        sensitivity = ThermalSensitivity.__new__(ThermalSensitivity)
        object.__setattr__(sensitivity, "confinement_factor",
                           constants.SILICON_CONFINEMENT_FACTOR)
        object.__setattr__(sensitivity, "thermo_optic_coeff",
                           -constants.SILICON_THERMO_OPTIC_COEFF)
        object.__setattr__(sensitivity, "group_index", constants.SILICON_GROUP_INDEX)
        return sensitivity

    def test_negative_coefficient_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            ThermalSensitivity(thermo_optic_coeff=-1.8e-4)

    def test_serial_injection_rejects_negative_shift(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        outcome = _hotspot_outcome("conv", {0: 20.0})
        with pytest.raises(ValidationError, match="negative thermally induced"):
            corrupted_state_dict(
                model, mapping, outcome, sensitivity=self._negative_sensitivity()
            )

    def test_batch_injection_rejects_negative_shift(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        outcome = _hotspot_outcome("conv", {0: 20.0})
        with pytest.raises(ValidationError, match="negative thermally induced"):
            corrupted_state_batch(
                model, mapping, [outcome], sensitivity=self._negative_sensitivity()
            )


class TestEnsembleForward:
    def test_stacked_logits_match_serial_forwards(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0).eval()
        mapping = WeightMapping(model, tiny_accelerator_config)
        outcomes = _mixed_outcomes(tiny_accelerator_config, seeds=(0, 1))
        stacked = corrupted_state_batch(model, mapping, outcomes)
        x = np.random.default_rng(0).random((5, 1, 28, 28)).astype(np.float32)
        with stacked_state(model, stacked):
            batched = model(x)
        assert batched.shape == (len(outcomes), 5, 10)
        clean = model.state_dict()
        for index, outcome in enumerate(outcomes):
            model.load_state_dict(
                corrupted_state_dict(model, mapping, outcome, state=clean)
            )
            np.testing.assert_array_equal(batched[index], model(x))
        model.load_state_dict(clean)

    def test_singleton_rows_broadcast_against_stacked_layers(self):
        model = build_model("cnn_mnist", profile="scaled", rng=0).eval()
        params = dict(model.named_parameters())
        fc_name = next(n for n, p in params.items() if p.kind == "fc")
        stacked = {
            name: np.repeat(param.data[None], 3 if name == fc_name else 1, axis=0)
            for name, param in params.items()
            if param.kind in ("conv", "fc")
        }
        x = np.random.default_rng(1).random((4, 1, 28, 28)).astype(np.float32)
        reference = model(x)
        with stacked_state(model, stacked):
            out = model(x)
        assert out.shape == (3, 4, 10)
        for index in range(3):
            np.testing.assert_array_equal(out[index], reference)

    def test_stacked_state_cleared_after_context(self):
        model = build_model("cnn_mnist", profile="scaled", rng=0).eval()
        stacked = {
            name: param.data[None]
            for name, param in model.named_parameters()
            if param.kind in ("conv", "fc")
        }
        with stacked_state(model, stacked):
            assert model.has_stacked_state()
        assert not model.has_stacked_state()
        x = np.random.default_rng(2).random((2, 1, 28, 28)).astype(np.float32)
        assert model(x).shape == (2, 10)

    def test_load_stacked_state_validation(self):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        params = dict(model.named_parameters())
        conv_names = [n for n, p in params.items() if p.kind == "conv"]
        with pytest.raises(KeyError):
            model.load_stacked_state({"nope": np.zeros((2, 3))})
        with pytest.raises(ValueError):
            model.load_stacked_state({conv_names[0]: np.zeros((2, 3, 3))})
        with pytest.raises(ValueError):
            model.load_stacked_state({
                conv_names[0]: np.repeat(params[conv_names[0]].data[None], 2, axis=0),
                conv_names[1]: np.repeat(params[conv_names[1]].data[None], 3, axis=0),
            })

    def test_backward_after_ensemble_forward_raises(self):
        rng = np.random.default_rng(3)
        linear = Linear(6, 4, rng=0)
        linear.weight.stacked = np.repeat(linear.weight.data[None], 2, axis=0)
        out = linear(rng.random((3, 6)).astype(np.float32))
        assert out.shape == (2, 3, 4)
        with pytest.raises(RuntimeError):
            linear.backward(np.ones((3, 4), dtype=np.float32))

        conv = Conv2D(2, 3, kernel_size=3, padding=1, rng=0)
        conv.weight.stacked = np.repeat(conv.weight.data[None], 2, axis=0)
        out = conv(rng.random((2, 2, 8, 8)).astype(np.float32))
        assert out.shape == (2, 2, 3, 8, 8)
        with pytest.raises(RuntimeError):
            conv.backward(np.ones((2, 3, 8, 8), dtype=np.float32))

    def test_batchnorm_rejects_stacked_training_input(self):
        bn = BatchNorm2D(4)
        stacked = np.random.default_rng(4).random((2, 3, 4, 5, 5)).astype(np.float32)
        bn.train()
        with pytest.raises(RuntimeError):
            bn(stacked)
        bn.eval()
        out = bn(stacked)
        assert out.shape == stacked.shape

    def test_maxpool_fast_path_matches_im2col_path(self):
        rng = np.random.default_rng(5)
        pool = MaxPool2D(2)
        x = rng.random((3, 4, 2, 8, 8)).astype(np.float32)
        # Exact ties, the -0.0 that ReLU's ``x * mask`` emits for negative
        # inputs, +inf and NaN.
        special = rng.choice(
            np.array([-0.0, 0.0, 0.5, 0.5, 1.0, np.inf, np.nan], dtype=np.float32),
            size=x.shape,
        )
        for training in (True, False):
            pool.train(training)
            for data in (x, special):
                fast = pool(data)
                per_scenario = np.stack([pool(data[i]) for i in range(3)])
                np.testing.assert_array_equal(fast, per_scenario)
                if training:  # one window kernel serves both: bytes match too
                    assert fast.tobytes() == per_scenario.tobytes()
                assert fast.dtype == np.float32 and fast.flags.c_contiguous
        assert np.isnan(fast).any() and np.isinf(fast).any()


class TestEngineScenarioBatch:
    @pytest.fixture(scope="class")
    def engine_and_data(self, trained_mnist_model, mnist_split,
                        scaled_accelerator_config):
        engine = AttackedInferenceEngine(trained_mnist_model, scaled_accelerator_config)
        return engine, mnist_split.test

    @pytest.fixture(scope="class")
    def outcomes(self, scaled_accelerator_config):
        config = scaled_accelerator_config
        outcomes = _mixed_outcomes(config, seeds=(0, 1))
        outcomes += [
            ActuationAttack(AttackSpec("actuation", "fc", 0.1)).sample(config, seed=7),
            HotspotAttack(AttackSpec("hotspot", "fc", 0.2)).sample(config, seed=8),
            ActuationAttack(AttackSpec("actuation", "conv", 0.1)).sample(config, seed=9),
        ]
        return outcomes

    def test_batched_accuracies_match_reference(self, engine_and_data, outcomes):
        engine, dataset = engine_and_data
        serial = np.array(
            [engine.accuracy_under_attack(dataset, outcome) for outcome in outcomes]
        )
        batched = engine.accuracy_under_attacks(dataset, outcomes)
        np.testing.assert_array_equal(batched, serial)

    def test_chunking_preserves_scenario_order(self, engine_and_data, outcomes):
        engine, dataset = engine_and_data
        full = engine.accuracy_under_attacks(dataset, outcomes)
        chunked = engine.accuracy_under_attacks(dataset, outcomes, scenario_chunk=2)
        np.testing.assert_array_equal(full, chunked)

    @pytest.mark.parametrize("chunk", [-1, 0, 2.5])
    def test_scenario_chunk_must_be_positive_int_or_none(
        self, engine_and_data, outcomes, trained_mnist_model, chunk
    ):
        engine, dataset = engine_and_data
        with pytest.raises(ValidationError, match="scenario_chunk"):
            AttackedInferenceEngine(trained_mnist_model, scenario_chunk=chunk)
        with pytest.raises(ValidationError, match="scenario_chunk"):
            engine.accuracy_under_attacks(dataset, outcomes, scenario_chunk=chunk)
        with pytest.raises(ValidationError, match="scenario_chunk"):
            engine.weight_corruption_fractions(outcomes, scenario_chunk=chunk)

    def test_empty_outcome_list(self, engine_and_data):
        engine, dataset = engine_and_data
        assert engine.accuracy_under_attacks(dataset, []).size == 0

    def test_corruption_fractions_match_reference(self, engine_and_data, outcomes):
        engine, dataset = engine_and_data
        batched = engine.weight_corruption_fractions(outcomes)
        clean = engine.model.state_dict()
        total = sum(m.size for m in engine.mapping.parameters)
        for outcome, fraction in zip(outcomes, batched):
            corrupted = engine.corrupted_weights(outcome)
            changed = sum(
                int(np.count_nonzero(
                    np.abs(corrupted[m.name] - clean[m.name]) > 1e-7
                ))
                for m in engine.mapping.parameters
            )
            assert fraction == pytest.approx(changed / total)

    def test_attack_context_restores_cached_clean_state(self, engine_and_data,
                                                        outcomes):
        engine, dataset = engine_and_data
        before = {k: v.copy() for k, v in engine.model.state_dict().items()}
        engine.accuracy_under_attack(dataset, outcomes[0])
        engine.accuracy_under_attacks(dataset, outcomes[:2])
        after = engine.model.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_clean_scenario_broadcasts(self, engine_and_data):
        """An outcome that touches nothing reproduces the clean accuracy."""
        engine, dataset = engine_and_data
        empty = AttackOutcome(spec=AttackSpec("actuation", "both", 0.01))
        accuracies = engine.accuracy_under_attacks(dataset, [empty])
        # The clean model round-trips through normalize/denormalize, so
        # compare against the per-scenario path, not clean_accuracy().
        assert accuracies[0] == engine.accuracy_under_attack(dataset, empty)


class TestStudyIntegration:
    def test_susceptibility_backends_agree(self):
        """Every ``fig7_grid`` accuracy equals the per-scenario reference on its outcome."""
        from repro.analysis.experiments import get_experiment, prepared_workload
        from repro.attacks.hotspot import HotspotAttackConfig
        from repro.attacks.scenario import generate_scenarios, sample_outcome

        params = {"fractions": [0.01, 0.10], "num_placements": 2, "blocks": ["both"]}
        grid = get_experiment("fig7_grid").run(params)
        resolved = get_experiment("fig7_grid").resolve_params(params)
        scenarios = generate_scenarios(
            kinds=resolved["kinds"],
            blocks=resolved["blocks"],
            fractions=resolved["fractions"],
            num_placements=resolved["num_placements"],
            master_seed=resolved["seed"],
        )
        _, split, _, trained = prepared_workload("cnn_mnist", "Original", 0)
        accelerator = AcceleratorConfig.scaled_config()
        engine = AttackedInferenceEngine(trained.model, config=accelerator)
        assert grid["baseline"] == engine.clean_accuracy(split.test)
        assert list(grid["accuracies"]) == [scenario.label() for scenario in scenarios]
        outcomes = [
            sample_outcome(scenario, accelerator, HotspotAttackConfig())
            for scenario in scenarios
        ]
        for scenario, outcome in zip(scenarios, outcomes):
            assert grid["accuracies"][scenario.label()] == engine.accuracy_under_attack(
                split.test, outcome
            )
        corrupted = engine.weight_corruption_fractions(outcomes)
        for fraction, outcome in zip(corrupted, outcomes):
            assert fraction == pytest.approx(engine.weight_corruption_fraction(outcome))
