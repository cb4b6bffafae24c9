"""Tests for the accelerator configuration, mapping, inference engine and power model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorConfig,
    AttackedInferenceEngine,
    BlockGeometry,
    MRCoordinate,
    ONNAccelerator,
    PowerModel,
    SignalLevelSimulator,
    WeightMapping,
    coordinate_to_slot,
    slot_to_coordinate,
)
from repro.accelerator.blocks import bank_of_slot, slots_of_bank
from repro.attacks import ActuationAttack, AttackSpec
from repro.nn.models import build_model
from repro.photonics.legacy import ObjectMRBankPair
from repro.utils.validation import ValidationError


class TestConfig:
    def test_paper_config_matches_section_iv(self):
        config = AcceleratorConfig.paper_config()
        assert config.conv_block.num_units == 100
        assert config.conv_block.rows == config.conv_block.cols == 20
        assert config.fc_block.num_units == 60
        assert config.fc_block.rows == config.fc_block.cols == 150
        assert config.conv_block.capacity == 40_000
        assert config.fc_block.capacity == 1_350_000

    def test_scaled_config_preserves_conv_fc_ratio_order(self):
        config = AcceleratorConfig.scaled_config()
        assert config.fc_block.capacity > config.conv_block.capacity

    def test_block_lookup_and_describe(self):
        config = AcceleratorConfig.paper_config()
        assert config.block("conv") is config.conv_block
        assert config.block("fc") is config.fc_block
        with pytest.raises(ValidationError):
            config.block("dsp")
        described = config.describe()
        assert described["total_mrs"] == config.total_mrs

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValidationError):
            BlockGeometry(0, 2, 2)


class TestCoordinates:
    def test_slot_coordinate_roundtrip(self):
        geometry = BlockGeometry(3, 4, 5)
        for slot in (0, 7, 33, geometry.capacity - 1):
            coord = slot_to_coordinate(slot, geometry)
            assert coordinate_to_slot(coord, geometry) == slot

    def test_out_of_range_rejected(self):
        geometry = BlockGeometry(2, 2, 2)
        with pytest.raises(ValidationError):
            slot_to_coordinate(geometry.capacity, geometry)
        with pytest.raises(ValidationError):
            coordinate_to_slot(MRCoordinate(5, 0, 0), geometry)

    def test_bank_slot_helpers(self):
        geometry = BlockGeometry(2, 3, 4)
        slots = slots_of_bank(4, geometry)
        assert list(slots) == [16, 17, 18, 19]
        assert bank_of_slot(17, geometry) == 4
        with pytest.raises(ValidationError):
            slots_of_bank(geometry.num_banks, geometry)


class TestMapping:
    def test_every_conv_and_fc_weight_is_mapped(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        conv_total = sum(p.size for p in model.parameters() if p.kind == "conv")
        fc_total = sum(p.size for p in model.parameters() if p.kind == "fc")
        assert mapping.total_weights("conv") == conv_total
        assert mapping.total_weights("fc") == fc_total

    def test_offsets_are_contiguous_per_block(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        for block in ("conv", "fc"):
            offset = 0
            for mapped in mapping.parameters_in_block(block):
                assert mapped.offset == offset
                offset += mapped.size

    def test_mapping_rounds_reflect_capacity(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        geometry = tiny_accelerator_config.fc_block
        expected_rounds = int(np.ceil(mapping.total_weights("fc") / geometry.capacity))
        assert mapping.mapping_rounds("fc") == expected_rounds
        assert 0 < mapping.utilization("fc") <= 1.0

    def test_slots_stay_within_capacity(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        for mapped in mapping.parameters:
            slots = mapping.slots_for(mapped)
            capacity = mapping.block_geometry(mapped.kind).capacity
            assert slots.min() >= 0 and slots.max() < capacity
            banks = mapping.banks_for(mapped)
            assert banks.max() < mapping.block_geometry(mapped.kind).num_banks

    def test_weights_on_slot_inverse_of_slots_for(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        slot = 3
        hosted = mapping.weights_on_slot("conv", slot)
        assert hosted, "slot 3 of the conv block should host at least one weight"
        for name, index in hosted:
            mapped = next(m for m in mapping.parameters if m.name == name)
            assert mapping.slots_for(mapped)[index] == slot

    def test_normalize_denormalize_roundtrip(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        mapped = mapping.parameters[0]
        values = mapping.parameter_array(mapped.name).data.reshape(-1)
        magnitudes = mapping.normalize(mapped, values)
        signs = np.sign(values)
        signs[signs == 0] = 1
        restored = mapping.denormalize(mapped, magnitudes, signs)
        np.testing.assert_allclose(restored, values, atol=1e-6)

    def test_describe_contains_inventory(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        description = WeightMapping(model, tiny_accelerator_config).describe()
        assert description["conv_weights"] > 0
        assert description["fc_rounds"] >= 1


class TestInferenceEngine:
    def test_clean_accuracy_close_to_software_baseline(
        self, trained_mnist_model, mnist_split, scaled_accelerator_config
    ):
        from repro.nn import evaluate_accuracy

        software = evaluate_accuracy(trained_mnist_model, mnist_split.test)
        engine = AttackedInferenceEngine(trained_mnist_model, scaled_accelerator_config)
        accelerator = engine.clean_accuracy(mnist_split.test)
        assert abs(software - accelerator) < 0.05

    def test_construction_leaves_caller_model_untouched(
        self, mnist_split, scaled_accelerator_config
    ):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        before = model.full_state_dict()
        engine = AttackedInferenceEngine(model, scaled_accelerator_config)
        engine.clean_accuracy(mnist_split.test)
        after = model.full_state_dict()
        assert sorted(after) == sorted(before)
        for key, value in before.items():
            assert after[key].dtype == value.dtype
            assert after[key].tobytes() == value.tobytes(), key
        # The engine evaluates quantized weights of its own.
        quantized = engine.model.full_state_dict()
        assert any(
            quantized[key].tobytes() != value.tobytes() for key, value in before.items()
        )

    def test_attack_restores_weights_after_evaluation(
        self, trained_mnist_model, mnist_split, scaled_accelerator_config
    ):
        engine = AttackedInferenceEngine(trained_mnist_model, scaled_accelerator_config)
        before = {k: v.copy() for k, v in trained_mnist_model.state_dict().items()}
        outcome = ActuationAttack(AttackSpec("actuation", "both", 0.1)).sample(
            scaled_accelerator_config, seed=0
        )
        engine.accuracy_under_attack(mnist_split.test, outcome)
        after = trained_mnist_model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_attack_degrades_accuracy(
        self, trained_mnist_model, mnist_split, scaled_accelerator_config
    ):
        engine = AttackedInferenceEngine(trained_mnist_model, scaled_accelerator_config)
        clean = engine.clean_accuracy(mnist_split.test)
        outcome = ActuationAttack(AttackSpec("actuation", "both", 0.1)).sample(
            scaled_accelerator_config, seed=1
        )
        attacked = engine.accuracy_under_attack(mnist_split.test, outcome)
        assert attacked <= clean
        assert engine.weight_corruption_fraction(outcome) == pytest.approx(0.1, abs=0.02)

    def test_facade_deployment_report(self, trained_mnist_model, scaled_accelerator_config):
        accelerator = ONNAccelerator(scaled_accelerator_config)
        report = accelerator.deployment_report(trained_mnist_model)
        assert report.conv_weights > 0
        assert report.fc_rounds >= 1
        assert "conv_weights" in report.as_dict()


class TestPowerModel:
    def test_report_is_positive_and_fc_dominates(self):
        model = PowerModel(AcceleratorConfig.paper_config())
        report = model.report()
        assert report.total_w > 0
        # The FC block has far more MRs, DACs and banks than the CONV block.
        assert report.fc.total_w > report.conv.total_w
        assert report.vdp_latency_s > 0

    def test_tuning_energy_comparison_prefers_eo_for_small_shifts(self):
        model = PowerModel(AcceleratorConfig.paper_config())
        comparison = model.tuning_energy_comparison(0.2)
        assert comparison["eo_energy_j"] < comparison["to_energy_j"]
        large = model.tuning_energy_comparison(5.0)
        assert "eo_energy_j" not in large

    def test_block_breakdown_fields(self):
        breakdown = PowerModel(AcceleratorConfig.scaled_config()).block_breakdown("conv")
        data = breakdown.as_dict()
        assert data["total_w"] == pytest.approx(
            sum(value for key, value in data.items() if key.endswith("_w") and key != "total_w")
        )


class TestSignalLevelSimulator:
    def test_matches_reference_dot_product(self, rng):
        sim = SignalLevelSimulator(6)
        a = rng.random(6)
        w = rng.random(6)
        assert sim.dot(a, w) == pytest.approx(float(a @ w), abs=0.1)

    def test_functional_model_agrees_with_optical_model_under_attack(self, rng):
        sim = SignalLevelSimulator(8)
        a = rng.random(8)
        w = rng.random(8)
        optical = sim.dot(a, w, attacked_weight_mrs=[1, 4])
        functional = sim.functional_equivalent_dot(a, w, attacked_weight_mrs=[1, 4])
        assert optical == pytest.approx(functional, abs=0.15)

    def test_functional_model_agrees_under_hotspot(self, rng):
        sim = SignalLevelSimulator(8)
        a = rng.random(8)
        w = rng.random(8)
        optical = sim.dot(a, w, bank_delta_t_k=15.0)
        functional = sim.functional_equivalent_dot(a, w, bank_delta_t_k=15.0)
        assert optical == pytest.approx(functional, abs=0.3)

    def test_matvec_shape_and_reference(self, rng):
        sim = SignalLevelSimulator(5)
        matrix = rng.random((3, 5))
        vector = rng.random(5)
        out = sim.matvec(matrix, vector)
        np.testing.assert_allclose(out, matrix @ vector, atol=0.15)

    def test_matches_seed_object_path(self, rng):
        """matvec and a thermal Monte-Carlo sweep equal a per-row loop over the
        seed object path to 1e-9."""
        size = 8
        sim = SignalLevelSimulator(size)

        def seed_dot(inputs, weights, attacked=None, delta_t_k=0.0):
            pair = ObjectMRBankPair(size, grid=sim.grid, q_factor=sim.q_factor)
            pair.program(inputs, weights)
            if attacked:
                pair.weight_bank.apply_actuation_attack(attacked)
            if delta_t_k > 0:
                pair.weight_bank.apply_thermal_attack(delta_t_k, sim.sensitivity)
            return pair.dot_product()

        matrix, vector = rng.random((6, size)), rng.random(size)
        attacked_rows = {1: [0, 5], 4: [7]}
        row_delta_t_k = {2: 18.0, 4: 9.0}
        outputs = sim.matvec(
            matrix, vector, attacked_rows=attacked_rows, row_delta_t_k=row_delta_t_k
        )
        expected = [
            seed_dot(vector, matrix[row], attacked_rows.get(row),
                     row_delta_t_k.get(row, 0.0))
            for row in range(matrix.shape[0])
        ]
        np.testing.assert_allclose(outputs, expected, atol=1e-9, rtol=0)

        inputs, weights = rng.random(size), rng.random(size)
        deltas = rng.uniform(0.0, 30.0, 16)
        trials = sim.monte_carlo(inputs, weights, delta_t_k=deltas)
        expected = [seed_dot(inputs, weights, delta_t_k=delta) for delta in deltas]
        np.testing.assert_allclose(trials, expected, atol=1e-9, rtol=0)

    def test_operand_validation(self, rng):
        sim = SignalLevelSimulator(4)
        with pytest.raises(ValidationError):
            sim.dot(rng.random(3), rng.random(4))
        with pytest.raises(ValidationError):
            sim.matvec(rng.random((2, 3)), rng.random(3))
        with pytest.raises(ValidationError, match="finite"):
            sim.dot(np.array([0.1, np.nan, 0.3, 0.4]), np.full(4, 0.5))

    def test_converters_quantize_without_breaking_accuracy(self, rng):
        sim = SignalLevelSimulator(4, use_converters=True)
        a = rng.random(4)
        w = rng.random(4)
        assert sim.dot(a, w) == pytest.approx(float(a @ w), abs=0.1)
