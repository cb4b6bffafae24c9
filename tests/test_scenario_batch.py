"""Tests for scenario-batched attacked inference.

The scenario-batch subsystem has three layers — the vectorized corruption
kernel (:func:`repro.attacks.injection.corrupted_state_batch`) with its
touched-parameter mask (:func:`repro.attacks.injection.touched_parameters`),
the ensemble-weight forward path (:mod:`repro.nn.ensemble` + the
stacked-aware layers) and the engine's chunked evaluation
(:meth:`AttackedInferenceEngine.accuracy_under_attacks`).  Each layer is
property-tested against the per-scenario reference path, which stays the
source of truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accelerator import AcceleratorConfig, AttackedInferenceEngine, WeightMapping
from repro.accelerator import inference
from repro.attacks import (
    ActuationAttack,
    AttackOutcome,
    AttackSpec,
    BlockEffect,
    HotspotAttack,
    corrupted_state_batch,
    corrupted_state_dict,
    create_attack,
)
from repro.attacks.injection import (
    DEFAULT_TUNING_COMPENSATION_K,
    OFF_RESONANCE_MAGNITUDE,
    _effective_bank_delta_t,
    touched_parameters,
)
from repro.datasets.base import DataLoader, Dataset
from repro.nn import stacked_state
from repro.nn.layers import BatchNorm2D, Conv2D, Linear, MaxPool2D
from repro.nn.models import MnistCNN, build_model
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


def _kind_grid(config, seeds=(0, 1)):
    """Every built-in kind (triggered armed and dormant) on every block target."""
    kinds = [
        ("actuation", None),
        ("hotspot", None),
        ("crosstalk", None),
        ("laser_power", None),
        ("triggered", {"base": "hotspot", "trigger": "always_on"}),
        ("triggered", {"trigger": "external", "armed": False}),
    ]
    return [
        create_attack(AttackSpec(kind, block, 0.05), params).sample(config, seed=seed)
        for kind, params in kinds
        for block in ("conv", "fc", "both")
        for seed in seeds
    ]


def _mask_edge_outcomes(config):
    """Effects at the mask's boundaries, each changing no weight at all."""
    conv, fc = config.conv_block, config.fc_block
    out_of_range = AttackOutcome(spec=AttackSpec("actuation", "both", 0.01))
    out_of_range.effects["conv"] = BlockEffect(
        slots_off=np.array([-1, conv.capacity, conv.capacity + 7]),
        bank_delta_t={conv.num_banks: 40.0},
        attacked_banks=(conv.num_banks,),
    )
    # Neighbour heat its tuning loop absorbs, and a listed bank left cold.
    compensated = _hotspot_outcome(
        "conv", {0: 0.0, 1: DEFAULT_TUNING_COMPENSATION_K,
                 2: DEFAULT_TUNING_COMPENSATION_K / 2}, attacked=()
    )
    compensated.effects["fc"] = BlockEffect(
        bank_delta_t={3: DEFAULT_TUNING_COMPENSATION_K}, attacked_banks=()
    )
    near_one = AttackOutcome(spec=AttackSpec("laser_power", "both", 0.01))
    for block, geometry in (("conv", conv), ("fc", fc)):
        scale = np.ones(geometry.cols)
        scale[::2] = 1.0 + 1e-9  # not 1 in float64, exactly 1 in float32
        near_one.effects[block] = BlockEffect(col_scale=scale)
    return [out_of_range, compensated, near_one]


class TestTouchedParameters:
    """The mask marks every parameter whose batch-kernel row can change."""

    @staticmethod
    def _changed(model, mapping, outcomes):
        """``(S, P)`` ground truth: rows that differ from an unattacked row."""
        empty = AttackOutcome(spec=AttackSpec("actuation", "both", 0.01))
        stacked = corrupted_state_batch(model, mapping, [*outcomes, empty])
        return np.stack(
            [
                np.any(
                    stacked[m.name][:-1].reshape(len(outcomes), -1)
                    != stacked[m.name][-1].reshape(1, -1),
                    axis=1,
                )
                for m in mapping.parameters
            ],
            axis=1,
        )

    @pytest.mark.parametrize("model_name", ["cnn_mnist", "resnet18", "vgg16_variant"])
    def test_every_changed_parameter_is_marked(self, model_name,
                                               scaled_accelerator_config):
        config = scaled_accelerator_config
        model = build_model(model_name, profile="scaled", rng=0)
        mapping = WeightMapping(model, config)
        outcomes = _kind_grid(config)
        edges = _mask_edge_outcomes(config)
        mask = touched_parameters(mapping, outcomes + edges)
        changed = self._changed(model, mapping, outcomes + edges)
        assert mask.shape == (len(outcomes) + len(edges), len(mapping.parameters))
        missed = np.argwhere(changed & ~mask)
        assert not missed.size, [
            ((outcomes + edges)[s].spec.label(), mapping.parameters[p].name)
            for s, p in missed
        ]
        # Dormant trojans and the boundary effects change nothing and are
        # marked nowhere; the sampled grid leaves some parameters unmarked.
        dormant = [i for i, o in enumerate(outcomes) if o.is_empty()]
        assert dormant and not mask[dormant].any()
        assert not changed[len(outcomes):].any() and not mask[len(outcomes):].any()
        assert mask[: len(outcomes)].any() and not mask[: len(outcomes)].all()

    def test_mask_is_exact_at_parameter_boundaries(self, tiny_accelerator_config):
        """Single-slot floors and single-bank heat at each parameter's first
        and last distinct slot, warm neighbours and one dimmed carrier mark
        exactly the parameters whose weights move."""
        config = tiny_accelerator_config
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, config)
        outcomes = []
        for mapped in mapping.parameters:
            geometry = config.block(mapped.kind)
            span = min(mapped.size, geometry.capacity)
            for slot in {mapped.offset, mapped.offset + span - 1}:
                slot %= geometry.capacity
                floor = AttackOutcome(spec=AttackSpec("actuation", mapped.kind, 0.01))
                floor.effects[mapped.kind] = BlockEffect(slots_off=np.array([slot]))
                heat = _hotspot_outcome(mapped.kind, {slot // geometry.cols: 40.0})
                outcomes += [floor, heat]
        outcomes.append(
            _hotspot_outcome("conv", {0: DEFAULT_TUNING_COMPENSATION_K + 0.5}, attacked=())
        )
        dimmed = AttackOutcome(spec=AttackSpec("laser_power", "fc", 0.01))
        scale = np.ones(config.fc_block.cols, dtype=np.float32)
        scale[1] = np.float32(0.5)
        dimmed.effects["fc"] = BlockEffect(col_scale=scale)
        outcomes.append(dimmed)
        mask = touched_parameters(mapping, outcomes)
        np.testing.assert_array_equal(mask, self._changed(model, mapping, outcomes))
        assert mask.any(axis=1).all() and not mask.all()
        assert touched_parameters(mapping, []).shape == (0, len(mapping.parameters))


def _effective_bank_delta_t_loop(bank_delta_t, directly_attacked, num_banks, k):
    """Per-entry reference for :func:`_effective_bank_delta_t`."""
    delta_t_per_bank = np.zeros(num_banks)
    for bank_index, delta_t in bank_delta_t.items():
        if not 0 <= bank_index < num_banks:
            continue
        effective = float(delta_t)
        if bank_index not in directly_attacked:
            effective = max(0.0, effective - k)
        delta_t_per_bank[bank_index] = effective
    return delta_t_per_bank


class TestEffectiveBankDeltaT:
    """The vectorized tuning compensation equals the per-entry loop by bytes."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_loop_on_random_dicts(self, seed):
        rng = np.random.default_rng(seed)
        num_banks = int(rng.integers(1, 40))
        banks = rng.choice(np.arange(-8, num_banks + 8), int(rng.integers(0, num_banks + 16)),
                           replace=False)
        rises = rng.normal(DEFAULT_TUNING_COMPENSATION_K, 12.0, banks.size)
        special = rng.integers(0, 6, banks.size)
        rises[special == 0] = np.nan
        rises[special == 1] = DEFAULT_TUNING_COMPENSATION_K  # compensates to exactly 0
        rises[special == 2] = -0.0
        keys = [int(b) if i % 2 else np.int64(b) for i, b in enumerate(banks)]
        values = [float(r) if i % 3 else np.float32(r) for i, r in enumerate(rises)]
        bank_delta_t = dict(zip(keys, values))
        attacked = set(rng.choice(np.arange(-4, num_banks + 4), int(rng.integers(0, 10))).tolist())
        for k in (DEFAULT_TUNING_COMPENSATION_K, 0.0, -2.5):
            expected = _effective_bank_delta_t_loop(bank_delta_t, attacked, num_banks, k)
            got = _effective_bank_delta_t(bank_delta_t, attacked, num_banks, k)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_edge_entries(self):
        nan = float("nan")
        bank_delta_t = {-1: 50.0, 0: nan, 1: nan, 2: -3.0, 3: -3.0, 4: 8.0, 5: 20.0, 9: 1.0}
        attacked = {0, 2, 5, 9}
        expected = _effective_bank_delta_t_loop(bank_delta_t, attacked, 6, 8.0)
        got = _effective_bank_delta_t(bank_delta_t, attacked, 6, 8.0)
        assert got.tobytes() == expected.tobytes()
        assert np.isnan(got[0]) and got[1] == 0.0 and got[2] == -3.0 and got[5] == 20.0
        assert not _effective_bank_delta_t({}, set(), 3, 8.0).any()


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

    @pytest.mark.parametrize("stacked_param", ["bias", "weight"])
    def test_conv_bias_broadcasts_against_one_weight_set(self, stacked_param):
        """Stacked biases over one kernel, or one bias over stacked kernels,
        give each set's ``out + bias`` from the single-weight forward."""
        rng = np.random.default_rng(7)
        conv = Conv2D(2, 3, kernel_size=3, padding=1, rng=0).eval()
        conv.bias.data = rng.standard_normal(3).astype(np.float32)
        param = getattr(conv, stacked_param)
        rows = param.data[None] + rng.standard_normal((4, *param.shape)).astype(np.float32)
        x = rng.random((2, 2, 6, 5)).astype(np.float32)
        conv.weight.stacked = conv.weight.data[None]  # one shared weight set
        param.stacked = rows
        out = conv(x)
        conv.clear_stacked_state()
        assert out.shape == (4, 2, 3, 6, 5)
        for index, row in enumerate(rows):
            param.data = row
            assert out[index].tobytes() == conv(x).tobytes(), f"set {index}"

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


class TestDeepEnsembleForward:
    """Scenario-stacked inference of the deeper workloads, byte for byte.

    resnet18 runs BatchNorm2D, GlobalAvgPool2D and residual shortcuts on
    5-D activations; vgg16_variant runs a deep conv/pool trunk and two
    hidden FC layers.  An FC-only group keeps every conv kernel collapsed
    to one shared row (the trunk runs as a stack of one), a CONV group
    diverges at its first attacked conv layer, and a group that skips the
    first conv kernel runs that layer as a stack of one before diverging.
    """

    @staticmethod
    def _past_first_kernel(mapping, config):
        """CONV outcomes that leave the first conv kernel's slots and banks clean."""
        geometry = config.conv_block
        first = mapping.parameters[0]
        assert first.kind == "conv" and first.size < geometry.capacity
        rng = np.random.default_rng(8)
        outcomes = []
        for _ in range(2):
            floor = AttackOutcome(spec=AttackSpec("actuation", "conv", 0.01))
            floor.effects["conv"] = BlockEffect(slots_off=rng.choice(
                np.arange(first.size, geometry.capacity), 25, replace=False
            ))
            outcomes.append(floor)
        first_clean_bank = -(-first.size // geometry.cols)
        banks = rng.choice(
            np.arange(first_clean_bank, geometry.num_banks - 1), 3, replace=False
        ).tolist()
        heat = {bank + 1: 12.0 for bank in banks}  # compensated neighbours
        heat.update({bank: 40.0 for bank in banks})
        outcomes.append(_hotspot_outcome("conv", heat, attacked=banks))
        return outcomes

    @pytest.mark.parametrize("block", ["fc", "conv", "conv_past_first_kernel"])
    @pytest.mark.parametrize("model_name", ["resnet18", "vgg16_variant"])
    def test_stacked_logits_bytes_match_serial_forwards(
        self, model_name, block, scaled_accelerator_config
    ):
        config = scaled_accelerator_config
        x = np.random.default_rng(6).random((4, 3, 32, 32)).astype(np.float32)
        model = build_model(model_name, profile="scaled", rng=0)
        model.train()(x)  # gives BatchNorm2D non-trivial running statistics
        model.eval()
        mapping = WeightMapping(model, config)
        if block == "conv_past_first_kernel":
            outcomes = self._past_first_kernel(mapping, config)
        else:
            outcomes = [
                ActuationAttack(AttackSpec("actuation", block, 0.1)).sample(config, seed=seed)
                for seed in (0, 1)
            ]
            outcomes.append(
                HotspotAttack(AttackSpec("hotspot", block, 0.1)).sample(config, seed=2)
            )
        clean = model.state_dict()
        stacked = corrupted_state_batch(model, mapping, outcomes, state=clean)
        for name, value in stacked.items():  # collapse shared rows, as the engine does
            if np.all(value == value[:1]):
                stacked[name] = value[:1]
        conv_rows = {stacked[m.name].shape[0] for m in mapping.parameters if m.kind == "conv"}
        if block == "fc":
            assert conv_rows == {1}
        else:
            assert len(outcomes) in conv_rows
        if block == "conv_past_first_kernel":
            assert stacked[mapping.parameters[0].name].shape[0] == 1
        with stacked_state(model, stacked):
            batched = model(x)
        assert batched.shape == (len(outcomes), 4, 10)
        for index, outcome in enumerate(outcomes):
            model.load_state_dict(corrupted_state_dict(model, mapping, outcome, state=clean))
            assert batched[index].tobytes() == model(x).tobytes(), f"scenario {index}"
        model.load_state_dict(clean)


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

    def test_chunks_share_the_clean_first_kernel(self, engine_and_data,
                                                 scaled_accelerator_config, monkeypatch):
        """Outcomes that leave ``net.layers.0.weight`` clean are chunked apart
        from those that corrupt it, and load it as one shared row; outcomes
        that touch nothing join no chunk."""
        engine, dataset = engine_and_data
        config = scaled_accelerator_config
        outcomes = [
            create_attack(AttackSpec(kind, block, fraction)).sample(config, seed=seed)
            for kind in ("actuation", "hotspot")
            for block, fraction in (("conv", 0.01), ("both", 0.05))
            for seed in range(4)
        ]
        name = "net.layers.0.weight"
        clean = engine.corrupted_weights(AttackOutcome(spec=AttackSpec("actuation", "conv", 0.01)))
        hits = [
            not np.array_equal(engine.corrupted_weights(o)[name], clean[name]) for o in outcomes
        ]
        conv_only_past = [
            i for i, o in enumerate(outcomes) if not hits[i] and "conv" in o.touched_blocks()
        ]
        assert any(hits) and len(conv_only_past) >= 2
        touching = touched_parameters(engine.mapping, outcomes).any(axis=1).tolist()
        engine.accuracy_under_attacks(dataset, outcomes[:1])  # builds the clean prefix

        chunks, rows = [], []
        positions = {id(o): i for i, o in enumerate(outcomes)}
        batch_kernel = inference.corrupted_state_batch
        load = engine.model.load_stacked_state

        def spy_batch(model, mapping, piece, **kwargs):
            chunks.append([positions[id(o)] for o in piece])
            return batch_kernel(model, mapping, piece, **kwargs)

        def spy_load(stacked, **kwargs):
            rows.append(stacked[name].shape[0])
            return load(stacked, **kwargs)

        monkeypatch.setattr(inference, "corrupted_state_batch", spy_batch)
        monkeypatch.setattr(engine.model, "load_stacked_state", spy_load)
        batched = engine.accuracy_under_attacks(dataset, outcomes)
        monkeypatch.undo()

        serial = [engine.accuracy_under_attack(dataset, o) for o in outcomes]
        np.testing.assert_array_equal(batched, serial)
        assert sorted(i for chunk in chunks for i in chunk) == [
            i for i, touches in enumerate(touching) if touches
        ]
        assert len(rows) == len(chunks)
        clean_chunks = [
            (chunk, row) for chunk, row in zip(chunks, rows) if not any(hits[i] for i in chunk)
        ]
        assert sum(len(chunk) for chunk, _ in clean_chunks) == (
            hits.count(False) - touching.count(False)
        )
        assert all(row == 1 for _, row in clean_chunks)
        assert any(len(chunk) > 1 and set(chunk) <= set(conv_only_past)
                   for chunk, _ in clean_chunks)

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


def _run_with_logits(engine, dataset, outcomes, monkeypatch):
    """``accuracy_under_attacks`` plus every outcome's logits, read off spies.

    The batch corruption names each chunk's outcomes; the last stage's
    outputs that follow it are that chunk's logits, one array per evaluation
    batch.  An outcome in no chunk gets the engine's kept clean logits.
    """
    events = []
    batch_kernel = inference.corrupted_state_batch
    last = engine._stages[-1]
    forward = last.forward

    def spy_batch(model, mapping, piece, **kwargs):
        events.append(list(piece))
        return batch_kernel(model, mapping, piece, **kwargs)

    def spy_forward(x):
        out = forward(x)
        events.append(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(inference, "corrupted_state_batch", spy_batch)
        patch.setattr(last, "forward", spy_forward)
        accuracies = engine.accuracy_under_attacks(dataset, outcomes)
    clean = np.concatenate([logits for _, _, logits in engine._prefix.batches], axis=1)
    logits = [clean[0]] * len(outcomes)
    position = {id(outcome): index for index, outcome in enumerate(outcomes)}
    chunks = []
    for event in events:
        if isinstance(event, list):
            chunks.append((event, []))
        else:
            chunks[-1][1].append(event)
    for piece, batches in chunks:
        stacked = np.concatenate(batches, axis=1)
        for row, outcome in enumerate(piece):
            if id(outcome) in position:
                logits[position[id(outcome)]] = stacked[row if len(stacked) > 1 else 0]
    return accuracies, logits


def _full_forward_logits(engine, dataset, outcome):
    """The outcome alone through the whole network, from its own corrupted rows."""
    loader = DataLoader(dataset, batch_size=engine.batch_size, shuffle=False)
    with stacked_state(engine.model, engine._stacked_state_for([outcome])):
        return np.concatenate([engine.model(images) for images, _ in loader], axis=1)[0]


class TestEngineCleanPrefix:
    """Chunks start at their group's first touched stage from the kept clean
    forward, and reproduce a full forward of each outcome byte for byte."""

    @staticmethod
    def _resnet_engine(config):
        rng = np.random.default_rng(5)
        images = rng.random((20, 3, 32, 32)).astype(np.float32)
        model = build_model("resnet18", profile="scaled", rng=0)
        model.train()(images[:8])  # gives BatchNorm2D non-trivial running statistics
        dataset = Dataset(images, rng.integers(0, 10, 20), num_classes=10)
        return AttackedInferenceEngine(model, config, batch_size=8), dataset

    @staticmethod
    def _grid(mapping, config):
        """conv1-first, later-conv-first, FC-first and no-touch outcomes."""
        dormant = create_attack(
            AttackSpec("triggered", "both", 0.05), {"trigger": "external", "armed": False}
        ).sample(config, seed=0)
        return [
            ActuationAttack(AttackSpec("actuation", "conv", 0.1)).sample(config, seed=0),
            HotspotAttack(AttackSpec("hotspot", "both", 0.1)).sample(config, seed=1),
            *TestDeepEnsembleForward._past_first_kernel(mapping, config),
            ActuationAttack(AttackSpec("actuation", "fc", 0.1)).sample(config, seed=2),
            HotspotAttack(AttackSpec("hotspot", "fc", 0.1)).sample(config, seed=3),
            *_mask_edge_outcomes(config),
            dormant,
        ]

    @pytest.mark.parametrize("model_name", ["cnn_mnist", "resnet18"])
    def test_every_scenario_matches_a_full_forward(
        self, model_name, trained_mnist_model, mnist_split, scaled_accelerator_config,
        monkeypatch,
    ):
        config = scaled_accelerator_config
        if model_name == "cnn_mnist":
            engine = AttackedInferenceEngine(trained_mnist_model, config)
            dataset = mnist_split.test
        else:
            engine, dataset = self._resnet_engine(config)
        outcomes = self._grid(engine.mapping, config)
        touched = touched_parameters(engine.mapping, outcomes)
        first = np.where(touched.any(axis=1), touched.argmax(axis=1), -1)
        kinds = {
            "conv1": [i for i, p in enumerate(first) if p == 0],
            "later conv": [
                i for i, p in enumerate(first)
                if p > 0 and engine.mapping.parameters[p].kind == "conv"
            ],
            "fc": [
                i for i, p in enumerate(first)
                if p >= 0 and engine.mapping.parameters[p].kind == "fc"
            ],
            "none": [i for i, p in enumerate(first) if p < 0],
        }
        assert all(kinds.values()), kinds
        assert min(engine._stage_of[first[i]] for i in kinds["later conv"]) > 0

        accuracies, logits = _run_with_logits(engine, dataset, outcomes, monkeypatch)
        for index, outcome in enumerate(outcomes):
            expected = _full_forward_logits(engine, dataset, outcome)
            assert logits[index].tobytes() == expected.tobytes(), f"scenario {index}"
            assert accuracies[index] == engine.accuracy_under_attack(dataset, outcome)
        for kind, indices in kinds.items():
            lone, lone_logits = _run_with_logits(
                engine, dataset, [outcomes[indices[0]]], monkeypatch
            )
            assert lone_logits[0].tobytes() == logits[indices[0]].tobytes(), kind
            assert lone[0] == accuracies[indices[0]], kind

    def test_stages_must_own_mapped_parameters_in_mapping_order(
        self, scaled_accelerator_config
    ):
        class Reversed(MnistCNN):
            def stages(self):
                return super().stages()[::-1]

        with pytest.raises(ValueError, match="stages"):
            AttackedInferenceEngine(Reversed.scaled_config(rng=0), scaled_accelerator_config)

    def test_no_touch_group_corrupts_and_forwards_nothing(
        self, trained_mnist_model, mnist_split, scaled_accelerator_config, monkeypatch
    ):
        config = scaled_accelerator_config
        engine = AttackedInferenceEngine(trained_mnist_model, config)
        dataset = mnist_split.test
        none = self._grid(engine.mapping, config)[-4:]
        assert not touched_parameters(engine.mapping, none).any()
        engine.accuracy_under_attacks(dataset, none[:1])  # builds the clean prefix
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(inference, "corrupted_state_batch",
                          lambda *args, **kwargs: calls.append("corruption"))
            for stage in engine._stages:
                patch.setattr(stage, "forward", lambda x, stage=stage: calls.append(stage))
            grouped = engine.accuracy_under_attacks(dataset, none)
            lone = engine.accuracy_under_attacks(dataset, none[1:2])
        assert calls == []
        reference = [engine.accuracy_under_attack(dataset, outcome) for outcome in none]
        assert grouped.tolist() == reference and lone.tolist() == reference[1:2]

    def test_prefix_carries_the_round_tripped_weights(
        self, scaled_accelerator_config, monkeypatch
    ):
        """The kept prefix runs the rows an untouched parameter carries inside
        a chunk, whose normalize/denormalize round trip moves some bits; the
        clean state dict would give an FC-first chunk different logits."""
        config = scaled_accelerator_config
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        engine = AttackedInferenceEngine(model, config, quantize_weights=False)
        outcome = ActuationAttack(AttackSpec("actuation", "fc", 0.1)).sample(config, seed=0)
        rows = engine._stacked_state_for([outcome])
        conv = [m.name for m in engine.mapping.parameters if m.kind == "conv"]
        assert touched_parameters(engine.mapping, [outcome]).argmax() == len(conv)
        assert any(
            rows[name][0].tobytes() != engine._clean_state[name].tobytes() for name in conv
        )
        images = np.zeros((4, 1, 28, 28), dtype=np.float32)
        for index, (row, col) in enumerate([(5, 5), (10, 13), (20, 8), (14, 14)]):
            images[index, 0, row, col] = 1.0  # one-hot images
        dataset = Dataset(images, np.arange(4), num_classes=10)
        expected = _full_forward_logits(engine, dataset, outcome)
        clean_prefix = dict(rows, **{name: engine._clean_state[name][None] for name in conv})
        with stacked_state(engine.model, clean_prefix):
            assert engine.model(images)[0].tobytes() != expected.tobytes()
        _, logits = _run_with_logits(engine, dataset, [outcome], monkeypatch)
        assert logits[0].tobytes() == expected.tobytes()

    def test_prefix_is_keyed_by_the_dataset_bits(
        self, trained_mnist_model, mnist_split, scaled_accelerator_config, monkeypatch
    ):
        """A flipped pixel bit, a changed label or an in-place edit after a
        call each give a fresh engine's results; the kept arrays are read-only."""
        config = scaled_accelerator_config
        engine = AttackedInferenceEngine(trained_mnist_model, config)
        base = mnist_split.test
        outcomes = self._grid(engine.mapping, config)

        def fresh(dataset):
            return _run_with_logits(
                AttackedInferenceEngine(trained_mnist_model, config), dataset, outcomes,
                monkeypatch,
            )

        def same(left, right):
            return left[0].tolist() == right[0].tolist() and all(
                a.tobytes() == b.tobytes() for a, b in zip(left[1], right[1])
            )

        images = base.images.copy()
        images.view(np.uint32)[0, 0, 14, 14] ^= 1 << 20  # one pixel bit
        flipped = Dataset(images, base.labels, base.num_classes)
        expected_base = fresh(base)
        labels = base.labels.copy()
        predicted = int(np.argmax(expected_base[1][-1][0]))  # a no-touch outcome's
        labels[0] = predicted if predicted != labels[0] else (labels[0] + 1) % 10
        relabelled = Dataset(base.images, labels, base.num_classes)
        edited = Dataset(base.images.copy(), base.labels, base.num_classes)

        first = _run_with_logits(engine, base, outcomes, monkeypatch)
        assert same(first, expected_base)
        for dataset in (flipped, relabelled):
            expected = fresh(dataset)
            assert not same(expected, first)
            assert same(_run_with_logits(engine, dataset, outcomes, monkeypatch), expected)
        assert same(_run_with_logits(engine, edited, outcomes, monkeypatch), first)
        edited.images[0, 0, 14, 14] = images[0, 0, 14, 14]  # in place, after a call
        assert same(_run_with_logits(engine, edited, outcomes, monkeypatch), fresh(flipped))
        kept = [engine._prefix.images, engine._prefix.labels]
        for labels, inputs, logits in engine._prefix.batches:
            kept += [labels, logits, *inputs.values()]
        assert not any(array.flags.writeable for array in kept)


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
