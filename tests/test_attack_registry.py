"""Tests for the pluggable attack-kind API.

Covers the registry itself (registration, lookup, a toy plugin kind run
end-to-end through the scenario grid and the batched inference engine), the
three non-paper built-in kinds (crosstalk, laser_power, triggered) including
their serial-vs-batch bit-identity, and a golden regression pinning the
built-in actuation/hotspot grid to its pre-registry numbers on both
evaluation paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.accelerator import AcceleratorConfig, AttackedInferenceEngine, WeightMapping
from repro.attacks import (
    AttackKind,
    AttackOutcome,
    AttackScenario,
    AttackSpec,
    BlockEffect,
    CrosstalkAttack,
    CrosstalkAttackConfig,
    HotspotAttack,
    HotspotAttackConfig,
    LaserPowerAttack,
    LaserPowerAttackConfig,
    TriggeredAttack,
    TriggeredAttackConfig,
    corrupted_state_batch,
    corrupted_state_dict,
    create_attack,
    generate_scenarios,
    get_attack_kind,
    is_registered,
    load_plugin_modules,
    register_attack,
    registered_kinds,
    sample_outcome,
    unregister_attack,
)
from repro.nn.models import build_model
from repro.utils.rng import default_rng
from repro.utils.validation import ValidationError

BUILTIN_KINDS = ("actuation", "hotspot", "crosstalk", "laser_power", "triggered")


def _assert_batch_matches_serial(model, mapping, outcomes):
    """Row-by-row bit-identity of the batched kernel vs the reference path."""
    stacked = corrupted_state_batch(model, mapping, outcomes)
    for index, outcome in enumerate(outcomes):
        serial = corrupted_state_dict(model, mapping, outcome)
        for mapped in mapping.parameters:
            np.testing.assert_array_equal(
                stacked[mapped.name][index], serial[mapped.name],
                err_msg=f"{outcome.spec.label()} / {mapped.name}",
            )


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert set(BUILTIN_KINDS).issubset(registered_kinds())
        for kind in BUILTIN_KINDS:
            assert is_registered(kind)
            assert issubclass(get_attack_kind(kind), AttackKind)

    def test_unknown_kind_lookup_and_spec(self):
        with pytest.raises(ValidationError, match="unknown attack kind"):
            get_attack_kind("melt")
        with pytest.raises(ValidationError, match="registered attack kind"):
            AttackSpec("melt", "conv", 0.1)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):

            @register_attack("actuation")
            class Impostor(AttackKind):
                def sample(self, config, seed=0):
                    raise NotImplementedError

    def test_params_coercion_and_validation(self):
        attack = create_attack(
            AttackSpec("laser_power", "fc", 0.1), {"residual_power": 0.5}
        )
        assert attack.params == LaserPowerAttackConfig(residual_power=0.5)
        with pytest.raises(ValidationError, match="unknown parameter"):
            create_attack(AttackSpec("laser_power", "fc", 0.1), {"wattage": 3})
        with pytest.raises(ValidationError, match="takes no parameters"):
            create_attack(AttackSpec("actuation", "fc", 0.1), {"anything": 1})
        with pytest.raises(ValidationError, match="requires kind"):
            HotspotAttack(AttackSpec("actuation", "conv", 0.1))

    def test_toy_kind_round_trip(self, trained_mnist_model, mnist_split,
                                 scaled_accelerator_config):
        """A kind registered in-test flows through grid, kernels and engine."""

        @register_attack("toy_floor")
        class ToyFloorAttack(AttackKind):
            """Floors a random contiguous run of slots in each block."""

            summary = "test-only contiguous slot floor"

            def sample(self, config, seed=0):
                rng = default_rng(seed)
                outcome = AttackOutcome(spec=self.spec, seed=0)
                for block in self.spec.blocks:
                    capacity = config.block(block).capacity
                    count = max(1, int(round(self.spec.fraction * capacity)))
                    start = int(rng.integers(0, capacity - count + 1))
                    outcome.add_effect(
                        block,
                        BlockEffect(
                            slots_off=np.arange(start, start + count, dtype=np.int64)
                        ),
                        attacked_mrs=count,
                    )
                return outcome

        try:
            scenarios = generate_scenarios(
                kinds=("toy_floor", "actuation"), blocks=("both",),
                fractions=(0.05,), num_placements=2, master_seed=3,
            )
            outcomes = [
                sample_outcome(s, scaled_accelerator_config) for s in scenarios
            ]
            assert any(o.spec.kind == "toy_floor" for o in outcomes)
            engine = AttackedInferenceEngine(
                trained_mnist_model, scaled_accelerator_config
            )
            batched = engine.accuracy_under_attacks(mnist_split.test, outcomes)
            serial = np.array([
                engine.accuracy_under_attack(mnist_split.test, o) for o in outcomes
            ])
            np.testing.assert_array_equal(batched, serial)
        finally:
            unregister_attack("toy_floor")
        assert not is_registered("toy_floor")


class TestNewKindOutcomes:
    @pytest.fixture
    def model_and_mapping(self, tiny_accelerator_config):
        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        return model, mapping

    def test_crosstalk_has_no_heater_control(self, tiny_accelerator_config):
        outcome = CrosstalkAttack(AttackSpec("crosstalk", "conv", 0.2)).sample(
            tiny_accelerator_config, seed=0
        )
        effect = outcome.effects["conv"]
        assert effect.attacked_banks == ()
        assert effect.bank_delta_t  # the leakage heat field is recorded
        cols = tiny_accelerator_config.conv_block.cols
        num_banks = tiny_accelerator_config.conv_block.num_banks
        assert outcome.num_attacked_mrs("conv") == round(0.2 * num_banks) * cols

    def test_crosstalk_weaker_than_hotspot_per_bank(self, scaled_accelerator_config):
        """No min-rise clamp: a crosstalk source bank can stay below the
        hotspot guarantee that directly attacked banks always re-pair."""
        hotspot = HotspotAttack(AttackSpec("hotspot", "conv", 0.05)).sample(
            scaled_accelerator_config, seed=0
        )
        floor = HotspotAttackConfig().attacked_bank_min_rise_k
        attacked = hotspot.effects["conv"].attacked_banks
        assert all(
            hotspot.effects["conv"].bank_delta_t[b] >= floor for b in attacked
        )
        crosstalk = CrosstalkAttack(
            AttackSpec("crosstalk", "conv", 0.05),
            CrosstalkAttackConfig(leakage_power_mw=100.0),
        ).sample(scaled_accelerator_config, seed=0)
        assert max(crosstalk.effects["conv"].bank_delta_t.values()) < floor

    def test_laser_power_stripes_columns(self, model_and_mapping,
                                         tiny_accelerator_config):
        model, mapping = model_and_mapping
        geometry = tiny_accelerator_config.conv_block
        params = LaserPowerAttackConfig(residual_power=0.25)
        outcome = LaserPowerAttack(
            AttackSpec("laser_power", "conv", 0.4), params
        ).sample(tiny_accelerator_config, seed=0)
        scale = outcome.effects["conv"].col_scale
        attacked_cols = np.flatnonzero(scale != 1.0)
        assert len(attacked_cols) == round(0.4 * geometry.cols)
        assert np.all(scale[attacked_cols] == params.residual_power)
        assert outcome.num_attacked_mrs("conv") == (
            len(attacked_cols) * geometry.num_banks
        )

        corrupted = corrupted_state_dict(model, mapping, outcome)
        for mapped in mapping.parameters_in_block("conv"):
            original = model.state_dict()[mapped.name].reshape(-1)
            changed = corrupted[mapped.name].reshape(-1)
            cols = mapping.slots_for(mapped) % geometry.cols
            hit = np.isin(cols, attacked_cols)
            # Attacked columns scale toward zero, spared columns round-trip.
            nonzero = hit & (np.abs(original) > 1e-4)
            np.testing.assert_allclose(
                np.abs(changed[nonzero]),
                np.abs(original[nonzero]) * params.residual_power,
                rtol=1e-5,
            )
            np.testing.assert_allclose(changed[~hit], original[~hit], atol=1e-6)

    def test_triggered_dormant_is_empty(self, tiny_accelerator_config):
        dormant = TriggeredAttack(
            AttackSpec("triggered", "both", 0.1),
            TriggeredAttackConfig(
                trigger="inference_count", trigger_count=100, observed_inferences=99
            ),
        ).sample(tiny_accelerator_config, seed=0)
        assert dormant.is_empty()
        assert dormant.num_attacked_mrs("conv") == 0
        assert dormant.touched_blocks() == ()

    def test_triggered_fires_base_kind_placement(self, tiny_accelerator_config):
        fired = TriggeredAttack(
            AttackSpec("triggered", "both", 0.1),
            TriggeredAttackConfig(base="actuation", trigger="always_on"),
        ).sample(tiny_accelerator_config, seed=7)
        base = create_attack(AttackSpec("actuation", "both", 0.1)).sample(
            tiny_accelerator_config, seed=7
        )
        for block in ("conv", "fc"):
            np.testing.assert_array_equal(
                fired.effects[block].slots_off, base.effects[block].slots_off
            )
            assert fired.num_attacked_mrs(block) == base.num_attacked_mrs(block)
        assert fired.spec.kind == "triggered"

    def test_triggered_inherits_grid_base_params(self, tiny_accelerator_config):
        """Without explicit base_params, a fired trigger adopts the grid's
        parameters for its base kind, so triggered and bare scenarios of the
        same base stay physically identical."""
        hotspot = HotspotAttackConfig(attacked_bank_min_rise_k=23.0)
        kind_params = {"triggered": {"base": "hotspot", "trigger": "always_on"}}
        scenario = AttackScenario(
            spec=AttackSpec("triggered", "fc", 0.1), placement=0, seed=11
        )
        fired = sample_outcome(
            scenario, tiny_accelerator_config,
            hotspot_config=hotspot, kind_params=kind_params,
        )
        bare = sample_outcome(
            AttackScenario(
                spec=AttackSpec("hotspot", "fc", 0.1), placement=0, seed=11
            ),
            tiny_accelerator_config, hotspot_config=hotspot,
        )
        assert fired.effects["fc"].bank_delta_t == bare.effects["fc"].bank_delta_t
        assert fired.effects["fc"].attacked_banks == bare.effects["fc"].attacked_banks
        # The grid's config (not the hotspot default of 16 K) reached the base.
        attacked = fired.effects["fc"].attacked_banks
        assert attacked and all(
            fired.effects["fc"].bank_delta_t[b] >= 23.0 for b in attacked
        )
        # Explicit base_params still win over the grid's entry.
        explicit = {
            "triggered": {**kind_params["triggered"],
                          "base_params": {"attacked_bank_min_rise_k": 31.0}},
        }
        other = sample_outcome(
            scenario, tiny_accelerator_config,
            hotspot_config=hotspot, kind_params=explicit,
        )
        assert other.effects["fc"].bank_delta_t != bare.effects["fc"].bank_delta_t

    def test_triggered_external_arming(self, tiny_accelerator_config):
        params = TriggeredAttackConfig(trigger="external", armed=False)
        attack = TriggeredAttack(AttackSpec("triggered", "conv", 0.1), params)
        assert attack.sample(tiny_accelerator_config, seed=0).is_empty()
        armed = TriggeredAttackConfig(trigger="external", armed=True)
        attack = TriggeredAttack(AttackSpec("triggered", "conv", 0.1), armed)
        assert not attack.sample(tiny_accelerator_config, seed=0).is_empty()

    def test_triggered_rejects_bad_base(self):
        with pytest.raises(ValidationError, match="cannot wrap themselves"):
            TriggeredAttackConfig(base="triggered")
        with pytest.raises(ValidationError, match="registered attack kind"):
            TriggeredAttackConfig(base="melt")
        with pytest.raises(ValidationError, match="trigger must be one of"):
            TriggeredAttackConfig(trigger="moon_phase")

    def test_all_kinds_batch_matches_serial(self, model_and_mapping,
                                            tiny_accelerator_config):
        """The acceptance bar: every registered kind rides the batched kernel
        bit-identically, including mixed batches across kinds."""
        model, mapping = model_and_mapping
        outcomes = []
        for kind in registered_kinds():
            for seed in (0, 1):
                outcomes.append(
                    create_attack(AttackSpec(kind, "both", 0.1)).sample(
                        tiny_accelerator_config, seed=seed
                    )
                )
        _assert_batch_matches_serial(model, mapping, outcomes)

    def test_effect_merging_composes(self):
        a = BlockEffect(slots_off=np.array([1, 2]), bank_delta_t={0: 5.0},
                        attacked_banks=(0,))
        b = BlockEffect(slots_off=np.array([2, 3]), bank_delta_t={0: 3.0, 1: 2.0},
                        col_scale=np.array([1.0, 0.5]))
        merged = a.merged_with(b)
        np.testing.assert_array_equal(merged.slots_off, [1, 2, 3])
        assert merged.bank_delta_t == {0: 8.0, 1: 2.0}
        assert merged.attacked_banks == (0,)
        np.testing.assert_array_equal(merged.col_scale, [1.0, 0.5])
        assert BlockEffect().is_empty()
        assert not merged.is_empty()
        assert BlockEffect(col_scale=np.array([1.0, 1.0])).is_empty()


class TestEngineEquivalenceNewKinds:
    @pytest.fixture(scope="class")
    def engine_and_data(self, trained_mnist_model, mnist_split,
                        scaled_accelerator_config):
        engine = AttackedInferenceEngine(trained_mnist_model, scaled_accelerator_config)
        return engine, mnist_split.test

    @pytest.mark.parametrize("kind,params", [
        ("crosstalk", None),
        ("laser_power", None),
        ("triggered", TriggeredAttackConfig(base="hotspot", trigger="always_on")),
    ])
    def test_batched_accuracies_match_reference(self, engine_and_data, kind, params,
                                                scaled_accelerator_config):
        engine, dataset = engine_and_data
        outcomes = [
            create_attack(AttackSpec(kind, block, 0.1), params).sample(
                scaled_accelerator_config, seed=seed
            )
            for block in ("conv", "fc", "both")
            for seed in (0, 1)
        ]
        serial = np.array(
            [engine.accuracy_under_attack(dataset, o) for o in outcomes]
        )
        batched = engine.accuracy_under_attacks(dataset, outcomes)
        np.testing.assert_array_equal(batched, serial)
        # The grid must not be a no-op: at 10% intensity some scenario of
        # every new kind has to move the needle.
        clean = engine.accuracy_under_attack(
            dataset, AttackOutcome(spec=AttackSpec(kind, "both", 0.1))
        )
        assert np.min(serial) < clean


class TestGoldenRegression:
    """Bit-identity of the built-in actuation/hotspot grids across refactors.

    The golden numbers were captured from the pre-registry implementation
    (PR 3) with exactly the conftest workload fixtures; both evaluation
    paths must keep reproducing them.
    """

    GOLDEN_BASELINE = 0.95
    GOLDEN_ACCURACIES = [
        0.96, 0.95, 0.96, 0.89, 0.96, 0.91, 0.69, 0.55,
        0.92, 0.95, 0.78, 0.59, 0.94, 0.95, 0.97, 0.90,
        0.97, 0.96, 0.81, 0.59, 0.96, 0.96, 0.88, 0.27,
    ]
    GOLDEN_CORRUPTED_FRACTIONS = [
        0.0002701906071919827, 0.00041756730202397325, 0.0028492827667518177,
        0.0030212222440558064, 0.009628610729023384, 0.009604047946551385,
        0.09699842798192179, 0.09704755354686578, 0.010119866378463353,
        0.010046178031047357, 0.10060915700530557, 0.10053546865788957,
        0.0002456278247199843, 0.0004912556494399686, 0.003930045195519749,
        0.005133621536647671, 0.015449990174887011, 0.01763607781489487,
        0.2917076046374533, 0.29932206720377286, 0.011298879937119278,
        0.015449990174887011, 0.3156317547651798, 0.30082039693456475,
    ]
    # sha256 over the corrupted state dicts of six mixed actuation/hotspot
    # outcomes on the tiny config (untrained cnn_mnist, rng=0) — the most
    # sensitive fingerprint of the injection kernels.
    GOLDEN_SERIAL_SHA = "9d1eb3ba167c2bc60df0c97176eab5b8444215a39c3fc7c74117cb009021f55c"
    GOLDEN_BATCH_SHA = "e4168306fce707fac17249867d5b442d0d516742c6858bca3f6237c3088ede97"

    def _golden_grid(self, config):
        scenarios = generate_scenarios(
            kinds=("actuation", "hotspot"), blocks=("conv", "fc", "both"),
            fractions=(0.01, 0.10), num_placements=2, master_seed=0,
        )
        return scenarios, [
            sample_outcome(s, config, HotspotAttackConfig()) for s in scenarios
        ]

    def test_fig7_grid_accuracies_unchanged(self, trained_mnist_model, mnist_split,
                                            scaled_accelerator_config):
        engine = AttackedInferenceEngine(trained_mnist_model, scaled_accelerator_config)
        _, outcomes = self._golden_grid(scaled_accelerator_config)
        assert engine.clean_accuracy(mnist_split.test) == self.GOLDEN_BASELINE
        serial = [
            float(engine.accuracy_under_attack(mnist_split.test, o)) for o in outcomes
        ]
        assert serial == self.GOLDEN_ACCURACIES
        batched = engine.accuracy_under_attacks(mnist_split.test, outcomes)
        assert list(batched) == self.GOLDEN_ACCURACIES
        fractions = engine.weight_corruption_fractions(outcomes)
        np.testing.assert_allclose(
            fractions, self.GOLDEN_CORRUPTED_FRACTIONS, rtol=0, atol=0
        )

    def test_corrupted_weights_checksum_unchanged(self, tiny_accelerator_config):
        from repro.attacks import ActuationAttack

        model = build_model("cnn_mnist", profile="scaled", rng=0)
        mapping = WeightMapping(model, tiny_accelerator_config)
        outcomes = []
        for seed in (0, 1, 2):
            outcomes.append(
                ActuationAttack(AttackSpec("actuation", "both", 0.1)).sample(
                    tiny_accelerator_config, seed=seed
                )
            )
            outcomes.append(
                HotspotAttack(AttackSpec("hotspot", "both", 0.1)).sample(
                    tiny_accelerator_config, seed=seed
                )
            )
        digest = hashlib.sha256()
        for outcome in outcomes:
            state = corrupted_state_dict(model, mapping, outcome)
            for name in sorted(state):
                digest.update(np.ascontiguousarray(state[name]).tobytes())
        assert digest.hexdigest() == self.GOLDEN_SERIAL_SHA
        stacked = corrupted_state_batch(model, mapping, outcomes)
        digest = hashlib.sha256()
        for name in sorted(stacked):
            digest.update(np.ascontiguousarray(stacked[name]).tobytes())
        assert digest.hexdigest() == self.GOLDEN_BATCH_SHA


PLUGIN_SOURCE = '''
import numpy as np
from repro.attacks import AttackKind, AttackOutcome, BlockEffect, register_attack


@register_attack("plugin_probe")
class PluginProbeAttack(AttackKind):
    summary = "test-only out-of-tree kind"

    def sample(self, config, seed=0):
        outcome = AttackOutcome(spec=self.spec, seed=0)
        for block in self.spec.blocks:
            outcome.add_effect(
                block, BlockEffect(slots_off=np.array([0])), attacked_mrs=1
            )
        return outcome
'''


class TestPluginLoading:
    """Out-of-tree kinds reach the registry via $REPRO_ATTACK_PLUGINS."""

    def test_env_plugin_modules_imported(self, tmp_path, monkeypatch):
        (tmp_path / "ht_plugin_kind.py").write_text(PLUGIN_SOURCE)
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_ATTACK_PLUGINS", "ht_plugin_kind")
        try:
            assert load_plugin_modules() == ("ht_plugin_kind",)
            assert is_registered("plugin_probe")
        finally:
            unregister_attack("plugin_probe")
            sys.modules.pop("ht_plugin_kind", None)

    def test_env_plugin_import_error_is_actionable(self, monkeypatch):
        monkeypatch.setenv("REPRO_ATTACK_PLUGINS", "definitely_missing_plugin")
        with pytest.raises(ImportError, match="REPRO_ATTACK_PLUGINS"):
            load_plugin_modules()

    def test_plugin_reaches_fresh_interpreter(self, tmp_path):
        """End-to-end: a fresh process (the CLI, or a spawned pool worker)
        imports the plugin from the inherited environment."""
        (tmp_path / "ht_plugin_kind.py").write_text(PLUGIN_SOURCE)
        env = dict(os.environ)
        env["REPRO_ATTACK_PLUGINS"] = "ht_plugin_kind"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tmp_path)] + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "attacks", "--json"],
            capture_output=True, text=True, env=env, check=True,
        )
        kinds = [row["kind"] for row in json.loads(result.stdout)["kinds"]]
        assert "plugin_probe" in kinds
