"""Array-core equivalence and batched-API tests.

The vectorized struct-of-arrays core (:mod:`repro.photonics.bank_array`) must
reproduce the seed per-ring-object path (:mod:`repro.photonics.legacy`, built
on the scalar :class:`MicroringResonator` model) to 1e-9 on randomized
programs, actuation attacks and thermal shifts, for both encodings and a
range of bank sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.photonics import BankArray, BankArrayPair, WDMGrid
from repro.photonics.legacy import ObjectMRBank, ObjectMRBankPair
from repro.photonics.thermal_sensitivity import ThermalSensitivity
from repro.utils.validation import ValidationError

TOL = 1e-9

_settings = settings(max_examples=40, deadline=None)


def _random_values(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random normalized values including the encoding edge cases 0 and 1."""
    values = rng.random(size)
    values[rng.random(size) < 0.1] = 0.0
    values[rng.random(size) < 0.1] = 1.0
    return values


class TestBankEquivalence:
    """BankArray vs the seed object path, to 1e-9."""

    @pytest.mark.parametrize("encoding", ["through", "drop"])
    @pytest.mark.parametrize("size", [1, 3, 8, 17, 32])
    def test_randomized_programs(self, encoding, size):
        rng = np.random.default_rng(size * 1000 + (encoding == "drop"))
        grid = WDMGrid(num_channels=size)
        for _ in range(5):
            values = _random_values(rng, size)
            obj = ObjectMRBank(grid, encoding=encoding)
            arr = BankArray(grid, banks=1, encoding=encoding)
            obj.imprint(values)
            arr.imprint(values)
            np.testing.assert_allclose(
                arr.transmission_cube()[0], obj.transmission_matrix(), atol=TOL, rtol=0
            )
            np.testing.assert_allclose(
                arr.effective_values()[0], obj.effective_values(), atol=TOL, rtol=0
            )

    @pytest.mark.parametrize("encoding", ["through", "drop"])
    @pytest.mark.parametrize("size", [4, 8, 19])
    def test_actuation_attacks(self, encoding, size):
        rng = np.random.default_rng(size)
        grid = WDMGrid(num_channels=size)
        values = _random_values(rng, size)
        attacked = rng.choice(size, size=max(1, size // 3), replace=False)
        obj = ObjectMRBank(grid, encoding=encoding)
        arr = BankArray(grid, banks=1, encoding=encoding)
        obj.imprint(values)
        arr.imprint(values)
        obj.apply_actuation_attack(attacked)
        arr.apply_actuation_attack(attacked)
        np.testing.assert_allclose(
            arr.effective_values()[0], obj.effective_values(), atol=TOL, rtol=0
        )
        obj.clear_attacks()
        arr.clear_attacks()
        np.testing.assert_allclose(
            arr.effective_values()[0], obj.effective_values(), atol=TOL, rtol=0
        )

    @pytest.mark.parametrize("encoding", ["through", "drop"])
    @pytest.mark.parametrize("delta_t", [0.5, 7.0, 26.0, 80.0])
    def test_thermal_shifts(self, encoding, delta_t):
        size = 9
        rng = np.random.default_rng(int(delta_t * 10))
        grid = WDMGrid(num_channels=size)
        values = _random_values(rng, size)
        obj = ObjectMRBank(grid, encoding=encoding)
        arr = BankArray(grid, banks=1, encoding=encoding)
        obj.imprint(values)
        arr.imprint(values)
        obj.apply_thermal_attack(delta_t)
        arr.apply_thermal_attack(delta_t)
        np.testing.assert_allclose(
            arr.effective_values()[0], obj.effective_values(), atol=TOL, rtol=0
        )

    def test_per_ring_thermal_profile(self):
        size = 7
        rng = np.random.default_rng(7)
        grid = WDMGrid(num_channels=size)
        values = _random_values(rng, size)
        profile = rng.uniform(0.0, 30.0, size)
        obj = ObjectMRBank(grid, encoding="drop")
        arr = BankArray(grid, banks=1, encoding="drop")
        obj.imprint(values)
        arr.imprint(values)
        obj.apply_thermal_attack(profile)
        arr.apply_thermal_attack(profile)
        np.testing.assert_allclose(
            arr.effective_values()[0], obj.effective_values(), atol=TOL, rtol=0
        )

    @_settings
    @given(
        size=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31),
        delta_t=st.floats(min_value=0.0, max_value=60.0),
    )
    def test_pair_dot_products_property(self, size, seed, delta_t):
        """Randomized programs + attacks: pair dot products agree to 1e-9."""
        rng = np.random.default_rng(seed)
        grid = WDMGrid(num_channels=size)
        inputs = _random_values(rng, size)
        weights = _random_values(rng, size)
        attacked = rng.choice(size, size=rng.integers(0, size + 1), replace=False)
        obj = ObjectMRBankPair(size, grid=grid)
        arr = BankArrayPair(size, banks=1, grid=grid)
        obj.program(inputs, weights)
        arr.program(inputs, weights)
        if attacked.size:
            obj.weight_bank.apply_actuation_attack(attacked)
            arr.weight_bank.apply_actuation_attack(attacked)
        if delta_t > 0:
            obj.weight_bank.apply_thermal_attack(delta_t)
            arr.weight_bank.apply_thermal_attack(delta_t)
        assert arr.dot_products()[0] == pytest.approx(obj.dot_product(), abs=TOL)


class TestBatchedBanks:
    """The (banks, rings) and (trials, banks, rings) axes of the array-core."""

    def test_multi_bank_rows_are_independent(self):
        size, banks = 6, 4
        rng = np.random.default_rng(0)
        grid = WDMGrid(num_channels=size)
        weights = rng.random((banks, size))
        inputs = rng.random((banks, size))
        pair = BankArrayPair(size, banks=banks, grid=grid)
        pair.program(inputs, weights)
        outputs = pair.dot_products()
        for row in range(banks):
            single = ObjectMRBankPair(size, grid=grid)
            single.program(inputs[row], weights[row])
            assert outputs[row] == pytest.approx(single.dot_product(), abs=TOL)

    def test_matvec_matches_row_by_row_object_path(self):
        size = 10
        rng = np.random.default_rng(1)
        grid = WDMGrid(num_channels=size)
        matrix = rng.random((size, size))
        vector = rng.random(size)
        attacked_rows = {2: [0, 3], 7: [9]}
        row_delta_t = {4: 18.0, 7: 9.0}
        pair = BankArrayPair(size, banks=size, grid=grid)
        outputs = pair.matvec(
            matrix, vector, attacked_rows=attacked_rows, row_delta_t_k=row_delta_t
        )
        sensitivity = ThermalSensitivity()
        for row in range(size):
            single = ObjectMRBankPair(size, grid=grid)
            single.program(vector, matrix[row])
            if row in attacked_rows:
                single.weight_bank.apply_actuation_attack(attacked_rows[row])
            if row in row_delta_t:
                single.weight_bank.apply_thermal_attack(row_delta_t[row], sensitivity)
            assert outputs[row] == pytest.approx(single.dot_product(), abs=TOL)

    def test_monte_carlo_thermal_matches_serial_attacks(self):
        size, trials = 8, 32
        rng = np.random.default_rng(2)
        grid = WDMGrid(num_channels=size)
        inputs, weights = rng.random(size), rng.random(size)
        deltas = rng.uniform(0.0, 40.0, trials)
        pair = BankArrayPair(size, banks=1, grid=grid)
        pair.program(inputs, weights)
        batched = pair.monte_carlo(delta_t_k=deltas.reshape(-1, 1, 1))
        assert batched.shape == (trials, 1)
        reference = ObjectMRBankPair(size, grid=grid)
        reference.program(inputs, weights)
        for trial in range(trials):
            reference.clear_attacks()
            if deltas[trial] > 0:
                reference.weight_bank.apply_thermal_attack(deltas[trial])
            assert batched[trial, 0] == pytest.approx(reference.dot_product(), abs=TOL)

    def test_monte_carlo_actuation_masks(self):
        size, trials = 6, 12
        rng = np.random.default_rng(3)
        grid = WDMGrid(num_channels=size)
        inputs, weights = rng.random(size), rng.random(size)
        masks = rng.random((trials, 1, size)) < 0.3
        pair = BankArrayPair(size, banks=1, grid=grid)
        pair.program(inputs, weights)
        batched = pair.monte_carlo(actuation_masks=masks)
        reference = ObjectMRBankPair(size, grid=grid)
        reference.program(inputs, weights)
        for trial in range(trials):
            reference.clear_attacks()
            indices = np.flatnonzero(masks[trial, 0])
            if indices.size:
                reference.weight_bank.apply_actuation_attack(indices)
            assert batched[trial, 0] == pytest.approx(reference.dot_product(), abs=TOL)

    def test_monte_carlo_thermal_overrides_actuation(self):
        """Per-trial precedence matches sequential attack application."""
        size = 5
        rng = np.random.default_rng(4)
        grid = WDMGrid(num_channels=size)
        inputs, weights = rng.random(size), rng.random(size)
        pair = BankArrayPair(size, banks=1, grid=grid)
        pair.program(inputs, weights)
        masks = np.zeros((1, 1, size), dtype=bool)
        masks[0, 0, [1, 3]] = True
        batched = pair.monte_carlo(
            delta_t_k=np.array([22.0]), actuation_masks=masks
        )
        reference = ObjectMRBankPair(size, grid=grid)
        reference.program(inputs, weights)
        reference.weight_bank.apply_actuation_attack([1, 3])
        reference.weight_bank.apply_thermal_attack(22.0)
        assert batched[0, 0] == pytest.approx(reference.dot_product(), abs=TOL)

    def test_monte_carlo_chunking_is_transparent(self):
        size, trials = 4, 64
        rng = np.random.default_rng(5)
        pair = BankArrayPair(size)
        pair.program(rng.random(size), rng.random(size))
        deltas = rng.uniform(0.0, 30.0, trials)
        full = pair.monte_carlo(delta_t_k=deltas)
        chunked = pair.monte_carlo(delta_t_k=deltas, max_chunk_elements=size * size * 3)
        np.testing.assert_array_equal(full, chunked)

    def test_monte_carlo_requires_an_attack_axis(self):
        pair = BankArrayPair(4)
        pair.program(np.full(4, 0.5), np.full(4, 0.5))
        with pytest.raises(ValidationError):
            pair.monte_carlo()

    def test_monte_carlo_two_dim_deltas_are_per_bank(self):
        """(trials, banks) heats whole banks; per-ring profiles need 3 dims."""
        size, banks = 4, 3
        rng = np.random.default_rng(6)
        grid = WDMGrid(num_channels=size)
        pair = BankArrayPair(size, banks=banks, grid=grid)
        inputs, weights = rng.random((banks, size)), rng.random((banks, size))
        pair.program(inputs, weights)
        deltas = np.array([[0.0, 25.0, 0.0]])  # trial 0: only bank 1 heated
        batched = pair.monte_carlo(delta_t_k=deltas)
        for bank in range(banks):
            reference = ObjectMRBankPair(size, grid=grid)
            reference.program(inputs[bank], weights[bank])
            if deltas[0, bank] > 0:
                reference.weight_bank.apply_thermal_attack(deltas[0, bank])
            assert batched[0, bank] == pytest.approx(reference.dot_product(), abs=TOL)

    def test_monte_carlo_rejects_non_broadcastable_axes(self):
        pair = BankArrayPair(4, banks=3)
        pair.program(np.full((3, 4), 0.5), np.full((3, 4), 0.5))
        with pytest.raises(ValidationError, match="banks, rings"):
            pair.monte_carlo(delta_t_k=np.zeros((5, 4)))  # 4 != banks(3)
        with pytest.raises(ValidationError, match="at most 3 dims"):
            pair.monte_carlo(delta_t_k=np.zeros((5, 1, 3, 4)))


class TestImprintValidation:
    def test_nan_rejected_before_programming(self):
        """Regression: NaN slips through plain range checks (NaN < 0 is False)."""
        bank = BankArray(WDMGrid(num_channels=3), banks=1)
        values = np.array([0.2, np.nan, 0.4])
        with pytest.raises(ValidationError, match="finite"):
            bank.imprint(values)
        # Nothing was programmed: the bank state is untouched.
        np.testing.assert_array_equal(bank.imprinted_values()[0], np.zeros(3))

    def test_inf_rejected(self):
        bank = BankArray(WDMGrid(num_channels=2), banks=1, encoding="drop")
        with pytest.raises(ValidationError, match="finite"):
            bank.imprint(np.array([0.1, np.inf]))

    def test_bank_array_rejects_nan(self):
        array = BankArray(WDMGrid(num_channels=4), banks=2)
        values = np.full((2, 4), 0.5)
        values[1, 2] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            array.imprint(values)

    def test_legacy_bank_rejects_nan(self):
        bank = ObjectMRBank(WDMGrid(num_channels=3))
        with pytest.raises(ValidationError, match="finite"):
            bank.imprint(np.array([0.2, np.nan, 0.4]))

    def test_range_validation_preserved(self):
        array = BankArray(WDMGrid(num_channels=3))
        with pytest.raises(ValidationError):
            array.imprint(np.array([0.1, 0.2, 1.5]))
        with pytest.raises(ValidationError):
            array.imprint(np.array([-0.1, 0.2, 0.5]))
