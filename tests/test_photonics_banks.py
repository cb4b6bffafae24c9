"""Tests for MR banks, bank pairs and VDP units (signal-level computation).

One bank is ``BankArray(grid, banks=1)`` and one bank pair
``BankArrayPair(size, banks=1)``: row 0 of the array-core's ``(banks, ...)``
results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.photonics import BankArray, BankArrayPair, ThermalSensitivity, WDMGrid
from repro.utils.validation import ValidationError


class TestMRBank:
    def test_bank_has_one_ring_per_channel(self):
        grid = WDMGrid(num_channels=6)
        bank = BankArray(grid, banks=1)
        assert bank.shape == (1, 6)
        np.testing.assert_allclose(np.diff(bank.target_nm[0]), grid.spacing_nm)

    def test_imprint_validates_length_and_range(self):
        bank = BankArray(WDMGrid(num_channels=3), banks=1)
        with pytest.raises(ValidationError):
            bank.imprint(np.array([0.1, 0.2]))
        with pytest.raises(ValidationError):
            bank.imprint(np.array([0.1, 0.2, 1.5]))

    def test_through_bank_encodes_values(self):
        bank = BankArray(WDMGrid(num_channels=4), banks=1, encoding="through")
        values = np.array([0.2, 0.5, 0.8, 0.95])
        bank.imprint(values)
        np.testing.assert_allclose(bank.effective_values()[0], values, atol=0.05)

    def test_drop_bank_encodes_values(self):
        bank = BankArray(WDMGrid(num_channels=4), banks=1, encoding="drop")
        values = np.array([0.2, 0.5, 0.8, 0.1])
        bank.imprint(values)
        np.testing.assert_allclose(bank.effective_values()[0], values, atol=0.06)

    def test_invalid_encoding_rejected(self):
        with pytest.raises(ValidationError):
            BankArray(WDMGrid(num_channels=2), banks=1, encoding="phase")

    def test_actuation_attack_zeroes_drop_value(self):
        bank = BankArray(WDMGrid(num_channels=4), banks=1, encoding="drop")
        bank.imprint(np.array([0.9, 0.9, 0.9, 0.9]))
        bank.apply_actuation_attack([1])
        values = bank.effective_values()[0]
        assert values[1] < 0.1
        assert values[0] > 0.8
        bank.clear_attacks()
        assert bank.effective_values()[0, 1] > 0.8

    def test_thermal_attack_shifts_whole_bank(self):
        grid = WDMGrid(num_channels=5)
        bank = BankArray(grid, banks=1, encoding="drop")
        pattern = np.array([0.9, 0.1, 0.7, 0.3, 0.5])
        bank.imprint(pattern)
        # Temperature rise large enough to shift by one full channel.
        sens = ThermalSensitivity()
        delta_t = grid.spacing_nm / sens.shift_per_kelvin(grid.center_nm)
        bank.apply_thermal_attack(delta_t)
        shifted = bank.effective_values()[0]
        # Carrier j now gets (approximately) the value programmed at j-1.
        np.testing.assert_allclose(shifted[1:], pattern[:-1], atol=0.12)
        assert shifted[0] < 0.15  # first carrier lost its ring


class TestMRBankPair:
    def test_dot_product_matches_reference(self, rng):
        pair = BankArrayPair(6, banks=1)
        a = rng.random(6)
        w = rng.random(6)
        pair.program(a, w)
        assert pair.dot_products()[0] == pytest.approx(float(a @ w), abs=0.08)

    def test_grid_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            BankArrayPair(4, banks=1, grid=WDMGrid(num_channels=5))

    def test_actuation_attack_reduces_dot_product(self, rng):
        pair = BankArrayPair(5, banks=1)
        a = np.full(5, 0.8)
        w = np.full(5, 0.8)
        pair.program(a, w)
        clean = pair.dot_products()[0]
        pair.weight_bank.apply_actuation_attack([0, 1])
        attacked = pair.dot_products()[0]
        assert attacked < clean - 0.5 * (0.8 * 0.8)

    def test_clear_attacks_restores(self, rng):
        pair = BankArrayPair(4, banks=1)
        a = rng.random(4)
        w = rng.random(4)
        pair.program(a, w)
        clean = pair.dot_products()[0]
        pair.weight_bank.apply_actuation_attack([2])
        pair.clear_attacks()
        assert pair.dot_products()[0] == pytest.approx(clean, abs=1e-6)


class TestVDPUnit:
    """A vector-dot-product unit is one input bank and one weight bank summed
    on a photodetector: ``BankArrayPair(size, banks=1)``."""

    def test_rejects_mismatched_operands(self, rng):
        pair = BankArrayPair(4, banks=1)
        with pytest.raises(ValidationError):
            pair.program(rng.random(3), rng.random(4))

    def test_nan_operands_rejected(self):
        pair = BankArrayPair(4, banks=1)
        with pytest.raises(ValidationError, match="finite"):
            pair.program(np.array([0.1, np.nan, 0.3, 0.4]), np.full(4, 0.5))
