"""Tests for the thermal substrate (floorplan, grid solver, hotspot heatmap)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.attacks import AttackSpec, HotspotAttack
from repro.attacks.hotspot import HotspotAttackConfig, _shared_solver, solve_bank_heat
from repro.thermal import (
    Floorplan,
    GridThermalSolver,
    ThermalSolverConfig,
    grid_solver,
    simulate_hotspot_attack,
)
from repro.utils.validation import ValidationError


class TestFloorplan:
    def test_places_all_banks_without_overlap(self):
        plan = Floorplan(num_banks=12, banks_per_row=4)
        assert len(plan.placements) == 12
        centers = {p.center_um for p in plan.placements}
        assert len(centers) == 12
        assert plan.num_rows == 3

    def test_die_dimensions_cover_tiles(self):
        plan = Floorplan(num_banks=10, banks_per_row=5, bank_width_um=100, bank_height_um=50,
                         spacing_um=10, margin_um=20)
        last = plan.placements[-1]
        assert last.x_um + last.width_um <= plan.die_width_um
        assert last.y_um + last.height_um <= plan.die_height_um

    def test_neighbours_of_interior_bank(self):
        plan = Floorplan(num_banks=9, banks_per_row=3)
        neighbours = plan.neighbours_of(4, radius=1)
        assert sorted(neighbours) == [0, 1, 2, 3, 5, 6, 7, 8]
        corner = plan.neighbours_of(0, radius=1)
        assert sorted(corner) == [1, 3, 4]

    def test_bank_cells_within_grid(self):
        plan = Floorplan(num_banks=6, banks_per_row=3)
        rows, cols = plan.bank_cells(5, (32, 32))
        assert 0 <= rows.start < rows.stop <= 32
        assert 0 <= cols.start < cols.stop <= 32

    def test_bank_cells_rejects_out_of_range_ids(self):
        plan = Floorplan(num_banks=6, banks_per_row=3)
        for bank_id in (-1, 6, 100):
            with pytest.raises(ValidationError):
                plan.bank_cells(bank_id, (32, 32))


class TestGridSolver:
    def test_no_power_gives_ambient_everywhere(self):
        solver = GridThermalSolver(ThermalSolverConfig(grid_rows=8, grid_cols=8))
        field = solver.solve(np.zeros((8, 8)))
        np.testing.assert_allclose(field, solver.config.ambient_temperature_k, rtol=1e-9)

    def test_point_source_peaks_at_source_and_decays(self):
        solver = GridThermalSolver(ThermalSolverConfig(grid_rows=16, grid_cols=16))
        power = np.zeros((16, 16))
        power[8, 8] = 0.05
        rise = solver.temperature_rise(power)
        assert rise[8, 8] == rise.max()
        assert rise[8, 8] > 2 * rise[0, 0]
        assert np.all(rise >= -1e-9)

    def test_superposition_of_linear_system(self):
        solver = GridThermalSolver(ThermalSolverConfig(grid_rows=10, grid_cols=10))
        p1 = np.zeros((10, 10)); p1[2, 2] = 0.01
        p2 = np.zeros((10, 10)); p2[7, 7] = 0.02
        combined = solver.temperature_rise(p1 + p2)
        separate = solver.temperature_rise(p1) + solver.temperature_rise(p2)
        np.testing.assert_allclose(combined, separate, atol=1e-9)

    def test_energy_balance(self):
        """Total power injected equals total power sunk to ambient."""
        config = ThermalSolverConfig(grid_rows=12, grid_cols=12)
        solver = GridThermalSolver(config)
        power = np.zeros((12, 12))
        power[3, 4] = 0.03
        rise = solver.temperature_rise(power)
        sunk = config.cell_sink_conductance_w_per_k * rise.sum()
        assert sunk == pytest.approx(power.sum(), rel=1e-6)

    def test_rejects_invalid_power_maps(self):
        solver = GridThermalSolver()
        with pytest.raises(ValueError):
            solver.solve(np.zeros(5))
        with pytest.raises(ValueError):
            solver.solve(-np.ones((4, 4)))

    def test_factorization_reused_across_power_maps(self):
        """Repeated solves on one grid shape reuse a single factorization."""
        solver = GridThermalSolver(ThermalSolverConfig(grid_rows=12, grid_cols=12))
        p1 = np.zeros((12, 12)); p1[3, 3] = 0.02
        p2 = np.zeros((12, 12)); p2[8, 8] = 0.05
        first = solver.solve(p1)
        assert list(solver._solver_cache) == [(12, 12)]
        factorization = solver._solver_cache[(12, 12)]
        solver.solve(p2)
        solver.solve(np.zeros((6, 6)))  # second shape gets its own entry
        assert solver._solver_cache[(12, 12)] is factorization
        assert set(solver._solver_cache) == {(12, 12), (6, 6)}
        np.testing.assert_allclose(solver.solve(p1), first, rtol=0, atol=0)

    def test_matches_dense_reference_solution(self):
        """The vectorized assembly solves the same balance as a dense reference."""
        config = ThermalSolverConfig(grid_rows=5, grid_cols=4)
        solver = GridThermalSolver(config)
        rows, cols = 5, 4
        k_lat = config.lateral_conductance_w_per_k
        g_sink = config.die_sink_conductance_w_per_k / (rows * cols)
        dense = np.zeros((rows * cols, rows * cols))
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                dense[i, i] = g_sink
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        dense[i, rr * cols + cc] = -k_lat
                        dense[i, i] += k_lat
        power = np.linspace(0, 0.01, rows * cols).reshape(rows, cols)
        rhs = power.ravel() + g_sink * config.ambient_temperature_k
        expected = np.linalg.solve(dense, rhs).reshape(rows, cols)
        np.testing.assert_allclose(solver.solve(power), expected, rtol=1e-9)


class TestHotspotHeatmap:
    def test_attacked_banks_are_hottest(self):
        plan = Floorplan(num_banks=100, banks_per_row=10)
        result = simulate_hotspot_attack(plan, attacked_banks=[44, 77])
        rises = result.bank_temperature_rise_k
        hottest = set(np.argsort(rises)[-2:])
        assert hottest == {44, 77}
        assert result.peak_rise_k > 10.0

    def test_neighbours_heated_less_than_target_more_than_far(self):
        plan = Floorplan(num_banks=100, banks_per_row=10)
        result = simulate_hotspot_attack(plan, attacked_banks=[55])
        rises = result.bank_temperature_rise_k
        assert rises[55] > rises[56] > rises[0]

    def test_affected_banks_threshold(self):
        plan = Floorplan(num_banks=64, banks_per_row=8)
        result = simulate_hotspot_attack(plan, attacked_banks=[27])
        affected = result.affected_banks(5.0)
        assert 27 in affected
        assert len(affected) < 64

    def test_ascii_heatmap_renders(self):
        plan = Floorplan(num_banks=16, banks_per_row=4)
        result = simulate_hotspot_attack(plan, attacked_banks=[5])
        art = result.ascii_heatmap(width=32)
        assert "@" in art
        assert len(art.splitlines()) > 2

    def test_rejects_out_of_range_banks(self):
        plan = Floorplan(num_banks=4, banks_per_row=2)
        with pytest.raises(ValidationError):
            simulate_hotspot_attack(plan, attacked_banks=[10])

    def test_more_heater_power_more_heat(self):
        plan = Floorplan(num_banks=25, banks_per_row=5)
        low = simulate_hotspot_attack(plan, attacked_banks=[12], heater_power_mw=100)
        high = simulate_hotspot_attack(plan, attacked_banks=[12], heater_power_mw=300)
        assert high.peak_rise_k > low.peak_rise_k


class TestSharedBankHeatSolver:
    """``solve_bank_heat`` reuses one factorization per process and grid."""

    HEATER = HotspotAttackConfig()
    # sha256 of the float64 rise bytes for the scaled config's CONV (250
    # banks) and FC (450 banks) blocks, heated banks ``arange(3, n, 17)``.
    GOLDEN_RISE_SHA = {
        250: "6706fe2e693652cceebf10525f271a978d38c6cb468ba4b43420f15bf5e4f301",
        450: "f3a1f1623f28068df95e6fe88d0e2e710678d04af3417882c5074e524e5c9d06",
    }

    @pytest.fixture(autouse=True)
    def _cold_cache(self):
        _shared_solver.cache_clear()

    def _solve(self, num_banks, heated, rows=48, cols=48):
        return solve_bank_heat(num_banks, heated, self.HEATER.heater_power_mw,
                               self.HEATER.baseline_power_mw, rows, cols)

    def test_one_factorization_for_both_blocks(self, monkeypatch):
        calls = []
        factorized = grid_solver.factorized

        def counting(matrix):
            calls.append(matrix.shape)
            return factorized(matrix)

        monkeypatch.setattr(grid_solver, "factorized", counting)
        for _ in range(3):
            self._solve(250, np.array([3, 40]))
            self._solve(450, np.array([7, 200, 449]))
        assert calls == [(48 * 48, 48 * 48)]

    def test_matches_fresh_solver_bit_for_bit(self):
        for num_banks, heated, rows, cols in ((250, [3, 40], 48, 48),
                                              (450, [7, 200, 449], 48, 48),
                                              (250, [0, 249], 32, 40)):
            shared = self._solve(num_banks, np.array(heated), rows, cols)
            fresh = simulate_hotspot_attack(
                Floorplan(num_banks), attacked_banks=heated,
                heater_power_mw=self.HEATER.heater_power_mw,
                baseline_power_mw=self.HEATER.baseline_power_mw,
                solver=GridThermalSolver(ThermalSolverConfig(rows, cols)),
            ).bank_temperature_rise_k
            assert shared.tobytes() == fresh.tobytes()

    def test_returns_fresh_arrays(self):
        first = self._solve(250, np.array([3, 40]))
        expected = first.copy()
        first[:] = 1e6  # HotspotAttack.sample clamps its result in place
        assert self._solve(250, np.array([3, 40])).tobytes() == expected.tobytes()

    def test_golden_rise_bytes(self):
        config = AcceleratorConfig.scaled_config()
        for block in ("conv", "fc"):
            num_banks = config.block(block).num_banks
            rise = self._solve(num_banks, np.arange(3, num_banks, 17))
            digest = hashlib.sha256(rise.tobytes()).hexdigest()
            assert digest == self.GOLDEN_RISE_SHA[num_banks], block

    def test_invalid_grid_rejected_whatever_ran_before(self):
        """A float grid size fails even after an equal int one is cached."""
        config = AcceleratorConfig.scaled_config()
        spec = AttackSpec("hotspot", "fc", 0.1)
        floaty = HotspotAttack(spec, {"grid_rows": 48.0})
        with pytest.raises(ValidationError, match="grid_rows must be an integer"):
            floaty.sample(config, seed=0)
        HotspotAttack(spec, {"grid_rows": 48}).sample(config, seed=0)
        with pytest.raises(ValidationError, match="grid_rows must be an integer"):
            floaty.sample(config, seed=0)
