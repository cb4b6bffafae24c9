"""Tests for the thermal substrate (floorplan, grid solver, hotspot heatmap)."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.accelerator.config import AcceleratorConfig
from repro.attacks import AttackSpec, HotspotAttack
from repro.attacks.hotspot import (
    HotspotAttackConfig,
    _block_floorplan,
    _shared_solver,
    solve_bank_heat,
)
from repro.thermal import (
    Floorplan,
    GridThermalSolver,
    ThermalSolverConfig,
    floorplan,
    grid_solver,
    simulate_hotspot_attack,
)
from repro.utils.validation import ValidationError


def per_bank_loop(plan, attacked_banks, heater_power_mw, baseline_power_mw, solver):
    """The per-bank reference: ``(power_map_w, bank_temperature_rise_k)``.

    One slice per tile, power added tile by tile (every baseline in bank
    order, then each attacked bank in the order given) and one slice mean
    per bank, exactly as the heatmap was computed before its tiling.
    """
    grid_shape = (solver.config.grid_rows, solver.config.grid_cols)
    power_map = np.zeros(grid_shape)
    tiles = [plan.bank_cells(bank_id, grid_shape) for bank_id in range(plan.num_banks)]
    for cells in tiles:
        area = max(power_map[cells].size, 1)
        power_map[cells] += baseline_power_mw * 1e-3 / area
    for bank_id in attacked_banks:
        cells = tiles[bank_id]
        area = max(power_map[cells].size, 1)
        power_map[cells] += heater_power_mw * 1e-3 / area
    temperature = solver.solve(power_map)
    ambient = solver.config.ambient_temperature_k
    rises = np.zeros(plan.num_banks)
    for bank_id, cells in enumerate(tiles):
        rises[bank_id] = float(temperature[cells].mean() - ambient)
    return power_map, rises


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


class TestFloorplanTiling:
    """The cached tiling reproduces the per-bank loop byte for byte."""

    HEATER_BOUNDS = HotspotAttackConfig.__dataclass_fields__["heater_power_mw"].metadata["bounds"]
    BASELINE_BOUNDS = HotspotAttackConfig.__dataclass_fields__["baseline_power_mw"].metadata["bounds"]

    @staticmethod
    def _assert_matches_loop(plan, attacked, heater, baseline, solver):
        power, rises = per_bank_loop(plan, attacked, heater, baseline, solver)
        result = simulate_hotspot_attack(plan, attacked, heater, baseline, solver=solver)
        case = (plan, solver.config.grid_rows, solver.config.grid_cols, attacked)
        assert result.power_map_w.tobytes() == power.tobytes(), case
        assert result.bank_temperature_rise_k.tobytes() == rises.tobytes(), case

    def _cases(self):
        """Fixed edge geometries, then randomized ones (1 to 1,600 banks)."""
        paper = AcceleratorConfig.paper_config().conv_block
        scaled = AcceleratorConfig.scaled_config()
        yield Floorplan(paper.num_banks, banks_per_row=paper.rows), (64, 64)  # fig6
        yield Floorplan(scaled.conv_block.num_banks), (48, 48)
        yield Floorplan(scaled.fc_block.num_banks), (48, 48)
        yield Floorplan(1), (4, 4)
        yield Floorplan(1600), (4, 4)
        yield Floorplan(1600, banks_per_row=7), (96, 40)
        yield Floorplan(6, banks_per_row=3), (64, 64)  # tiles 16+ cells wide
        yield Floorplan(3, banks_per_row=3, margin_um=0.0, spacing_um=0.0), (40, 33)
        rng = np.random.default_rng(2024)
        for _ in range(24):
            num_banks = int(rng.integers(1, 1601))
            per_row = None if rng.random() < 0.5 else int(rng.integers(1, num_banks + 1))
            plan = Floorplan(
                num_banks,
                per_row,
                bank_width_um=float(rng.uniform(20.0, 300.0)),
                bank_height_um=float(rng.uniform(20.0, 300.0)),
                spacing_um=float(rng.uniform(0.0, 40.0)),
                margin_um=float(rng.uniform(0.0, 80.0)),
            )
            yield plan, (int(rng.integers(4, 65)), int(rng.integers(4, 65)))

    def test_matches_per_bank_loop(self):
        rng = np.random.default_rng(7)
        heater_lo, heater_hi = self.HEATER_BOUNDS
        baseline_lo, baseline_hi = self.BASELINE_BOUNDS
        solvers: dict = {}
        max_depth = max_width = 0
        for index, (plan, shape) in enumerate(self._cases()):
            solver = solvers.setdefault(shape, GridThermalSolver(ThermalSolverConfig(*shape)))
            tiling = plan.tiling(shape)
            max_depth = max(max_depth, int(np.bincount(tiling.cells).max()))
            max_width = max(max_width, max(group.width for group in tiling.groups))
            # Unsorted, with repeats; powers at and between the config bounds.
            attacked = rng.integers(0, plan.num_banks, size=int(rng.integers(0, 40))).tolist()
            attacked += attacked[:2]
            heater = [heater_lo, heater_hi][index % 2] if index < 4 else float(
                np.exp(rng.uniform(np.log(heater_lo), np.log(heater_hi)))
            )
            baseline = [baseline_lo, baseline_hi][index % 2] if index < 4 else float(
                rng.uniform(baseline_lo, baseline_hi)
            )
            self._assert_matches_loop(plan, attacked, heater, baseline, solver)
        assert max_depth >= 4 and max_width >= 8  # overlapping and wide tiles ran

    def test_matches_per_bank_loop_on_the_largest_grids(self):
        """512x512 and non-square large grids, tiles past one NumPy buffer included."""
        for plan, shape in ((Floorplan(4), (512, 512)), (Floorplan(1), (512, 37))):
            solver = GridThermalSolver(ThermalSolverConfig(*shape))
            self._assert_matches_loop(plan, [3, 0, 3] if plan.num_banks > 1 else [0],
                                      2000.0, 100.0, solver)

    def test_tile_means_match_slice_means(self):
        """Per-bank means on random fields, for grids up to 512x512."""
        rng = np.random.default_rng(11)
        for plan, shape in ((Floorplan(1), (512, 512)), (Floorplan(2), (300, 512)),
                            (Floorplan(9), (512, 200)), (Floorplan(100), (512, 512)),
                            (Floorplan(1600), (509, 511)), (Floorplan(5), (4, 4))):
            tiling = plan.tiling(shape)
            field = 318.0 + rng.random(shape) * 40.0
            expected = np.array([field[cells].mean() for cells in tiling.slices])
            assert tiling.tile_means(field).tobytes() == expected.tobytes(), (plan, shape)

    def test_distinct_floorplans_never_share_a_tiling(self):
        base = Floorplan(12, banks_per_row=4, bank_width_um=100.0, bank_height_um=50.0,
                         spacing_um=10.0, margin_um=20.0)
        shared = base.tiling((32, 24))
        assert Floorplan(12, 4, 100, 50, 10, 20).tiling((32, 24)) is shared
        variants = {
            "num_banks": 13, "banks_per_row": 3, "bank_width_um": 101.0,
            "bank_height_um": 51.0, "spacing_um": 11.0, "margin_um": 21.0,
        }
        for name, value in variants.items():
            other = dataclasses.replace(base, **{name: value})
            assert other != base
            assert other.tiling((32, 24)) is not shared, name
        assert base.tiling((24, 32)) is not shared
        assert base.tiling((32, 25)) is not shared

    def test_results_do_not_depend_on_geometry_order(self):
        def run(order):
            floorplan._tiling.cache_clear()
            _block_floorplan.cache_clear()
            _shared_solver.cache_clear()
            results = {}
            for num_banks, rows, cols in order:
                heated = np.arange(1, num_banks, 13)
                results[num_banks, rows, cols] = solve_bank_heat(
                    num_banks, heated, 300.0, 1.0, rows, cols
                ).tobytes()
            return results

        order = [(250, 48, 48), (450, 48, 48), (250, 32, 40), (450, 96, 40)]
        assert run(order) == run(order[::-1])

    def test_mutating_results_leaves_the_next_call_unchanged(self):
        plan = Floorplan(250)
        solver = GridThermalSolver(ThermalSolverConfig(48, 48))
        first = simulate_hotspot_attack(plan, [3, 40, 3], solver=solver)
        expected = (first.power_map_w.tobytes(), first.bank_temperature_rise_k.tobytes())
        first.power_map_w[:] = 1.0
        first.bank_temperature_rise_k[:] = -1.0
        first.temperature_k[:] = 0.0
        again = simulate_hotspot_attack(plan, [3, 40, 3], solver=solver)
        assert (again.power_map_w.tobytes(), again.bank_temperature_rise_k.tobytes()) == expected

    def test_tiling_arrays_are_read_only(self):
        tiling = Floorplan(250).tiling((48, 48))
        arrays = [tiling.areas, tiling.starts, tiling.cells]
        arrays += [array for group in tiling.groups for array in (group.bank_ids, group.cells)]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_rejects_non_integer_attacked_banks(self):
        with pytest.raises(ValidationError, match="must be integers"):
            simulate_hotspot_attack(Floorplan(4, banks_per_row=2), attacked_banks=[1.5])
