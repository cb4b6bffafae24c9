"""Benchmark E-F6: regenerate the Fig. 6 hotspot heatmap on the CONV block."""

from __future__ import annotations

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.thermal import Floorplan, simulate_hotspot_attack


def test_fig6_conv_block_hotspot_heatmap(benchmark):
    """Two attacked banks with overdriven heaters on the paper-scale CONV block."""
    config = AcceleratorConfig.paper_config()
    geometry = config.conv_block
    floorplan = Floorplan(num_banks=geometry.num_banks, banks_per_row=geometry.rows)
    attacked = [650, 1260]  # two banks in different regions of the block

    def run():
        return simulate_hotspot_attack(floorplan, attacked_banks=attacked)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"Fig. 6: peak temperature rise {result.peak_rise_k:.1f} K "
          f"(ambient {result.ambient_k:.0f} K)")
    print(result.ascii_heatmap(width=72))
    benchmark.extra_info["peak_rise_k"] = result.peak_rise_k
    benchmark.extra_info["banks_above_5k"] = len(result.affected_banks(5.0))

    # Qualitative shape: attacked banks are among the hottest banks (their
    # exact rise depends on floorplan position) and the hotspot is localized
    # (it does not cover the whole block).
    rises = result.bank_temperature_rise_k
    hottest = set(np.argsort(rises)[-5:].tolist())
    assert set(attacked).issubset(hottest)
    assert all(rises[b] > 10.0 for b in attacked)
    assert len(result.affected_banks(5.0)) < geometry.num_banks / 4


def test_fig6_repeated_power_maps_reuse_factorization(benchmark):
    """Repeated solves over different power maps (the sweep-common case).

    The first solve on a grid shape pays for the sparse LU factorization;
    every later power map on the same solver instance reuses it (the
    instance's ``_solver_cache``).  Attack sweeps share one instance per
    process through ``repro.attacks.hotspot.solve_bank_heat``, which is what
    makes large hotspot sweeps tractable.
    """
    import time

    from repro.thermal import GridThermalSolver, ThermalSolverConfig

    solver = GridThermalSolver(ThermalSolverConfig(grid_rows=96, grid_cols=96))
    rng = np.random.default_rng(0)
    power_maps = rng.uniform(0.0, 0.01, size=(16, 96, 96))

    start = time.perf_counter()
    solver.solve(power_maps[0])
    first_s = time.perf_counter() - start

    def run():
        for power in power_maps:
            solver.solve(power)

    benchmark.pedantic(run, rounds=1, iterations=1)
    repeat_s = (time.perf_counter() - start - first_s) / len(power_maps)
    benchmark.extra_info["first_solve_s"] = first_s
    benchmark.extra_info["repeat_solve_s"] = repeat_s
    benchmark.extra_info["factorization_speedup"] = first_s / max(repeat_s, 1e-12)
    print(f"\nfirst solve {first_s*1e3:.1f} ms, repeated {repeat_s*1e3:.2f} ms "
          f"(x{first_s / max(repeat_s, 1e-12):.1f} from reused factorization)")
    # The reused factorization must make repeated solves much cheaper than
    # the factorizing first solve (conservative 2x bound for noisy CI boxes).
    assert repeat_s < first_s / 2
