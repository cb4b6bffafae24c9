"""Ablation E-A2: photonic primitive costs (EO vs TO tuning, VDP fidelity, power).

Covers the device-level numbers quoted in the paper's §II.B (EO tuning is
faster and cheaper but short-range; TO tuning covers a full FSR at much higher
power) and the accelerator-level power budget of the CrossLight-style
configuration, plus the computational fidelity of the signal-level dot product
(`SignalLevelSimulator` on one 16-carrier bank pair).
"""

from __future__ import annotations

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.power import PowerModel
from repro.accelerator.signal_sim import SignalLevelSimulator


def test_tuning_circuit_cost_comparison(benchmark):
    """EO vs TO power/energy for representative resonance shifts."""
    model = PowerModel(AcceleratorConfig.paper_config())

    def run():
        return {
            "small_shift": model.tuning_energy_comparison(0.2),
            "large_shift": model.tuning_energy_comparison(3.0),
            "power_report": model.report().as_dict(),
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    small = result["small_shift"]
    print()
    print(f"EO  0.2 nm: {small['eo_power_w'] * 1e6:.2f} uW, {small['eo_energy_j']:.3e} J")
    print(f"TO  0.2 nm: {small['to_power_w'] * 1e3:.3f} mW, {small['to_energy_j']:.3e} J")
    print(f"Total accelerator power: {result['power_report']['total_w']:.1f} W")

    benchmark.extra_info["eo_power_uw_per_0.2nm"] = small["eo_power_w"] * 1e6
    benchmark.extra_info["to_power_mw_per_0.2nm"] = small["to_power_w"] * 1e3
    benchmark.extra_info["total_power_w"] = result["power_report"]["total_w"]

    # §II.B shape: EO tuning is orders of magnitude cheaper and faster for the
    # small shifts used during signal actuation.
    assert small["eo_power_w"] < small["to_power_w"] / 100
    assert small["eo_energy_j"] < small["to_energy_j"]


def test_signal_level_vdp_fidelity(benchmark):
    """Relative error of the optical dot product vs the exact result."""
    sim = SignalLevelSimulator(16)
    rng = np.random.default_rng(0)
    operands = [(rng.random(16), rng.random(16)) for _ in range(20)]

    def run():
        errors = []
        for a, w in operands:
            exact = float(a @ w)
            optical = sim.dot(a, w)
            errors.append(abs(optical - exact) / max(exact, 1e-9))
        return float(np.mean(errors)), float(np.max(errors))

    mean_error, max_error = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"VDP fidelity over 20 random products: mean {mean_error:.3%}, max {max_error:.3%}")
    benchmark.extra_info["mean_relative_error"] = mean_error
    benchmark.extra_info["max_relative_error"] = max_error
    assert mean_error < 0.05
