"""Thermal hotspot attacks (paper §III.B.2, Figs. 5 and 6).

HTs in the thermo-optic tuning circuits overdrive the heaters of the targeted
MR banks.  The resulting steady-state temperature field (computed with the
:mod:`repro.thermal` solver, the HotSpot substitute) raises the temperature of
the attacked banks strongly and of their floorplan neighbours more weakly.
Every affected bank's temperature rise is recorded in the attack outcome; the
injection model converts it into a resonance shift via Eq. 2 and into
corrupted parameter clusters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.attacks.base import AttackOutcome, BlockEffect
from repro.attacks.registry import AttackKind, register_attack
from repro.utils.rng import default_rng, seed_int
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["HotspotAttackConfig", "HotspotAttack", "solve_bank_heat"]


@dataclass(frozen=True)
class HotspotAttackConfig:
    """Physical parameters of the hotspot attack.

    Attributes
    ----------
    heater_power_mw:
        Extra heater power dissipated in each attacked bank.
    baseline_power_mw:
        Nominal per-bank tuning power (background heat).
    min_rise_k:
        Banks whose temperature rise stays below this threshold are
        considered unaffected and are dropped from the outcome.
    attacked_bank_min_rise_k:
        Minimum temperature rise of a *directly attacked* bank.  The attacker
        sizes the trojan's heater drive to guarantee at least a one-channel
        resonance shift regardless of die size or heat sinking, so the solved
        rise of attacked banks is clamped from below to this value (the
        thermal field still determines how strongly neighbours are heated).
    grid_rows, grid_cols:
        Thermal solver grid resolution.
    """

    heater_power_mw: float = field(
        default=300.0, metadata={"bounds": (1.0, 2000.0), "log": True}
    )
    baseline_power_mw: float = field(
        default=1.0, metadata={"bounds": (0.0, 100.0), "search": False}
    )
    min_rise_k: float = field(
        default=1.0, metadata={"bounds": (0.01, 100.0), "search": False}
    )
    attacked_bank_min_rise_k: float = field(
        default=16.0, metadata={"bounds": (0.1, 200.0), "search": False}
    )
    grid_rows: int = field(
        default=48, metadata={"bounds": (4, 512), "search": False}
    )
    grid_cols: int = field(
        default=48, metadata={"bounds": (4, 512), "search": False}
    )

    def __post_init__(self) -> None:
        check_positive(self.heater_power_mw, "heater_power_mw")
        check_positive(self.min_rise_k, "min_rise_k")
        check_positive(self.attacked_bank_min_rise_k, "attacked_bank_min_rise_k")


@functools.lru_cache(maxsize=1)
def _shared_solver(config):
    """The process-wide solver for ``config``, factorized on first use.

    Every sampled placement of a block solves the same conduction matrix, so
    one solver (and its sparse LU factorization) serves all of them, the
    CONV and FC blocks included: the factorization depends only on the grid
    shape, not on the block's floorplan.  The key is the validated, frozen
    :class:`~repro.thermal.grid_solver.ThermalSolverConfig`, never raw ints,
    so an invalid shape fails the same way whatever ran before it in the
    process.  ``maxsize=1``: a 256x256 factorization alone holds about
    226 MiB, and the attack params allow grids up to 512x512.
    """
    from repro.thermal.grid_solver import GridThermalSolver

    return GridThermalSolver(config)


def solve_bank_heat(
    num_banks: int,
    heated_banks: np.ndarray,
    heater_power_mw: float,
    baseline_power_mw: float,
    grid_rows: int,
    grid_cols: int,
) -> np.ndarray:
    """Per-bank steady-state temperature rise for one block.

    Shared by every thermal attack kind (hotspot heater overdrive, crosstalk
    leakage): the heat sources differ, the substrate physics does not.  Each
    call is one :func:`~repro.thermal.heatmap.simulate_hotspot_attack`, so
    one :meth:`~repro.thermal.grid_solver.GridThermalSolver.solve`, on the
    block's default floorplan; the floorplan, its tiling of the grid and the
    solver's factorization are all computed once per process.  Returns a
    fresh array on every call; callers may modify it in place.
    """
    from repro.thermal.grid_solver import ThermalSolverConfig
    from repro.thermal.heatmap import simulate_hotspot_attack

    solver = _shared_solver(ThermalSolverConfig(grid_rows=grid_rows, grid_cols=grid_cols))
    result = simulate_hotspot_attack(
        _block_floorplan(check_positive_int(num_banks, "num_banks")),
        attacked_banks=heated_banks,
        heater_power_mw=heater_power_mw,
        baseline_power_mw=baseline_power_mw,
        solver=solver,
    )
    return result.bank_temperature_rise_k


@functools.lru_cache(maxsize=8)
def _block_floorplan(num_banks: int):
    """The default floorplan of a ``num_banks`` block (keyed by a validated int)."""
    from repro.thermal.floorplan import Floorplan

    return Floorplan(num_banks=num_banks)


@register_attack("hotspot")
class HotspotAttack(AttackKind):
    """Randomly placed heater-overdrive attacks on whole MR banks.

    Parameters
    ----------
    spec:
        Attack specification; ``spec.kind`` must be ``"hotspot"``.
    params:
        Physical attack parameters (heater power, thermal grid).
    """

    params_class = HotspotAttackConfig
    summary = "TO-circuit HTs overdrive bank heaters; hotspots shift whole banks"

    def sample(
        self,
        config: AcceleratorConfig,
        seed: int | np.random.Generator | None = 0,
    ) -> AttackOutcome:
        """Draw one random bank placement and solve the thermal field.

        For each targeted block, ``round(fraction * num_banks)`` banks are
        chosen uniformly at random and their heaters overdriven; the solver
        then yields the per-bank temperature rise across the whole block.
        The recorded MR footprint is ``attacked banks x cols``.
        """
        rng = default_rng(seed)
        outcome = AttackOutcome(spec=self.spec, seed=seed_int(seed))
        for block in self.spec.blocks:
            geometry = config.block(block)
            num_banks = max(1, int(round(self.spec.fraction * geometry.num_banks)))
            num_banks = min(num_banks, geometry.num_banks)
            attacked = np.sort(rng.choice(geometry.num_banks, size=num_banks, replace=False))
            heat = solve_bank_heat(
                geometry.num_banks,
                attacked,
                self.params.heater_power_mw,
                self.params.baseline_power_mw,
                self.params.grid_rows,
                self.params.grid_cols,
            )
            heat[attacked] = np.maximum(
                heat[attacked], self.params.attacked_bank_min_rise_k
            )
            affected = np.flatnonzero(heat >= self.params.min_rise_k)
            outcome.add_effect(
                block,
                BlockEffect(
                    bank_delta_t=dict(zip(affected.tolist(), heat[affected].tolist())),
                    attacked_banks=tuple(attacked.tolist()),
                ),
                attacked_mrs=num_banks * geometry.cols,
            )
        return outcome
