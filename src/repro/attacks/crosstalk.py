"""Thermal crosstalk attacks: neighbour-bank leakage without heater control.

A variant of the hotspot attack (paper §III.B.2) built for attribution
stealth: the trojan has no access to any MR bank's thermo-optic tuning
circuit.  Instead it sits in an adjacent peripheral structure (laser/driver
logic, a dummy heater on the shared substrate) and dissipates parasitic
power next to randomly chosen *leakage-source* banks.  The heat diffuses
through the same substrate model as the hotspot attack, but because no
tuning loop is hijacked, *every* affected bank — the sources included —
keeps its thermo-optic compensation, and the attacker gets no minimum-rise
guarantee.  What reaches the rings is sub-channel detuning spread over wide
neighbourhoods rather than the hotspot's catastrophic local re-pairing — a
diffuse corruption profile that no per-heater integrity check can attribute
to a compromised tuning circuit, yet (as the susceptibility grid shows) can
rival direct heater overdrive in accuracy damage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.attacks.base import AttackOutcome, BlockEffect
from repro.attacks.hotspot import solve_bank_heat
from repro.attacks.registry import AttackKind, register_attack
from repro.utils.rng import default_rng, seed_int
from repro.utils.validation import check_positive

__all__ = ["CrosstalkAttackConfig", "CrosstalkAttack"]


@dataclass(frozen=True)
class CrosstalkAttackConfig:
    """Physical parameters of the thermal crosstalk attack.

    Attributes
    ----------
    leakage_power_mw:
        Raw parasitic power dissipated next to each leakage-source bank.
        The trojan can burn an entire neighbouring circuit's power budget —
        more raw watts than a single heater overdrive — but the heat couples
        only diffusively into the rings and still faces their intact tuning
        loops, so far less of it reaches the resonances.
    baseline_power_mw:
        Nominal per-bank tuning power (background heat).
    min_rise_k:
        Banks whose temperature rise stays below this threshold are dropped
        from the outcome.
    grid_rows, grid_cols:
        Thermal solver grid resolution.
    """

    leakage_power_mw: float = field(
        default=400.0, metadata={"bounds": (1.0, 5000.0), "log": True}
    )
    baseline_power_mw: float = field(
        default=1.0, metadata={"bounds": (0.0, 100.0), "search": False}
    )
    min_rise_k: float = field(
        default=1.0, metadata={"bounds": (0.01, 100.0), "search": False}
    )
    grid_rows: int = field(
        default=48, metadata={"bounds": (4, 512), "search": False}
    )
    grid_cols: int = field(
        default=48, metadata={"bounds": (4, 512), "search": False}
    )

    def __post_init__(self) -> None:
        check_positive(self.leakage_power_mw, "leakage_power_mw")
        check_positive(self.min_rise_k, "min_rise_k")


@register_attack("crosstalk")
class CrosstalkAttack(AttackKind):
    """Randomly placed parasitic heat sources next to MR banks.

    Unlike :class:`~repro.attacks.hotspot.HotspotAttack`, the sampled outcome
    leaves ``attacked_banks`` empty: no bank's heater is under trojan
    control, so the injection model's tuning-loop compensation applies to the
    leakage sources as well, and no minimum-rise clamp is available to the
    attacker.
    """

    params_class = CrosstalkAttackConfig
    summary = (
        "parasitic heat leaks into banks without heater control; diffuse detuning"
    )

    def sample(
        self,
        config: AcceleratorConfig,
        seed: int | np.random.Generator | None = 0,
    ) -> AttackOutcome:
        """Draw one random placement of the leakage sources.

        For each targeted block, ``round(fraction * num_banks)`` banks are
        chosen uniformly at random as leakage sites; the thermal solver then
        yields the per-bank rise across the block.  The recorded MR
        footprint is ``leakage-source banks x cols`` (the rings whose
        thermal environment the trojan directly perturbs).
        """
        rng = default_rng(seed)
        outcome = AttackOutcome(spec=self.spec, seed=seed_int(seed))
        for block in self.spec.blocks:
            geometry = config.block(block)
            num_sources = max(1, int(round(self.spec.fraction * geometry.num_banks)))
            num_sources = min(num_sources, geometry.num_banks)
            sources = np.sort(
                rng.choice(geometry.num_banks, size=num_sources, replace=False)
            )
            heat = solve_bank_heat(
                geometry.num_banks,
                sources,
                self.params.leakage_power_mw,
                self.params.baseline_power_mw,
                self.params.grid_rows,
                self.params.grid_cols,
            )
            affected = np.flatnonzero(heat >= self.params.min_rise_k)
            outcome.add_effect(
                block,
                BlockEffect(
                    bank_delta_t=dict(zip(affected.tolist(), heat[affected].tolist())),
                    attacked_banks=(),
                ),
                attacked_mrs=num_sources * geometry.cols,
            )
        return outcome
