"""Hardware-trojan attack models for the ONN accelerator.

The attacks layer is a plugin system: every threat model is an
:class:`~repro.attacks.registry.AttackKind` registered by name
(:func:`~repro.attacks.registry.register_attack`), sampling random
placements into kind-agnostic :class:`~repro.attacks.base.BlockEffect`
primitives that one shared injection kernel merges
(:mod:`repro.attacks.injection`).  Built-in kinds:

* **actuation** (:mod:`repro.attacks.actuation`) — HTs in the EO
  signal-modulation circuits force individual, randomly distributed MRs into
  an off-resonance state (paper §III.B.1).
* **hotspot** (:mod:`repro.attacks.hotspot`) — HTs in the TO tuning circuits
  overdrive heaters of whole MR banks; the resulting hotspot shifts the
  resonance of the targeted bank and of its neighbours, corrupting clusters
  of parameters (paper §III.B.2).
* **crosstalk** (:mod:`repro.attacks.crosstalk`) — parasitic heat leaks into
  neighbouring banks without direct heater control; every affected bank
  keeps its tuning-loop compensation.
* **laser_power** (:mod:`repro.attacks.laser_power`) — HTs in the laser
  drivers deplete random WDM carriers, scaling the detected magnitudes of
  whole columns across every bank of a block.
* **triggered** (:mod:`repro.attacks.triggered`) — wraps any base kind in
  the :class:`~repro.attacks.trojan.HardwareTrojan` trigger model, so
  dormant and inference-count-activated trojans enter the scenario grid.

:mod:`repro.attacks.scenario` generates the paper's attack grid (1/5/10% of
MRs, CONV/FC/both blocks, 10 random placements each — over any registered
kinds) and :mod:`repro.attacks.injection` converts attack outcomes into
corrupted model weights through the accelerator mapping.

Beyond the paper's fixed grids, :mod:`repro.attacks.search` drives any
registered kind's bounded parameter space with deterministic black-box
optimizers, reducing evaluated candidates to Pareto fronts over stealth
(``num_attacked_mrs``) vs. accuracy drop (``python -m repro search``).
"""

import importlib
import os

from repro.attacks.registry import (
    AttackKind,
    attack_kind_info,
    create_attack,
    get_attack_kind,
    is_registered,
    register_attack,
    registered_kinds,
    unregister_attack,
)
from repro.attacks.base import (
    AttackOutcome,
    AttackSpec,
    BLOCKS,
    BlockEffect,
    KINDS,
    PAPER_KINDS,
)
from repro.attacks.trojan import HardwareTrojan, TriggerMode
from repro.attacks.actuation import ActuationAttack
from repro.attacks.hotspot import HotspotAttack, HotspotAttackConfig
from repro.attacks.crosstalk import CrosstalkAttack, CrosstalkAttackConfig
from repro.attacks.laser_power import LaserPowerAttack, LaserPowerAttackConfig
from repro.attacks.triggered import TriggeredAttack, TriggeredAttackConfig
from repro.attacks.scenario import AttackScenario, generate_scenarios, sample_outcome
from repro.attacks.injection import attack_context, corrupted_state_batch, corrupted_state_dict
from repro.attacks import search

def load_plugin_modules(env: str = "REPRO_ATTACK_PLUGINS") -> tuple[str, ...]:
    """Import the out-of-tree attack-plugin modules named in ``$env``.

    The variable holds a comma-separated list of importable module names
    whose import is expected to call :func:`register_attack`.  It is read
    once when :mod:`repro.attacks` is imported, so plugin kinds reach every
    surface that touches the registry — the ``repro`` CLI, ``AttackSpec``
    validation, and sweep pool workers, which inherit the environment
    (spawned ones re-import ``repro`` fresh).  Returns the imported names.
    """
    loaded = []
    for name in os.environ.get(env, "").split(","):
        name = name.strip()
        if not name:
            continue
        try:
            importlib.import_module(name)
        except ImportError as exc:
            raise ImportError(
                f"cannot import attack-plugin module {name!r} (from ${env}); "
                "is it on PYTHONPATH?"
            ) from exc
        loaded.append(name)
    return tuple(loaded)


load_plugin_modules()

__all__ = [
    "AttackKind",
    "load_plugin_modules",
    "AttackSpec",
    "AttackOutcome",
    "BlockEffect",
    "BLOCKS",
    "KINDS",
    "PAPER_KINDS",
    "register_attack",
    "unregister_attack",
    "registered_kinds",
    "is_registered",
    "get_attack_kind",
    "create_attack",
    "attack_kind_info",
    "HardwareTrojan",
    "TriggerMode",
    "ActuationAttack",
    "HotspotAttack",
    "HotspotAttackConfig",
    "CrosstalkAttack",
    "CrosstalkAttackConfig",
    "LaserPowerAttack",
    "LaserPowerAttackConfig",
    "TriggeredAttack",
    "TriggeredAttackConfig",
    "AttackScenario",
    "generate_scenarios",
    "sample_outcome",
    "attack_context",
    "corrupted_state_dict",
    "corrupted_state_batch",
    "search",
]
