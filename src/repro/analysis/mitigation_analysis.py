"""Mitigation analysis (paper §VI, Figs. 8 and 9).

:class:`MitigationStudy` trains (or loads from the checkpoint store) a
workload's variant grid — Original, L2_reg, l2+n1 .. l2+n9 — which is how
``repro train`` pre-warms the store and how every ``fig8_variant`` unit gets
its model.  Fig. 8 evaluates each variant across one attack grid
(:data:`FIG8_VARIANTS` on :data:`FIG8_ATTACK_GRID`) and selects the most
robust one (:func:`most_robust_variant`); Fig. 9 compares it against the
original model under CONV+FC attacks (:func:`robust_comparison`).  Both work
on ``fig8_variant`` payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from repro.analysis.susceptibility import _WORKLOAD_DEFAULTS, workload_split
from repro.attacks.scenario import generate_scenarios
from repro.datasets.base import DatasetSplit
from repro.mitigation.robust_training import (
    VariantResult,
    VariantSpec,
    default_variant_grid,
    load_cached_variant,
    store_variant_checkpoint,
    train_variant_grid_stacked,
    variant_checkpoint_key,
)
from repro.mitigation.selection import select_most_robust
from repro.nn.models.registry import MODEL_DATASETS
from repro.nn.training import TrainingConfig

__all__ = [
    "FIG8_ATTACK_GRID",
    "FIG8_VARIANTS",
    "MitigationAnalysisConfig",
    "MitigationStudy",
    "most_robust_variant",
    "robust_comparison",
]

#: The mitigation variants Figs. 8 and 9 compare.
FIG8_VARIANTS = ("Original", "L2_reg", "l2+n2", "l2+n5")

#: The attack grid every Fig. 8/9 variant faces: both paper kinds on the full
#: accelerator (CONV+FC) at 5% and 10%, two placements each.  The figures
#: pass it to their ``fig8_variant`` units explicitly, so a change to that
#: experiment's defaults cannot move them.
FIG8_ATTACK_GRID = MappingProxyType(
    {
        "kinds": ("actuation", "hotspot"),
        "blocks": ("both",),
        "fractions": (0.05, 0.10),
        "num_placements": 2,
    }
)


@dataclass
class MitigationAnalysisConfig:
    """Configuration of a workload's variant training.

    Attributes
    ----------
    variants:
        Variant grid (defaults to the paper's Original, L2_reg, l2+n1..n9).
    seed:
        Master seed of the dataset and the training.
    test_fraction:
        Fraction of each synthetic dataset held out for accuracy measurement.
    checkpoint_cache:
        Consult (and fill) the content-addressed trained-model store before
        training: variants whose checkpoint exists are loaded with **zero
        training steps**.  Pre-warm with ``python -m repro train``.
    checkpoint_dir:
        Checkpoint store location (``None``: ``REPRO_CHECKPOINT_DIR`` or
        ``.repro-cache/checkpoints``).
    """

    variants: Sequence[VariantSpec] | None = None
    seed: int = 0
    test_fraction: float = 0.25
    checkpoint_cache: bool = False
    checkpoint_dir: str | None = None

    def variant_grid(self) -> list[VariantSpec]:
        if self.variants is not None:
            return list(self.variants)
        return default_variant_grid()


def most_robust_variant(payloads: Sequence[Mapping]) -> str:
    """The variant :func:`select_most_robust` picks among one model's
    ``fig8_variant`` payloads (``Original`` is never picked)."""
    best, _ = select_most_robust(
        {unit["variant"]: np.asarray(unit["accuracies"]) for unit in payloads}
    )
    return best


def robust_comparison(
    payloads: Sequence[Mapping], grid: Mapping = FIG8_ATTACK_GRID
) -> list[dict]:
    """Fig. 9 rows: ``Original`` vs. the most robust variant of one model.

    ``payloads`` are the model's ``fig8_variant`` payloads over the attack
    ``grid``; their accuracies come in the order of
    :func:`~repro.attacks.scenario.generate_scenarios` on that grid, which is
    regenerated here to slice them.  One row per (kind, fraction) of the
    CONV+FC attacks, with both models' mean and minimum accuracy and the
    worst-case ``recovery`` (robust minus original minimum).
    """
    by_variant = {unit["variant"]: unit for unit in payloads}
    original = np.asarray(by_variant["Original"]["accuracies"])
    robust_name = most_robust_variant(payloads)
    robust = np.asarray(by_variant[robust_name]["accuracies"])
    # The master seed only moves each scenario's placement seed, never the
    # grid's order or a scenario's kind, block and fraction, so the default
    # seed slices the units' accuracies like the seed they ran under.
    scenarios = generate_scenarios(**grid)
    rows = []
    for kind in grid["kinds"]:
        for fraction in grid["fractions"]:
            selected = [
                index
                for index, scenario in enumerate(scenarios)
                if scenario.spec.kind == kind
                and scenario.spec.target_block == "both"
                and np.isclose(scenario.spec.fraction, fraction)
            ]
            if not selected:
                continue
            original_min = float(original[selected].min())
            robust_min = float(robust[selected].min())
            rows.append(
                {
                    "model": by_variant["Original"]["model"],
                    "kind": kind,
                    "fraction": fraction,
                    "robust_variant": robust_name,
                    "original_mean": float(original[selected].mean()),
                    "original_min": original_min,
                    "robust_mean": float(robust[selected].mean()),
                    "robust_min": robust_min,
                    "recovery": robust_min - original_min,
                }
            )
    return rows


class MitigationStudy:
    """Trains or loads the variant grid of a workload."""

    def __init__(self, config: MitigationAnalysisConfig | None = None):
        self.config = config or MitigationAnalysisConfig()
        #: Per-model accounting of the most recent ``train_variants`` calls.
        self.last_training_stats: dict[str, dict] = {}

    # ---------------------------------------------------------------- setup
    def prepare_split(self, model_name: str) -> DatasetSplit:
        """Synthesize and split the dataset for a workload."""
        return workload_split(model_name, self.config.seed, self.config.test_fraction)

    def checkpoint_cache(self):
        """The trained-model store, or ``None`` when caching is disabled."""
        if not self.config.checkpoint_cache:
            return None
        from repro.engine.checkpoints import CheckpointCache

        return CheckpointCache(self.config.checkpoint_dir)

    def checkpoint_key(self, model_name: str, spec: VariantSpec) -> dict:
        """Content-address payload for one trained variant of this study."""
        defaults = _WORKLOAD_DEFAULTS[model_name]
        base_config = TrainingConfig(seed=self.config.seed, **dict(defaults["training"]))
        return variant_checkpoint_key(
            model_name,
            spec,
            base_config,
            model_kwargs=dict(defaults["model_kwargs"]),
            dataset={
                "dataset": MODEL_DATASETS[model_name],
                "num_samples": int(defaults["num_samples"]),
                "dataset_kwargs": dict(defaults["dataset_kwargs"]),
                "seed": self.config.seed,
                "test_fraction": self.config.test_fraction,
            },
        )

    def train_variants(self, model_name: str, split: DatasetSplit) -> list[VariantResult]:
        """Train (or load from the checkpoint cache) the variant grid.

        Cached variants are restored with zero training steps; the remaining
        grid members train together in one variant-stacked pass and their
        fresh checkpoints are stored back.  Accounting lands in
        ``self.last_training_stats[model_name]``.
        """
        defaults = _WORKLOAD_DEFAULTS[model_name]
        base_config = TrainingConfig(seed=self.config.seed, **dict(defaults["training"]))
        model_kwargs = dict(defaults["model_kwargs"])
        grid = self.config.variant_grid()
        cache = self.checkpoint_cache()
        results: list[VariantResult | None] = [None] * len(grid)
        missing = list(range(len(grid)))
        if cache is not None:
            missing = []
            for index, spec in enumerate(grid):
                loaded = load_cached_variant(
                    cache,
                    self.checkpoint_key(model_name, spec),
                    model_name,
                    spec,
                    base_config,
                    model_kwargs=model_kwargs,
                )
                if loaded is None:
                    missing.append(index)
                else:
                    results[index] = loaded
        training_steps = 0
        if missing:
            subset = [grid[index] for index in missing]
            trained = train_variant_grid_stacked(
                model_name,
                split,
                base_config,
                variants=subset,
                model_kwargs=model_kwargs,
            )
            # The stacked pass advances the whole sub-grid per optimizer step,
            # so every result reports the same real step count.
            training_steps = max(
                (int(result.extras.get("training_steps", 0)) for result in trained),
                default=0,
            )
            for index, result in zip(missing, trained):
                results[index] = result
                store_variant_checkpoint(
                    cache, self.checkpoint_key(model_name, result.spec), result
                )
        self.last_training_stats[model_name] = {
            "variants": len(grid),
            "checkpoint_hits": len(grid) - len(missing),
            "trained": len(missing),
            "training_steps": training_steps,
        }
        return [result for result in results if result is not None]
