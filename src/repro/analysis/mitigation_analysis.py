"""Mitigation analysis (paper §VI, Figs. 8 and 9).

The study trains the variant grid (Original, L2_reg, l2+n1 .. l2+n9) for each
workload, evaluates every variant across the attack grid, selects the most
robust variant and compares it against the original model under attacks on
the full accelerator (CONV + FC) at 1%, 5% and 10% intensity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.inference import AttackedInferenceEngine
from repro.analysis.susceptibility import _WORKLOAD_DEFAULTS, workload_split
from repro.attacks.base import PAPER_KINDS
from repro.attacks.hotspot import HotspotAttackConfig
from repro.attacks.scenario import DEFAULT_FRACTIONS, generate_scenarios, sample_outcome
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
from repro.mitigation.selection import RobustnessScore, select_most_robust
from repro.nn.models.registry import MODEL_DATASETS
from repro.nn.training import TrainingConfig
from repro.utils.validation import check_positive_int

__all__ = [
    "MitigationAnalysisConfig",
    "VariantDistribution",
    "RobustComparisonRow",
    "MitigationStudyResult",
    "MitigationStudy",
]

@dataclass
class MitigationAnalysisConfig:
    """Configuration of the Fig. 8 / Fig. 9 studies.

    Attributes
    ----------
    model_names:
        Workloads to evaluate.
    variants:
        Variant grid (defaults to the paper's Original, L2_reg, l2+n1..n9).
    kinds, blocks, fractions, num_placements:
        Attack grid used for the variant comparison (Fig. 8 evaluates every
        block target; Fig. 9 uses the combined CONV+FC attacks).  ``kinds``
        accepts any registered attack kind; ``kind_params`` carries per-kind
        physical parameters for the non-default ones.
    seed:
        Master seed.
    checkpoint_cache:
        Consult (and fill) the content-addressed trained-model store before
        training: variants whose checkpoint exists are loaded with **zero
        training steps**.  Pre-warm with ``python -m repro train``.
    checkpoint_dir:
        Checkpoint store location (``None``: ``REPRO_CHECKPOINT_DIR`` or
        ``.repro-cache/checkpoints``).
    """

    model_names: Sequence[str] = ("cnn_mnist", "resnet18", "vgg16_variant")
    variants: Sequence[VariantSpec] | None = None
    kinds: Sequence[str] = PAPER_KINDS
    blocks: Sequence[str] = ("conv", "fc", "both")
    fractions: Sequence[float] = DEFAULT_FRACTIONS
    num_placements: int = 3
    seed: int = 0
    accelerator: AcceleratorConfig = field(default_factory=AcceleratorConfig.scaled_config)
    hotspot: HotspotAttackConfig = field(default_factory=HotspotAttackConfig)
    kind_params: dict | None = None
    quantize_weights: bool = True
    test_fraction: float = 0.25
    checkpoint_cache: bool = False
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        check_positive_int(self.num_placements, "num_placements")

    def variant_grid(self) -> list[VariantSpec]:
        if self.variants is not None:
            return list(self.variants)
        return default_variant_grid()

    @classmethod
    def quick(cls, **overrides) -> "MitigationAnalysisConfig":
        """Reduced configuration for tests and benchmarks."""
        from repro.mitigation.l2_regularization import L2Config
        from repro.mitigation.noise_aware import NoiseAwareConfig

        defaults = dict(
            model_names=("cnn_mnist",),
            variants=(
                VariantSpec(name="Original"),
                VariantSpec(name="L2_reg", l2=L2Config()),
                VariantSpec(name="l2+n2", l2=L2Config(), noise=NoiseAwareConfig(std=0.2)),
                VariantSpec(name="l2+n5", l2=L2Config(), noise=NoiseAwareConfig(std=0.5)),
            ),
            blocks=("both",),
            fractions=(0.05, 0.10),
            num_placements=2,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(frozen=True)
class VariantDistribution:
    """Fig. 8 data point: one variant's attacked-accuracy distribution."""

    model: str
    variant: str
    baseline_accuracy: float
    accuracies: np.ndarray

    def summary(self) -> dict[str, float]:
        from repro.analysis.metrics import box_stats

        stats = box_stats(self.accuracies).as_dict()
        stats["baseline"] = self.baseline_accuracy
        return stats


@dataclass(frozen=True)
class RobustComparisonRow:
    """Fig. 9 data point: original vs. robust model under one attack setting."""

    model: str
    kind: str
    fraction: float
    original_baseline: float
    robust_baseline: float
    original_accuracy_mean: float
    original_accuracy_min: float
    robust_accuracy_mean: float
    robust_accuracy_min: float

    @property
    def original_drop(self) -> float:
        return self.original_baseline - self.original_accuracy_min

    @property
    def recovery(self) -> float:
        """Worst-case accuracy recovered by the robust model (accuracy points)."""
        return self.robust_accuracy_min - self.original_accuracy_min


@dataclass
class MitigationStudyResult:
    """Outputs of the mitigation study for all workloads."""

    config: MitigationAnalysisConfig
    distributions: list[VariantDistribution] = field(default_factory=list)
    best_variant: dict[str, str] = field(default_factory=dict)
    variant_scores: dict[str, list[RobustnessScore]] = field(default_factory=dict)
    comparison: list[RobustComparisonRow] = field(default_factory=list)
    #: Per-model training accounting: variants trained vs loaded from the
    #: checkpoint cache, and the optimizer steps actually performed.
    training_stats: dict[str, dict] = field(default_factory=dict)

    def distributions_for(self, model: str) -> list[VariantDistribution]:
        return [d for d in self.distributions if d.model == model]

    def comparison_for(self, model: str) -> list[RobustComparisonRow]:
        return [row for row in self.comparison if row.model == model]


class MitigationStudy:
    """Runs the Fig. 8 variant comparison and the Fig. 9 robust-vs-original study."""

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

    # ------------------------------------------------------------------ run
    def run(self) -> MitigationStudyResult:
        """Run the full mitigation study for every configured workload."""
        result = MitigationStudyResult(config=self.config)
        scenarios = generate_scenarios(
            kinds=self.config.kinds,
            blocks=self.config.blocks,
            fractions=self.config.fractions,
            num_placements=self.config.num_placements,
            master_seed=self.config.seed,
        )
        # Pre-sample outcomes once: every variant faces the same attacks.
        outcomes = [
            (
                s,
                sample_outcome(
                    s,
                    self.config.accelerator,
                    self.config.hotspot,
                    kind_params=self.config.kind_params,
                ),
            )
            for s in scenarios
        ]
        for model_name in self.config.model_names:
            split = self.prepare_split(model_name)
            variants = self.train_variants(model_name, split)
            result.training_stats[model_name] = dict(
                self.last_training_stats.get(model_name, {})
            )
            accuracy_by_variant: dict[str, np.ndarray] = {}
            for variant in variants:
                engine = AttackedInferenceEngine(
                    variant.model,
                    config=self.config.accelerator,
                    quantize_weights=self.config.quantize_weights,
                )
                accuracies = engine.accuracy_under_attacks(
                    split.test, [outcome for _, outcome in outcomes]
                )
                accuracy_by_variant[variant.spec.name] = accuracies
                result.distributions.append(
                    VariantDistribution(
                        model=model_name,
                        variant=variant.spec.name,
                        baseline_accuracy=variant.baseline_accuracy,
                        accuracies=accuracies,
                    )
                )
            best, scores = select_most_robust(accuracy_by_variant)
            result.best_variant[model_name] = best
            result.variant_scores[model_name] = scores
            result.comparison.extend(
                self._compare_best(
                    model_name, variants, accuracy_by_variant, outcomes, best
                )
            )
        return result

    # ------------------------------------------------------------- figure 9
    def _compare_best(
        self,
        model_name: str,
        variants: list[VariantResult],
        accuracy_by_variant: dict[str, np.ndarray],
        outcomes,
        best: str,
    ) -> list[RobustComparisonRow]:
        """Fig. 9 rows: original vs. the selected robust variant (CONV+FC attacks).

        Every (scenario, variant) accuracy is already available from the
        Fig. 8 grid evaluation, so the comparison just slices the accuracy
        arrays instead of re-running attacked inference.
        """
        by_name = {variant.spec.name: variant for variant in variants}
        original = by_name["Original"]
        robust = by_name[best]
        rows: list[RobustComparisonRow] = []
        for kind in self.config.kinds:
            for fraction in self.config.fractions:
                selected = [
                    index
                    for index, (s, _) in enumerate(outcomes)
                    if s.spec.kind == kind
                    and s.spec.target_block == "both"
                    and np.isclose(s.spec.fraction, fraction)
                ]
                if not selected:
                    continue
                original_accs = np.asarray(accuracy_by_variant["Original"])[selected]
                robust_accs = np.asarray(accuracy_by_variant[best])[selected]
                rows.append(
                    RobustComparisonRow(
                        model=model_name,
                        kind=kind,
                        fraction=fraction,
                        original_baseline=original.baseline_accuracy,
                        robust_baseline=robust.baseline_accuracy,
                        original_accuracy_mean=float(original_accs.mean()),
                        original_accuracy_min=float(original_accs.min()),
                        robust_accuracy_mean=float(robust_accs.mean()),
                        robust_accuracy_min=float(robust_accs.min()),
                    )
                )
        return rows
