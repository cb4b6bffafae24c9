"""Susceptibility analysis (paper §IV, Fig. 7).

For every workload the study trains the baseline model, deploys it on the
accelerator, samples the attack grid (the paper's actuation + hotspot kinds
by default — any registered attack kind is a valid axis value — at 1/5/10%
intensity, CONV / FC / CONV+FC targets, several random placements) and
records the attacked inference accuracy of every scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.inference import AttackedInferenceEngine
from repro.attacks.base import BLOCKS, PAPER_KINDS
from repro.attacks.hotspot import HotspotAttackConfig
from repro.attacks.scenario import (
    DEFAULT_FRACTIONS,
    AttackScenario,
    generate_scenarios,
    sample_outcome,
)
from repro.datasets.base import DatasetSplit, train_test_split
from repro.datasets.registry import load_dataset
from repro.nn.models.registry import MODEL_DATASETS, build_model
from repro.nn.module import Module
from repro.nn.training import Trainer, TrainingConfig
from repro.utils.validation import check_positive_int

__all__ = ["SusceptibilityConfig", "ScenarioAccuracy", "SusceptibilityResult",
           "SusceptibilityStudy", "workload_split"]

#: Per-workload recipe for dataset synthesis and training, sized for CPU runs.
#: The susceptibility and mitigation studies both build their workloads from it.
_WORKLOAD_DEFAULTS: dict[str, dict[str, object]] = {
    "cnn_mnist": {
        "num_samples": 700,
        "dataset_kwargs": {},
        "model_kwargs": {},
        "training": dict(epochs=4, batch_size=32, lr=2e-3),
    },
    "resnet18": {
        "num_samples": 400,
        "dataset_kwargs": {},
        "model_kwargs": {},
        "training": dict(epochs=3, batch_size=32, lr=2e-3),
    },
    "vgg16_variant": {
        "num_samples": 450,
        "dataset_kwargs": {"image_size": 48},
        "model_kwargs": {"image_size": 48},
        "training": dict(epochs=4, batch_size=32, lr=2e-3),
    },
}


def workload_split(model_name: str, seed: int, test_fraction: float) -> DatasetSplit:
    """Synthesize and split the dataset of a workload."""
    defaults = _WORKLOAD_DEFAULTS[model_name]
    dataset = load_dataset(
        MODEL_DATASETS[model_name],
        num_samples=int(defaults["num_samples"]),
        seed=seed,
        **dict(defaults["dataset_kwargs"]),
    )
    return train_test_split(dataset, test_fraction, seed=seed + 1)


@dataclass
class SusceptibilityConfig:
    """Configuration of the Fig. 7 study.

    Attributes
    ----------
    model_names:
        Workloads to evaluate (default: all three Table I models).
    kinds, blocks, fractions:
        Attack grid axes; ``kinds`` accepts any registered attack kind
        (default: the paper's actuation + hotspot pair).
    num_placements:
        Random trojan placements per grid point (the paper uses 10).
    seed:
        Master seed controlling datasets, training and placements.
    accelerator:
        Accelerator configuration (defaults to the scaled CrossLight config).
    quantize_weights:
        Apply DAC-resolution quantization when mapping weights.
    test_fraction:
        Fraction of each synthetic dataset held out for accuracy measurement.
    kind_params:
        Per-kind physical parameters (kind name → params dataclass or
        mapping of overrides) for non-default grid kinds, forwarded to
        :func:`~repro.attacks.scenario.sample_outcome`.
    """

    model_names: Sequence[str] = ("cnn_mnist", "resnet18", "vgg16_variant")
    kinds: Sequence[str] = PAPER_KINDS
    blocks: Sequence[str] = BLOCKS
    fractions: Sequence[float] = DEFAULT_FRACTIONS
    num_placements: int = 10
    seed: int = 0
    accelerator: AcceleratorConfig = field(default_factory=AcceleratorConfig.scaled_config)
    hotspot: HotspotAttackConfig = field(default_factory=HotspotAttackConfig)
    kind_params: dict | None = None
    quantize_weights: bool = True
    test_fraction: float = 0.25

    def __post_init__(self) -> None:
        check_positive_int(self.num_placements, "num_placements")

    @classmethod
    def quick(cls, **overrides) -> "SusceptibilityConfig":
        """A reduced grid suitable for tests and benchmark runs."""
        defaults = dict(
            model_names=("cnn_mnist",),
            num_placements=2,
            fractions=(0.01, 0.10),
            blocks=("both",),
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(frozen=True)
class ScenarioAccuracy:
    """Attacked accuracy of one workload under one placed attack scenario."""

    model: str
    kind: str
    block: str
    fraction: float
    placement: int
    accuracy: float
    corrupted_fraction: float

    def key(self) -> tuple[str, str, str, float]:
        return (self.model, self.kind, self.block, self.fraction)


@dataclass
class SusceptibilityResult:
    """All scenario accuracies plus per-model baselines."""

    config: SusceptibilityConfig
    baselines: dict[str, float] = field(default_factory=dict)
    scenarios: list[ScenarioAccuracy] = field(default_factory=list)

    def accuracies_for(
        self, model: str, kind: str | None = None, block: str | None = None,
        fraction: float | None = None,
    ) -> np.ndarray:
        """Accuracies of the scenarios matching the given filters."""
        values = [
            s.accuracy
            for s in self.scenarios
            if s.model == model
            and (kind is None or s.kind == kind)
            and (block is None or s.block == block)
            and (fraction is None or np.isclose(s.fraction, fraction))
        ]
        return np.asarray(values, dtype=float)

    def worst_case_drop(self, model: str, kind: str | None = None) -> float:
        """Largest accuracy drop observed for a model (optionally per kind)."""
        accuracies = self.accuracies_for(model, kind=kind)
        if accuracies.size == 0:
            return 0.0
        return float(self.baselines[model] - accuracies.min())

    def series_for_figure(self, model: str) -> dict[str, list[float]]:
        """Fig. 7-style series: one list of accuracies per (kind, block, fraction)."""
        series: dict[str, list[float]] = {}
        for scenario in self.scenarios:
            if scenario.model != model:
                continue
            label = f"{scenario.kind}-{scenario.block}-{round(scenario.fraction * 100)}%"
            series.setdefault(label, []).append(scenario.accuracy)
        return series


class SusceptibilityStudy:
    """Runs the Fig. 7 susceptibility analysis."""

    def __init__(self, config: SusceptibilityConfig | None = None):
        self.config = config or SusceptibilityConfig()

    # ------------------------------------------------------------ workloads
    def prepare_workload(self, model_name: str) -> tuple[Module, DatasetSplit]:
        """Synthesize the dataset and train the baseline model for a workload."""
        defaults = _WORKLOAD_DEFAULTS[model_name]
        split = workload_split(model_name, self.config.seed, self.config.test_fraction)
        model = build_model(
            model_name, profile="scaled", rng=self.config.seed, **dict(defaults["model_kwargs"])
        )
        training = TrainingConfig(seed=self.config.seed, **dict(defaults["training"]))
        Trainer(model, training).fit(split.train)
        return model, split

    # ------------------------------------------------------------------ run
    def run(self, prepared: dict[str, tuple[Module, DatasetSplit]] | None = None) -> SusceptibilityResult:
        """Run the full study.

        ``prepared`` may supply already-trained ``(model, split)`` pairs per
        workload, which are evaluated instead of training them here.
        """
        result = SusceptibilityResult(config=self.config)
        scenarios = generate_scenarios(
            kinds=self.config.kinds,
            blocks=self.config.blocks,
            fractions=self.config.fractions,
            num_placements=self.config.num_placements,
            master_seed=self.config.seed,
        )
        for model_name in self.config.model_names:
            if prepared and model_name in prepared:
                model, split = prepared[model_name]
            else:
                model, split = self.prepare_workload(model_name)
            engine = AttackedInferenceEngine(
                model,
                config=self.config.accelerator,
                quantize_weights=self.config.quantize_weights,
            )
            result.baselines[model_name] = engine.clean_accuracy(split.test)
            result.scenarios.extend(
                self._evaluate_scenarios(model_name, engine, split, scenarios)
            )
        return result

    def _evaluate_scenarios(
        self,
        model_name: str,
        engine: AttackedInferenceEngine,
        split: DatasetSplit,
        scenarios: Sequence[AttackScenario],
    ) -> list[ScenarioAccuracy]:
        """Evaluate every placed scenario of one workload.

        All outcomes are sampled up front and run through stacked ensemble
        forwards (:meth:`AttackedInferenceEngine.accuracy_under_attacks`).
        """
        outcomes = [
            sample_outcome(
                scenario,
                self.config.accelerator,
                self.config.hotspot,
                kind_params=self.config.kind_params,
            )
            for scenario in scenarios
        ]
        accuracies = engine.accuracy_under_attacks(split.test, outcomes)
        corrupted = engine.weight_corruption_fractions(outcomes)
        return [
            ScenarioAccuracy(
                model=model_name,
                kind=scenario.spec.kind,
                block=scenario.spec.target_block,
                fraction=scenario.spec.fraction,
                placement=scenario.placement,
                accuracy=float(accuracy),
                corrupted_fraction=float(fraction),
            )
            for scenario, accuracy, fraction in zip(scenarios, accuracies, corrupted)
        ]
