"""Workload recipes and the baseline set-up (paper §IV, Fig. 7).

:data:`_WORKLOAD_DEFAULTS` sizes each Table I workload's synthetic dataset
and training run; :func:`workload_split` synthesizes a workload's split, and
:meth:`SusceptibilityStudy.prepare_workload` trains its baseline model, the
``Original`` variant of :class:`~repro.analysis.mitigation_analysis.MitigationStudy`.
The Fig. 7 figure itself is the ``fig7`` experiment, a reduction over one
``fig7_grid`` unit per model (:mod:`repro.analysis.experiments`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator.config import AcceleratorConfig
from repro.attacks.hotspot import HotspotAttackConfig
from repro.datasets.base import DatasetSplit, train_test_split
from repro.datasets.registry import load_dataset
from repro.mitigation.robust_training import VariantSpec
from repro.nn.models.registry import MODEL_DATASETS
from repro.nn.module import Module

__all__ = ["SusceptibilityConfig", "SusceptibilityStudy", "workload_split"]

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
    """Configuration of a baseline workload's set-up.

    Attributes
    ----------
    seed:
        Master seed controlling the dataset and the training.
    accelerator:
        Accelerator configuration (defaults to the scaled CrossLight config).
    hotspot:
        Physical parameters of the hotspot attack kind.
    test_fraction:
        Fraction of each synthetic dataset held out for accuracy measurement.
    """

    seed: int = 0
    accelerator: AcceleratorConfig = field(default_factory=AcceleratorConfig.scaled_config)
    hotspot: HotspotAttackConfig = field(default_factory=HotspotAttackConfig)
    test_fraction: float = 0.25


class SusceptibilityStudy:
    """Sets up the baseline workloads of the Fig. 7 analysis."""

    def __init__(self, config: SusceptibilityConfig | None = None):
        self.config = config or SusceptibilityConfig()

    def prepare_workload(self, model_name: str) -> tuple[Module, DatasetSplit]:
        """Synthesize the dataset and train the baseline model for a workload.

        The baseline is the ``Original`` variant trained by
        :meth:`MitigationStudy.train_variants`, as ``prepared_workload``
        trains it for the experiments.
        """
        from repro.analysis.mitigation_analysis import (
            MitigationAnalysisConfig,
            MitigationStudy,
        )

        study = MitigationStudy(
            MitigationAnalysisConfig(
                variants=(VariantSpec("Original"),),
                seed=self.config.seed,
                test_fraction=self.config.test_fraction,
            )
        )
        split = study.prepare_split(model_name)
        (trained,) = study.train_variants(model_name, split)
        return trained.model, split
