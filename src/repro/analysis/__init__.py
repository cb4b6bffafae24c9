"""Experiment harnesses reproducing the paper's tables and figures.

* :mod:`repro.analysis.metrics` — accuracy drop / recovery metrics and
  box-plot statistics.
* :mod:`repro.analysis.susceptibility` — the workload recipes and the
  serial baseline training behind the Fig. 7 analysis.
* :mod:`repro.analysis.mitigation_analysis` — variant-grid training and the
  Fig. 8 / Fig. 9 reductions over ``fig8_variant`` payloads.
* :mod:`repro.analysis.reporting` — plain-text tables matching the paper's
  artefacts (printed by the examples and benchmarks).
* :mod:`repro.analysis.experiments` — registry of experiment ids (Table I,
  Fig. 6-9, ablations) with their runners; the figures are reductions over
  cacheable unit runs.
"""

from repro.analysis.metrics import (
    BoxStats,
    accuracy_drop,
    accuracy_recovery,
    box_stats,
    percent,
)
from repro.analysis.susceptibility import SusceptibilityConfig, SusceptibilityStudy
from repro.analysis.mitigation_analysis import (
    MitigationAnalysisConfig,
    MitigationStudy,
    most_robust_variant,
    robust_comparison,
)
from repro.analysis.reporting import (
    format_fig7_table,
    format_fig8_table,
    format_fig9_table,
    format_table,
    format_table1,
)
from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentDescriptor,
    experiment_ids,
    get_experiment,
)

__all__ = [
    "BoxStats",
    "accuracy_drop",
    "accuracy_recovery",
    "box_stats",
    "percent",
    "SusceptibilityConfig",
    "SusceptibilityStudy",
    "MitigationAnalysisConfig",
    "MitigationStudy",
    "most_robust_variant",
    "robust_comparison",
    "format_table",
    "format_table1",
    "format_fig7_table",
    "format_fig8_table",
    "format_fig9_table",
    "EXPERIMENTS",
    "ExperimentDescriptor",
    "experiment_ids",
    "get_experiment",
]
