"""Experiment harnesses reproducing the paper's tables and figures.

* :mod:`repro.analysis.metrics` — accuracy drop / recovery metrics and
  box-plot statistics.
* :mod:`repro.analysis.susceptibility` — the Fig. 7 susceptibility study
  (attacked accuracy across the attack grid for each workload).
* :mod:`repro.analysis.mitigation_analysis` — the Fig. 8 variant comparison
  and the Fig. 9 robust-vs-original comparison.
* :mod:`repro.analysis.reporting` — plain-text tables matching the paper's
  artefacts (printed by the examples and benchmarks).
* :mod:`repro.analysis.experiments` — registry of experiment ids (Table I,
  Fig. 6-9, ablations) with their runners.
"""

from repro.analysis.metrics import (
    BoxStats,
    accuracy_drop,
    accuracy_recovery,
    box_stats,
    percent,
)
from repro.analysis.susceptibility import (
    ScenarioAccuracy,
    SusceptibilityConfig,
    SusceptibilityResult,
    SusceptibilityStudy,
)
from repro.analysis.mitigation_analysis import (
    MitigationAnalysisConfig,
    MitigationStudy,
    MitigationStudyResult,
    RobustComparisonRow,
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
    "ScenarioAccuracy",
    "SusceptibilityConfig",
    "SusceptibilityResult",
    "SusceptibilityStudy",
    "MitigationAnalysisConfig",
    "MitigationStudy",
    "MitigationStudyResult",
    "RobustComparisonRow",
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
