"""Benchmark E-F9: regenerate the Fig. 9 robust-vs-original comparison.

Fig. 9 compares the most robust variant of each workload against the original
model under actuation and hotspot attacks covering 1/5/10% of the full
accelerator (CONV + FC).  The variants run as ``fig8_variant`` units through
the campaign engine and are reduced by
:func:`~repro.analysis.mitigation_analysis.robust_comparison`, the reduction
the ``fig9`` experiment uses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.mitigation_analysis import robust_comparison
from repro.analysis.reporting import format_fig9_table
from repro.engine import Campaign, SweepSpec

_VARIANTS = ("Original", "l2+n2", "l2+n3")
_GRID = {
    "kinds": ["actuation", "hotspot"],
    "blocks": ["both"],
    "fractions": [0.01, 0.05, 0.10],
    "num_placements": 2,
}


@pytest.mark.parametrize("model_name", ["cnn_mnist"])
def test_fig9_robust_vs_original(benchmark, model_name):
    """Original vs. robust accuracy under CONV+FC attacks at 1/5/10%."""
    sweep = SweepSpec(
        experiment_id="fig8_variant",
        base={"model": model_name, **_GRID},
        grid={"variant": list(_VARIANTS)},
    )

    result = benchmark.pedantic(lambda: Campaign(sweep).run(), rounds=1, iterations=1)
    assert result.failures == 0
    rows = robust_comparison(result.payloads, _GRID)
    print()
    print(format_fig9_table(rows, model_name))

    benchmark.extra_info["best_variant"] = rows[0]["robust_variant"]
    for row in rows:
        label = f"{row['kind']}_{round(row['fraction'] * 100)}pct_recovery"
        benchmark.extra_info[label] = row["recovery"]

    # Paper-shape checks: under actuation attacks the robust model recovers
    # accuracy on average, and across the whole grid it is never dramatically
    # worse than the original model.
    actuation_rows = [row for row in rows if row["kind"] == "actuation"]
    assert actuation_rows
    mean_recovery = np.mean(
        [row["robust_mean"] - row["original_mean"] for row in actuation_rows]
    )
    assert mean_recovery > -0.02
    for row in rows:
        assert row["robust_mean"] > row["original_mean"] - 0.15
