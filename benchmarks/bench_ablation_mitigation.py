"""Ablation E-A1: L2-only vs noise-only vs combined mitigation.

Section V of the paper motivates using L2 regularization and Gaussian
noise-aware training *together*.  This ablation runs the
``ablation_mitigation`` experiment through the campaign engine: it trains the
MNIST workload with each component alone and combined (one ``fig8_variant``
unit per variant, all facing the same attack grid) and reduces their
attacked-accuracy distributions to medians.
"""

from __future__ import annotations

from repro.analysis.experiments import get_experiment
from repro.analysis.reporting import format_fig8_table
from repro.engine import Campaign, ResultCache

_VARIANTS = ("Original", "L2_reg", "noise_n3", "l2+n3")


def test_ablation_mitigation_components(benchmark, tmp_path):
    """Compare mitigation components in isolation and combined (CNN_1 workload)."""
    spec = get_experiment("ablation_mitigation").spec({"variants": list(_VARIANTS)})
    cache = ResultCache(tmp_path / "campaign-cache")

    result = benchmark.pedantic(
        lambda: Campaign([spec], cache=cache).run(), rounds=1, iterations=1
    )
    assert result.failures == 0
    units = sorted(
        (dict(record.payload) for record in cache.records("fig8_variant")),
        key=lambda unit: _VARIANTS.index(unit["variant"]),
    )
    print()
    print(format_fig8_table(units, "cnn_mnist"))

    medians = result.records[0].payload["median_attacked_accuracy"]
    for variant, median in medians.items():
        benchmark.extra_info[f"{variant}_median"] = median

    # Shape check: at least one mitigation variant matches or beats the
    # original model's median attacked accuracy, and the combined variant is
    # competitive with the best single-component variant.
    assert max(medians["L2_reg"], medians["noise_n3"], medians["l2+n3"]) >= (
        medians["Original"] - 0.03
    )
    assert medians["l2+n3"] >= min(medians["L2_reg"], medians["noise_n3"]) - 0.05
