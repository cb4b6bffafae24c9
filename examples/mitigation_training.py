"""Mitigation example (paper Figs. 8 and 9).

Trains the mitigation variant grid for the CNN_1 workload (Original, L2_reg
and L2 + Gaussian noise-aware variants) as one ``fig8_variant`` run per
variant, each evaluated across the same attack grid, then reduces their
payloads the way the ``fig8`` and ``fig9`` experiments do: it selects the
most robust configuration and compares it against the original model under
CONV+FC attacks.

Run with::

    python examples/mitigation_training.py
    python examples/mitigation_training.py --full-grid    # all l2+n1..n9 variants
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.mitigation_analysis import robust_comparison
from repro.analysis.reporting import format_fig8_table, format_fig9_table
from repro.engine import Campaign, SweepSpec
from repro.mitigation import default_variant_grid
from repro.mitigation.selection import select_most_robust


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full-grid", action="store_true",
        help="train the full paper grid (Original, L2_reg, l2+n1 .. l2+n9)",
    )
    parser.add_argument("--placements", type=int, default=2)
    args = parser.parse_args()

    if args.full_grid:
        variants = [spec.name for spec in default_variant_grid()]
    else:
        variants = ["Original", "L2_reg", "l2+n2", "l2+n3", "l2+n5"]
    grid = {
        "kinds": ["actuation", "hotspot"],
        "blocks": ["conv", "fc", "both"],
        "fractions": [0.01, 0.05, 0.10],
        "num_placements": args.placements,
    }
    sweep = SweepSpec(
        experiment_id="fig8_variant",
        base={"model": "cnn_mnist", **grid},
        grid={"variant": variants},
    )
    print(f"Training {len(variants)} variants of CNN_1 and evaluating the attack grid...")
    payloads = Campaign(sweep).run().payloads

    print()
    print(format_fig8_table(payloads, "cnn_mnist"))
    best, scores = select_most_robust(
        {unit["variant"]: np.asarray(unit["accuracies"]) for unit in payloads}
    )
    print(f"\nMost robust variant: {best}")
    print("Variant ranking (median attacked accuracy):")
    for score in scores:
        print(f"  {score.variant:10s} median={score.median_accuracy:.3f} "
              f"mean={score.mean_accuracy:.3f} worst={score.worst_accuracy:.3f}")

    print()
    print(format_fig9_table(robust_comparison(payloads, grid), "cnn_mnist"))


if __name__ == "__main__":
    main()
