"""Susceptibility analysis example (paper Fig. 7), driven by the engine.

Expands the attack grid (actuation and hotspot attacks at 1/5/10% of the MRs
on the CONV block, the FC block, and both) into a campaign of ``fig7_point``
runs, executes it in parallel with result caching, groups the points of each
workload into the shape of a ``fig7_grid`` payload and prints the per-setting
accuracy table.  Re-running the example completes from the cache.

Run with::

    python examples/susceptibility_analysis.py             # CNN_1 only (fast)
    python examples/susceptibility_analysis.py --all       # all three workloads
    python examples/susceptibility_analysis.py --placements 10   # paper-size grid
    python examples/susceptibility_analysis.py --workers 8       # wider pool
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_fig7_table
from repro.attacks import AttackSpec
from repro.engine import Campaign, SweepSpec


def grids_from_points(payloads) -> list[dict]:
    """Group ``fig7_point`` payloads into one ``fig7_grid``-shaped payload per
    workload, labelling each accuracy ``kind-block-NN%#placement``."""
    grids: dict[str, dict] = {}
    for point in payloads:
        grid = grids.setdefault(
            point["model"],
            {"model": point["model"], "baseline": point["baseline"], "accuracies": {}},
        )
        setting = AttackSpec(point["kind"], point["block"], point["fraction"]).label()
        grid["accuracies"][f"{setting}#{point['placement']}"] = point["accuracy"]
    return list(grids.values())


def worst_case_drop(grid: dict, kind: str) -> float:
    """Largest accuracy drop of one attack kind in a ``fig7_grid`` payload."""
    accuracies = [
        accuracy
        for label, accuracy in grid["accuracies"].items()
        if label.startswith(f"{kind}-")
    ]
    return grid["baseline"] - min(accuracies)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--all", action="store_true",
        help="evaluate all three workloads (CNN_1, ResNet18, VGG16 variant)",
    )
    parser.add_argument(
        "--placements", type=int, default=3,
        help="random trojan placements per attack setting (paper uses 10)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker-pool size (1 runs serially)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache",
        help="campaign result cache (re-runs complete from here)",
    )
    args = parser.parse_args()

    model_names = (
        ("cnn_mnist", "resnet18", "vgg16_variant") if args.all else ("cnn_mnist",)
    )
    sweep = SweepSpec(
        experiment_id="fig7_point",
        grid={
            "model": list(model_names),
            "kind": ["actuation", "hotspot"],
            "block": ["conv", "fc", "both"],
            "fraction": [0.01, 0.05, 0.10],
            "placement": list(range(args.placements)),
        },
    )
    campaign = Campaign(sweep, cache=args.cache_dir, workers=args.workers)
    print(f"Running the susceptibility grid for {', '.join(model_names)} "
          f"({sweep.num_points} campaign points, "
          f"{args.placements} placements per setting)...")
    result = campaign.run()
    summary = result.summary()
    print(f"Campaign finished in {summary['duration_s']}s: "
          f"{summary['executed']} executed, {summary['cache_hits']} cache hits "
          f"({summary['executor']} executor)")

    for grid in grids_from_points(result.payloads):
        print()
        print(format_fig7_table(grid))
        print(f"Worst-case hotspot drop:   {worst_case_drop(grid, 'hotspot'):.3f}")
        print(f"Worst-case actuation drop: {worst_case_drop(grid, 'actuation'):.3f}")


if __name__ == "__main__":
    main()
