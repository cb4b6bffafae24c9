"""Susceptibility analysis example (paper Fig. 7), driven by the engine.

Expands the attack grid (actuation and hotspot attacks at 1/5/10% of the MRs
on the CONV block, the FC block, and both) into a campaign of ``fig7_point``
runs, executes it in parallel with result caching, and prints the
per-scenario accuracy table.  Re-running the example completes from the
cache.

Run with::

    python examples/susceptibility_analysis.py             # CNN_1 only (fast)
    python examples/susceptibility_analysis.py --all       # all three workloads
    python examples/susceptibility_analysis.py --placements 10   # paper-size grid
    python examples/susceptibility_analysis.py --workers 8       # wider pool
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_fig7_table
from repro.analysis.susceptibility import (
    ScenarioAccuracy,
    SusceptibilityConfig,
    SusceptibilityResult,
)
from repro.engine import Campaign, SweepSpec


def result_from_payloads(config: SusceptibilityConfig, payloads) -> SusceptibilityResult:
    """Reassemble a :class:`SusceptibilityResult` from campaign payloads."""
    result = SusceptibilityResult(config=config)
    for payload in payloads:
        result.baselines[payload["model"]] = payload["baseline"]
        result.scenarios.append(
            ScenarioAccuracy(
                model=payload["model"],
                kind=payload["kind"],
                block=payload["block"],
                fraction=payload["fraction"],
                placement=payload["placement"],
                accuracy=payload["accuracy"],
                corrupted_fraction=payload["corrupted_fraction"],
            )
        )
    return result


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
    fractions = (0.01, 0.05, 0.10)
    blocks = ("conv", "fc", "both")
    sweep = SweepSpec(
        experiment_id="fig7_point",
        grid={
            "model": list(model_names),
            "kind": ["actuation", "hotspot"],
            "block": list(blocks),
            "fraction": list(fractions),
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

    config = SusceptibilityConfig(
        model_names=model_names,
        blocks=blocks,
        fractions=fractions,
        num_placements=args.placements,
    )
    table = result_from_payloads(config, result.payloads)
    for model_name in model_names:
        print()
        print(format_fig7_table(table, model_name))
        print(f"Worst-case hotspot drop:   {table.worst_case_drop(model_name, 'hotspot'):.3f}")
        print(f"Worst-case actuation drop: {table.worst_case_drop(model_name, 'actuation'):.3f}")


if __name__ == "__main__":
    main()
