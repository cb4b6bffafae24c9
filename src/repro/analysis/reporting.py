"""Plain-text report formatting for the reproduced tables and figures.

All formatters return strings so examples, benchmarks and tests can print or
assert on them without depending on a plotting stack.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.analysis.metrics import box_stats, percent

__all__ = [
    "format_table",
    "format_table1",
    "format_fig7_table",
    "format_fig8_table",
    "format_fig9_table",
    "format_deployment_report",
    "format_pareto_table",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an ASCII table with aligned columns."""
    str_rows = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_table1(rows: list[dict[str, object]]) -> str:
    """Render the Table I reproduction (paper vs. measured parameter counts)."""
    headers = [
        "Model", "Dataset",
        "CONV layers (paper/ours)", "CONV params (paper/ours)",
        "FC layers (paper/ours)", "FC params (paper/ours)",
        "Total (paper/ours)",
    ]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row["model"],
                row["dataset"],
                f"{row['paper_conv_layers']} / {row.get('measured_conv_layers', '-')}",
                f"{row['paper_conv_parameters']:,} / {row.get('measured_conv_parameters', 0):,}",
                f"{row['paper_fc_layers']} / {row.get('measured_fc_layers', '-')}",
                f"{row['paper_fc_parameters']:,} / {row.get('measured_fc_parameters', 0):,}",
                f"{row['paper_total_parameters']:,} / {row.get('measured_total_parameters', 0):,}",
            ]
        )
    return format_table(headers, table_rows, title="Table I: CNN model parameters")


def format_fig7_table(grid: Mapping) -> str:
    """Summarize one workload's Fig. 7 series from a ``fig7_grid`` payload.

    Accuracies are grouped by scenario label (``kind-block-NN%#placement``)
    into one row per attack setting, in grid order.
    """
    headers = ["Attack", "Block", "Fraction", "Mean acc", "Min acc", "Max drop"]
    baseline = float(grid["baseline"])
    settings: dict[str, list[float]] = {}
    for label, accuracy in grid["accuracies"].items():
        settings.setdefault(label.rsplit("#", 1)[0], []).append(float(accuracy))
    rows = []
    for setting, values in settings.items():
        kind, block, fraction = setting.rsplit("-", 2)
        accs = np.asarray(values)
        rows.append(
            [
                kind,
                block,
                fraction,
                percent(float(accs.mean())),
                percent(float(accs.min())),
                percent(float(baseline - accs.min())),
            ]
        )
    title = f"Fig. 7 ({grid['model']}): attacked accuracy, baseline {percent(baseline)}"
    return format_table(headers, rows, title=title)


def format_fig8_table(payloads: Sequence[Mapping], model: str) -> str:
    """Summarize the Fig. 8 box-plot data of one workload's ``fig8_variant`` payloads."""
    headers = ["Variant", "Baseline", "Min", "Q1", "Median", "Q3", "Max"]
    rows = []
    for unit in payloads:
        if unit["model"] != model:
            continue
        stats = box_stats(np.asarray(unit["accuracies"]))
        rows.append(
            [
                unit["variant"],
                percent(unit["baseline"]),
                percent(stats.minimum),
                percent(stats.q1),
                percent(stats.median),
                percent(stats.q3),
                percent(stats.maximum),
            ]
        )
    return format_table(headers, rows, title=f"Fig. 8 ({model}): accuracy across attack scenarios")


def format_fig9_table(comparison_rows: Sequence[Mapping], model: str) -> str:
    """Summarize the Fig. 9 rows of :func:`~repro.analysis.mitigation_analysis.robust_comparison`."""
    headers = [
        "Attack", "Fraction",
        "Original mean", "Original worst",
        "Robust mean", "Robust worst",
        "Worst-case recovery",
    ]
    rows = []
    for row in comparison_rows:
        if row["model"] != model:
            continue
        rows.append(
            [
                row["kind"],
                f"{round(row['fraction'] * 100)}%",
                percent(row["original_mean"]),
                percent(row["original_min"]),
                percent(row["robust_mean"]),
                percent(row["robust_min"]),
                percent(row["recovery"]),
            ]
        )
    return format_table(
        headers, rows, title=f"Fig. 9 ({model}): robust vs. original under CONV+FC attacks"
    )


def format_pareto_table(front: Sequence[object], title: str = "Pareto front") -> str:
    """Render a stealth-vs-damage Pareto front.

    Accepts :class:`~repro.attacks.search.pareto.ParetoPoint` objects or the
    dicts :func:`~repro.attacks.search.pareto.front_payload` emits.
    """
    headers = ["Attacked MRs", "Accuracy drop", "Candidate"]
    rows = []
    for point in front:
        if isinstance(point, dict):
            stealth = point.get("num_attacked_mrs", 0)
            damage = point.get("accuracy_drop", 0.0)
            label = point.get("label", "")
        else:
            stealth = point.stealth
            damage = point.damage
            label = point.label
        rows.append([int(stealth), percent(float(damage)), label])
    return format_table(headers, rows, title=title)


def format_deployment_report(report: dict[str, object]) -> str:
    """Render an accelerator deployment report (mapping summary)."""
    headers = ["Field", "Value"]
    rows = [[key, value] for key, value in report.items()]
    return format_table(headers, rows, title="Accelerator deployment")
