"""Pareto fronts over attack stealth vs. damage.

Every evaluated candidate reduces to a point with two objectives: *stealth*
(``num_attacked_mrs`` — fewer corrupted microrings is harder to detect, so
lower is better) and *damage* (accuracy drop vs. the clean baseline — higher
is better).  The front keeps the candidates no other candidate beats on both
axes; :func:`front_dominates` is the acceptance check that a searched front
strictly improves on the paper's fixed Cartesian grid at equal evaluation
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ParetoPoint",
    "candidate_label",
    "dominates",
    "pareto_front",
    "front_dominates",
    "front_payload",
]


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate in (stealth, damage) objective space."""

    stealth: int
    damage: float
    label: str = ""
    meta: dict = field(default_factory=dict, compare=False)


def candidate_label(
    kind: str, fraction: float, attack_params: dict | None, placements: int
) -> str:
    """Label of a searched candidate's point: ``kind[fraction=f,k=v,...]xN``."""
    params = ",".join(f"{k}={v}" for k, v in sorted((attack_params or {}).items()))
    inner = f"fraction={fraction}" + (f",{params}" if params else "")
    return f"{kind}[{inner}]x{placements}"


def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """True if ``a`` is at least as good as ``b`` on both axes, better on one."""
    return (
        a.stealth <= b.stealth
        and a.damage >= b.damage
        and (a.stealth < b.stealth or a.damage > b.damage)
    )


def pareto_front(points: list) -> list:
    """Non-dominated points, sorted by stealth ascending then damage descending.

    Duplicate objective pairs collapse to the first occurrence (evaluation
    order), keeping fronts byte-stable across identically seeded runs.
    """
    ordered = sorted(
        enumerate(points), key=lambda item: (item[1].stealth, -item[1].damage, item[0])
    )
    front: list = []
    seen: set = set()
    best_damage = float("-inf")
    for _, point in ordered:
        key = (point.stealth, point.damage)
        if point.damage > best_damage and key not in seen:
            front.append(point)
            seen.add(key)
            best_damage = point.damage
    return front


def front_dominates(front: list, reference: list, tol: float = 0.0) -> bool:
    """True if ``front`` Pareto-dominates ``reference``.

    Every reference point must be matched-or-beaten by some front point
    (stealth <= and damage >= within ``tol``), and at least one front point
    must strictly beat some reference point (strictly higher damage at equal
    or lower stealth, or equal damage at strictly lower stealth, by more
    than ``tol``).
    """
    if not front or not reference:
        return False
    for ref in reference:
        if not any(
            p.stealth <= ref.stealth and p.damage >= ref.damage - tol for p in front
        ):
            return False
    return any(
        p.stealth <= ref.stealth
        and (
            p.damage > ref.damage + tol
            or (p.damage >= ref.damage - tol and p.stealth < ref.stealth)
        )
        for p in front
        for ref in reference
    )


def front_payload(front: list) -> list:
    """JSON-ready representation of a front (for payloads and reports)."""
    return [
        {
            "num_attacked_mrs": int(point.stealth),
            "accuracy_drop": float(point.damage),
            "label": point.label,
            **({"meta": point.meta} if point.meta else {}),
        }
        for point in front
    ]
