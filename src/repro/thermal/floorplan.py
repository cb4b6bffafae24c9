"""Chip floorplan of MR banks for thermal simulation.

The CONV (or FC) block's VDP units are laid out as a regular array of
rectangular MR-bank tiles on the photonic substrate.  The floorplan maps each
bank to a region of the thermal grid so heater power can be injected at the
right place and per-bank temperatures can be read back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ValidationError, check_positive, check_positive_int

__all__ = ["BankPlacement", "Floorplan"]


@dataclass(frozen=True)
class BankPlacement:
    """Placement of one MR bank on the chip surface (all units in micrometres)."""

    bank_id: int
    x_um: float
    y_um: float
    width_um: float
    height_um: float

    @property
    def center_um(self) -> tuple[float, float]:
        return (self.x_um + self.width_um / 2.0, self.y_um + self.height_um / 2.0)


class Floorplan:
    """Regular grid layout of MR banks on a rectangular die.

    Parameters
    ----------
    num_banks:
        Number of MR banks to place.
    banks_per_row:
        Banks per floorplan row; rows are filled left-to-right, top-to-bottom.
    bank_width_um, bank_height_um:
        Tile footprint of one bank (rings plus peripheral circuits).
    spacing_um:
        Gap between adjacent tiles.
    margin_um:
        Margin between the tile array and the die edge.
    """

    def __init__(
        self,
        num_banks: int,
        banks_per_row: int | None = None,
        bank_width_um: float = 120.0,
        bank_height_um: float = 60.0,
        spacing_um: float = 20.0,
        margin_um: float = 50.0,
    ):
        self.num_banks = check_positive_int(num_banks, "num_banks")
        if banks_per_row is None:
            banks_per_row = int(np.ceil(np.sqrt(num_banks)))
        self.banks_per_row = check_positive_int(banks_per_row, "banks_per_row")
        self.bank_width_um = check_positive(bank_width_um, "bank_width_um")
        self.bank_height_um = check_positive(bank_height_um, "bank_height_um")
        if spacing_um < 0 or margin_um < 0:
            raise ValueError("spacing_um and margin_um must be non-negative")
        self.spacing_um = float(spacing_um)
        self.margin_um = float(margin_um)
        self.placements = self._place()

    def _place(self) -> list[BankPlacement]:
        placements = []
        for bank_id in range(self.num_banks):
            row = bank_id // self.banks_per_row
            col = bank_id % self.banks_per_row
            x = self.margin_um + col * (self.bank_width_um + self.spacing_um)
            y = self.margin_um + row * (self.bank_height_um + self.spacing_um)
            placements.append(
                BankPlacement(
                    bank_id=bank_id,
                    x_um=x,
                    y_um=y,
                    width_um=self.bank_width_um,
                    height_um=self.bank_height_um,
                )
            )
        return placements

    @property
    def num_rows(self) -> int:
        return math.ceil(self.num_banks / self.banks_per_row)

    @property
    def die_width_um(self) -> float:
        """Total die width including margins."""
        return (
            2 * self.margin_um
            + self.banks_per_row * self.bank_width_um
            + (self.banks_per_row - 1) * self.spacing_um
        )

    @property
    def die_height_um(self) -> float:
        """Total die height including margins."""
        return (
            2 * self.margin_um
            + self.num_rows * self.bank_height_um
            + (self.num_rows - 1) * self.spacing_um
        )

    def neighbours_of(self, bank_id: int, radius: int = 1) -> list[int]:
        """Bank ids within ``radius`` grid positions of ``bank_id`` (excluding it)."""
        row = bank_id // self.banks_per_row
        col = bank_id % self.banks_per_row
        neighbours = []
        for other in range(self.num_banks):
            if other == bank_id:
                continue
            other_row = other // self.banks_per_row
            other_col = other % self.banks_per_row
            if abs(other_row - row) <= radius and abs(other_col - col) <= radius:
                neighbours.append(other)
        return neighbours

    def bank_cells(self, bank_id: int, grid_shape: tuple[int, int]) -> tuple[slice, slice]:
        """Grid-cell slices (rows, cols) covered by ``bank_id`` on a thermal grid."""
        if not 0 <= bank_id < self.num_banks:
            raise ValidationError(
                f"bank {bank_id} outside floorplan with {self.num_banks} banks"
            )
        rows, cols = grid_shape
        placement = self.placements[bank_id]
        x0 = math.floor(placement.x_um / self.die_width_um * cols)
        x1 = math.ceil((placement.x_um + placement.width_um) / self.die_width_um * cols)
        y0 = math.floor(placement.y_um / self.die_height_um * rows)
        y1 = math.ceil((placement.y_um + placement.height_um) / self.die_height_um * rows)
        x1 = max(x1, x0 + 1)
        y1 = max(y1, y0 + 1)
        return slice(y0, min(y1, rows)), slice(x0, min(x1, cols))
