"""Chip floorplan of MR banks for thermal simulation.

The CONV (or FC) block's VDP units are laid out as a regular array of
rectangular MR-bank tiles on the photonic substrate.  The floorplan maps each
bank to a region of the thermal grid so heater power can be injected at the
right place and per-bank temperatures can be read back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ValidationError, check_positive, check_positive_int

__all__ = ["BankPlacement", "Floorplan", "FloorplanTiling", "TileGroup"]


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


@dataclass(frozen=True)
class Floorplan:
    """Regular grid layout of MR banks on a rectangular die.

    A floorplan is immutable and compares (and hashes) by its validated
    geometry, which is what keys its cached :meth:`tiling`.

    Parameters
    ----------
    num_banks:
        Number of MR banks to place.
    banks_per_row:
        Banks per floorplan row; rows are filled left-to-right, top-to-bottom.
        ``None`` picks ``ceil(sqrt(num_banks))``.
    bank_width_um, bank_height_um:
        Tile footprint of one bank (rings plus peripheral circuits).
    spacing_um:
        Gap between adjacent tiles.
    margin_um:
        Margin between the tile array and the die edge.
    """

    num_banks: int
    banks_per_row: int | None = None
    bank_width_um: float = 120.0
    bank_height_um: float = 60.0
    spacing_um: float = 20.0
    margin_um: float = 50.0

    def __post_init__(self) -> None:
        num_banks = check_positive_int(self.num_banks, "num_banks")
        banks_per_row = self.banks_per_row
        if banks_per_row is None:
            banks_per_row = int(np.ceil(np.sqrt(num_banks)))
        if self.spacing_um < 0 or self.margin_um < 0:
            raise ValueError("spacing_um and margin_um must be non-negative")
        validated = {
            "num_banks": num_banks,
            "banks_per_row": check_positive_int(banks_per_row, "banks_per_row"),
            "bank_width_um": check_positive(self.bank_width_um, "bank_width_um"),
            "bank_height_um": check_positive(self.bank_height_um, "bank_height_um"),
            "spacing_um": float(self.spacing_um),
            "margin_um": float(self.margin_um),
        }
        for name, value in validated.items():
            object.__setattr__(self, name, value)

    @functools.cached_property
    def placements(self) -> tuple[BankPlacement, ...]:
        """Every bank's tile, indexed by bank id."""
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
        return tuple(placements)

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

    def tiling(self, grid_shape: tuple[int, int]) -> FloorplanTiling:
        """Every bank's tile on a ``(rows, cols)`` grid, computed once per process.

        The value is shared by every call with an equal floorplan and grid
        shape (a bounded cache keyed by all six geometry fields and the
        shape); its arrays are read-only.
        """
        rows, cols = grid_shape
        shape = (check_positive_int(rows, "grid rows"), check_positive_int(cols, "grid cols"))
        return _tiling(self, shape)


@dataclass(frozen=True, eq=False)
class TileGroup:
    """The banks whose tiles share one ``(height, width)`` shape.

    ``cells[i]`` holds the flat grid-cell indices of ``bank_ids[i]``'s tile
    in row-major order, so ``field.reshape(-1)[cells[i]]`` is that tile
    flattened exactly as ``field[slices[bank_ids[i]]]`` would be.
    """

    height: int
    width: int
    bank_ids: np.ndarray
    cells: np.ndarray


@dataclass(frozen=True, eq=False)
class FloorplanTiling:
    """Where every bank tile of one floorplan falls on one thermal grid.

    Attributes
    ----------
    grid_shape:
        ``(rows, cols)`` of the thermal grid.
    slices:
        :meth:`Floorplan.bank_cells` of every bank, indexed by bank id.
    areas:
        Cells per tile, indexed by bank id.
    starts, cells:
        Every tile's flat cell indices, tile after tile in bank order:
        bank ``b`` covers ``cells[starts[b]:starts[b] + areas[b]]``.
    groups:
        One :class:`TileGroup` per distinct tile shape.
    """

    grid_shape: tuple[int, int]
    slices: tuple[tuple[slice, slice], ...]
    areas: np.ndarray
    starts: np.ndarray
    cells: np.ndarray
    groups: tuple[TileGroup, ...]

    def spread(self, banks: np.ndarray, watts: np.ndarray) -> np.ndarray:
        """Power map [W] with ``watts[i]`` spread evenly over tile ``banks[i]``.

        Additions happen in the order given, so a cell covered by several
        (overlapping or repeated) tiles accumulates their shares in exactly
        the sequence a loop of ``power[slices[b]] += w / area`` would.
        """
        counts = self.areas[banks]
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        positions = np.repeat(self.starts[banks] - (ends - counts), counts) + np.arange(total)
        power = np.zeros(self.grid_shape)
        np.add.at(power.reshape(-1), self.cells[positions], np.repeat(watts / counts, counts))
        return power

    def tile_means(self, field: np.ndarray) -> np.ndarray:
        """Mean of ``field`` over every bank's tile, indexed by bank id.

        Bit-identical to ``field[slices[b]].mean()``: NumPy reduces a tile
        of up to one buffer of cells (``np.getbufsize()``) as one pairwise
        run over its row-major cells, which is what summing each gathered
        row does.  A larger tile is reduced buffer by buffer, so the few
        tiles of that size take the slice mean itself.
        """
        flat = field.reshape(-1)
        means = np.empty(len(self.areas))
        for group in self.groups:
            size = group.height * group.width
            if size <= np.getbufsize():
                means[group.bank_ids] = flat[group.cells].sum(axis=1) / size
            else:
                means[group.bank_ids] = [field[self.slices[b]].mean() for b in group.bank_ids]
        return means


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=8)
def _tiling(floorplan: Floorplan, grid_shape: tuple[int, int]) -> FloorplanTiling:
    """Build the tiling behind :meth:`Floorplan.tiling`.

    ``maxsize=8`` covers the CONV and FC blocks of a few grid shapes; one
    entry holds every tile's int64 cell indices twice (at most about 3 MiB
    at 512x512).
    """
    rows, cols = grid_shape
    slices = tuple(floorplan.bank_cells(b, grid_shape) for b in range(floorplan.num_banks))
    index = np.arange(rows * cols).reshape(rows, cols)
    tiles = [index[tile].reshape(-1) for tile in slices]
    areas = np.array([tile.size for tile in tiles])
    shapes = [(tile[0].stop - tile[0].start, tile[1].stop - tile[1].start) for tile in slices]
    groups = []
    for height, width in sorted(set(shapes)):
        bank_ids = np.array([b for b, shape in enumerate(shapes) if shape == (height, width)])
        cells = np.stack([tiles[b] for b in bank_ids])
        groups.append(TileGroup(height, width, _read_only(bank_ids), _read_only(cells)))
    return FloorplanTiling(
        grid_shape=grid_shape,
        slices=slices,
        areas=_read_only(areas),
        starts=_read_only(np.cumsum(areas) - areas),
        cells=_read_only(np.concatenate(tiles)),
        groups=tuple(groups),
    )
