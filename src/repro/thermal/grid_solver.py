"""Steady-state 2-D thermal grid solver (HotSpot substitute).

The die surface is discretized into a uniform grid of cells.  Each cell
exchanges heat laterally with its four neighbours (conduction through the
silicon/oxide stack) and vertically with the heat sink (convection to
ambient).  In steady state the balance per cell is::

    k_lat * sum(T_neighbour - T_cell) + P_cell - g_sink * (T_cell - T_ambient) = 0

which yields a sparse linear system ``A T = b`` solved with SciPy.  This
reproduces the qualitative behaviour the attack model needs from HotSpot:
attacked heaters create localized hotspots whose temperature decays with
distance, heating neighbouring MR banks less than the targeted bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import factorized

from repro.photonics import constants
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["ThermalSolverConfig", "GridThermalSolver"]


@dataclass(frozen=True)
class ThermalSolverConfig:
    """Configuration of the thermal grid solver.

    Attributes
    ----------
    grid_rows, grid_cols:
        Thermal grid resolution.
    lateral_conductance_w_per_k:
        Conductance between adjacent cells.
    die_sink_conductance_w_per_k:
        *Total* conductance from the die to the heat sink / ambient; it is
        spread uniformly over the grid cells, which keeps the solution
        approximately independent of the grid resolution.
    ambient_temperature_k:
        Heat-sink temperature.
    """

    grid_rows: int = 64
    grid_cols: int = 64
    lateral_conductance_w_per_k: float = 2.0e-3
    die_sink_conductance_w_per_k: float = 2.3
    ambient_temperature_k: float = constants.NOMINAL_OPERATING_TEMPERATURE_K

    def __post_init__(self) -> None:
        check_positive_int(self.grid_rows, "grid_rows")
        check_positive_int(self.grid_cols, "grid_cols")
        check_positive(self.lateral_conductance_w_per_k, "lateral_conductance_w_per_k")
        check_positive(self.die_sink_conductance_w_per_k, "die_sink_conductance_w_per_k")
        check_positive(self.ambient_temperature_k, "ambient_temperature_k")

    @property
    def cell_sink_conductance_w_per_k(self) -> float:
        """Per-cell conductance to ambient."""
        return self.die_sink_conductance_w_per_k / (self.grid_rows * self.grid_cols)


class GridThermalSolver:
    """Steady-state finite-difference heat solver on a rectangular grid."""

    def __init__(self, config: ThermalSolverConfig | None = None):
        self.config = config or ThermalSolverConfig()
        self._solver_cache: dict[tuple[int, int], object] = {}

    def solve(self, power_map_w: np.ndarray) -> np.ndarray:
        """Solve for the steady-state temperature field [K].

        Parameters
        ----------
        power_map_w:
            Per-cell dissipated power [W]; shape must match the configured
            grid (or any 2-D shape, which then defines the grid).

        The conduction matrix depends only on the grid shape, so its sparse
        LU factorization is computed once per shape *per solver instance*
        (``_solver_cache``) and reused for every subsequent power map on
        that instance; repeated solves reduce to two triangular
        substitutions.  Attack sampling gets the reuse across calls because
        :func:`repro.attacks.hotspot.solve_bank_heat` keeps one solver per
        process for the current :class:`ThermalSolverConfig`; a caller that
        builds a fresh solver per power map refactorizes every time.  Attack
        sampling also builds its power maps from the floorplan's cached
        tiling of the grid (:meth:`repro.thermal.floorplan.Floorplan.tiling`),
        so beyond this solve a sampled block does no per-bank Python work.
        """
        power = np.asarray(power_map_w, dtype=float)
        if power.ndim != 2:
            raise ValueError(f"power_map_w must be 2-D, got shape {power.shape}")
        if np.any(power < 0):
            raise ValueError("power_map_w must be non-negative")
        rows, cols = power.shape
        solve_system = self._factorized_system(rows, cols)
        cfg = self.config
        g_sink = cfg.die_sink_conductance_w_per_k / (rows * cols)
        rhs = power.ravel() + g_sink * cfg.ambient_temperature_k
        return solve_system(rhs).reshape(rows, cols)

    def temperature_rise(self, power_map_w: np.ndarray) -> np.ndarray:
        """Temperature rise above ambient [K] for a power map."""
        return self.solve(power_map_w) - self.config.ambient_temperature_k

    def _factorized_system(self, rows: int, cols: int):
        """Return (and cache) the factorized conduction system for a shape."""
        key = (rows, cols)
        if key not in self._solver_cache:
            self._solver_cache[key] = factorized(self._build_system(rows, cols).tocsc())
        return self._solver_cache[key]

    def _build_system(self, rows: int, cols: int):
        """Assemble the conduction matrix for a grid shape (vectorized COO).

        Off-diagonals couple each cell to its 4-neighbours with ``-k_lat``;
        the diagonal carries the per-cell sink conductance plus ``k_lat`` per
        existing neighbour (cells on an edge have fewer).
        """
        cfg = self.config
        size = rows * cols
        k_lat = cfg.lateral_conductance_w_per_k
        g_sink = cfg.die_sink_conductance_w_per_k / size

        index = np.arange(size).reshape(rows, cols)
        pairs = [
            (index[:, :-1].ravel(), index[:, 1:].ravel()),  # horizontal edges
            (index[:-1, :].ravel(), index[1:, :].ravel()),  # vertical edges
        ]
        left = np.concatenate([a for a, _ in pairs] + [b for _, b in pairs])
        right = np.concatenate([b for _, b in pairs] + [a for a, _ in pairs])

        neighbours = np.zeros(size)
        np.add.at(neighbours, left, 1.0)

        rows_idx = np.concatenate([left, index.ravel()])
        cols_idx = np.concatenate([right, index.ravel()])
        data = np.concatenate(
            [np.full(left.size, -k_lat), g_sink + k_lat * neighbours]
        )
        return coo_matrix((data, (rows_idx, cols_idx)), shape=(size, size))
