"""Thermal simulation substrate (substitute for the HotSpot tool).

The paper uses HotSpot 7.0 to produce the Fig. 6 heatmap of a hotspot attack
on the CONV block.  This subpackage provides the same capability with a
steady-state finite-difference heat-diffusion solver over a floorplan of MR
banks:

* :mod:`repro.thermal.floorplan` — geometric layout of the MR banks of an
  accelerator block on the chip surface, and its cached tiling of a
  thermal grid;
* :mod:`repro.thermal.grid_solver` — steady-state 2-D diffusion solver with
  per-cell power injection and convective sinking to ambient;
* :mod:`repro.thermal.heatmap` — assembles attacked-heater power maps,
  solves for the temperature field and reports per-bank / per-MR
  temperature rises.
"""

from repro.thermal.floorplan import BankPlacement, Floorplan
from repro.thermal.grid_solver import GridThermalSolver, ThermalSolverConfig
from repro.thermal.heatmap import HeatmapResult, simulate_hotspot_attack

__all__ = [
    "Floorplan",
    "BankPlacement",
    "GridThermalSolver",
    "ThermalSolverConfig",
    "HeatmapResult",
    "simulate_hotspot_attack",
]
