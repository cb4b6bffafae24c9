"""The CrossLight-style non-coherent optical CNN accelerator model.

* :mod:`repro.accelerator.config` — block geometries (CONV: 100 VDP units of
  20x20 MRs, FC: 60 VDP units of 150x150 MRs) and device parameters.
* :mod:`repro.accelerator.mapping` — weight-stationary mapping of a CNN's
  conv/FC weights onto the MR banks, including multi-round re-mapping when a
  model exceeds the block capacity.
* :mod:`repro.accelerator.inference` — functional inference of a mapped model
  under HT attacks (weights corrupted according to their MR assignment).
* :mod:`repro.accelerator.signal_sim` — detailed device-level simulation of
  small matrix-vector products used to validate the functional model.
* :mod:`repro.accelerator.power` — power/latency estimation of the photonic
  and electronic components.
"""

from repro.accelerator.config import AcceleratorConfig, BlockGeometry
from repro.accelerator.blocks import BankCoordinate, MRCoordinate, slot_to_coordinate, coordinate_to_slot
from repro.accelerator.mapping import MappedParameter, WeightMapping
from repro.accelerator.architecture import ONNAccelerator
from repro.accelerator.inference import AttackedInferenceEngine
from repro.accelerator.signal_sim import SignalLevelSimulator
from repro.accelerator.power import PowerModel, PowerReport

__all__ = [
    "AcceleratorConfig",
    "BlockGeometry",
    "BankCoordinate",
    "MRCoordinate",
    "slot_to_coordinate",
    "coordinate_to_slot",
    "MappedParameter",
    "WeightMapping",
    "ONNAccelerator",
    "AttackedInferenceEngine",
    "SignalLevelSimulator",
    "PowerModel",
    "PowerReport",
]
