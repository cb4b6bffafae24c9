"""Device-level models of the non-coherent silicon-photonic substrate.

The modules here model the components highlighted in the paper's Fig. 2:

* laser source (:mod:`repro.photonics.laser`),
* waveguides and the WDM channel grid (:mod:`repro.photonics.waveguide`),
* microring resonators and their tuning circuits
  (:mod:`repro.photonics.microring`, :mod:`repro.photonics.tuning`,
  :mod:`repro.photonics.thermal_sensitivity`),
* photodetectors and data converters (:mod:`repro.photonics.photodetector`,
  :mod:`repro.photonics.dac_adc`),
* MR banks and bank pairs (:mod:`repro.photonics.bank_array`): one
  vectorized struct-of-arrays model of ``(banks, rings)`` state, which
  :class:`~repro.accelerator.signal_sim.SignalLevelSimulator` drives for
  dot products, matrix-vector products and Monte-Carlo attack sweeps; the
  seed per-ring-object path it is tested against lives in
  :mod:`repro.photonics.legacy`.
"""

from repro.photonics import constants
from repro.photonics.bank_array import BankArray, BankArrayPair
from repro.photonics.microring import MicroringResonator, MRState
from repro.photonics.thermal_sensitivity import ThermalSensitivity, resonance_shift
from repro.photonics.tuning import ElectroOpticTuner, ThermoOpticTuner, TuningCircuit
from repro.photonics.waveguide import WDMGrid, Waveguide
from repro.photonics.laser import LaserSource
from repro.photonics.photodetector import Photodetector
from repro.photonics.dac_adc import ADC, DAC
from repro.photonics.noise_models import OpticalNoiseModel

__all__ = [
    "constants",
    "MicroringResonator",
    "MRState",
    "ThermalSensitivity",
    "resonance_shift",
    "TuningCircuit",
    "ElectroOpticTuner",
    "ThermoOpticTuner",
    "Waveguide",
    "WDMGrid",
    "LaserSource",
    "Photodetector",
    "DAC",
    "ADC",
    "BankArray",
    "BankArrayPair",
    "OpticalNoiseModel",
]
