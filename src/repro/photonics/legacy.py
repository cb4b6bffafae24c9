"""Seed object-per-ring MR bank implementation (reference path).

The original loop-based MR bank and bank pair: one
:class:`~repro.photonics.microring.MicroringResonator` object per ring, with
per-ring Python loops for imprinting, attacks and transmission.  The library
computes on the vectorized array-core (:mod:`repro.photonics.bank_array`);
this module keeps the object path alive as **ground truth**: the array-core
equivalence property tests compare
:class:`~repro.photonics.bank_array.BankArray`,
:class:`~repro.photonics.bank_array.BankArrayPair` and
:class:`~repro.accelerator.signal_sim.SignalLevelSimulator` against this path
to 1e-9 (``tests/test_bank_array.py``, ``tests/test_accelerator.py``).

Do not use these classes in new code; they are intentionally slow.
"""

from __future__ import annotations

import numpy as np

from repro.photonics.microring import MicroringResonator
from repro.photonics.noise_models import OpticalNoiseModel
from repro.photonics.photodetector import Photodetector
from repro.photonics.thermal_sensitivity import ThermalSensitivity
from repro.photonics.waveguide import WDMGrid
from repro.utils.validation import ValidationError, check_positive_int

__all__ = ["ObjectMRBank", "ObjectMRBankPair"]


class ObjectMRBank:
    """Seed loop-based bank of microrings, one per channel of a WDM grid."""

    def __init__(
        self,
        grid: WDMGrid,
        q_factor: float | None = None,
        extinction_ratio_db: float = 25.0,
        encoding: str = "through",
    ):
        if encoding not in ("through", "drop"):
            raise ValidationError(f"encoding must be 'through' or 'drop', got {encoding!r}")
        self.grid = grid
        self.encoding = encoding
        kwargs = {"extinction_ratio_db": extinction_ratio_db}
        if q_factor is not None:
            kwargs["q_factor"] = q_factor
        self.mrs: list[MicroringResonator] = [
            MicroringResonator(target_wavelength_nm=float(wl), **kwargs)
            for wl in grid.wavelengths_nm
        ]

    def __len__(self) -> int:
        return len(self.mrs)

    # ------------------------------------------------------------- imprinting
    def imprint(self, values: np.ndarray) -> None:
        """Imprint a vector of normalized values (one per ring/carrier)."""
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.mrs),):
            raise ValidationError(
                f"expected {len(self.mrs)} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("imprinted values must be finite (got NaN or inf)")
        if np.any(values < 0) or np.any(values > 1):
            raise ValidationError("imprinted values must lie in [0, 1]")
        for ring, value in zip(self.mrs, values):
            if self.encoding == "drop":
                ring.imprint_drop(float(value))
            else:
                ring.imprint(float(value))

    def imprinted_values(self) -> np.ndarray:
        return np.array([ring.imprinted_value for ring in self.mrs])

    # ----------------------------------------------------------------- attacks
    def apply_actuation_attack(self, indices: np.ndarray | list[int]) -> None:
        for index in np.atleast_1d(np.asarray(indices, dtype=int)):
            self.mrs[int(index)].apply_actuation_attack()

    def apply_thermal_attack(
        self,
        delta_temperature_k: float | np.ndarray,
        sensitivity: ThermalSensitivity | None = None,
    ) -> None:
        sensitivity = sensitivity or ThermalSensitivity()
        deltas = np.broadcast_to(np.asarray(delta_temperature_k, dtype=float), (len(self.mrs),))
        for ring, delta_t in zip(self.mrs, deltas):
            shift = sensitivity.resonance_shift_nm(ring.target_wavelength_nm, float(delta_t))
            ring.apply_thermal_shift(shift)

    def clear_attacks(self) -> None:
        for ring in self.mrs:
            ring.clear_attack()

    # ------------------------------------------------------------ transmission
    def transmission_matrix(self) -> np.ndarray:
        """Through transmission of every ring at every carrier: (rings, channels)."""
        wavelengths = self.grid.wavelengths_nm
        return np.array([ring.through_transmission(wavelengths) for ring in self.mrs])

    def channel_transmission(self) -> np.ndarray:
        return np.prod(self.transmission_matrix(), axis=0)

    def channel_drop_fraction(self) -> np.ndarray:
        return 1.0 - self.channel_transmission()

    def effective_values(self) -> np.ndarray:
        if self.encoding == "drop":
            return self.channel_drop_fraction()
        return self.channel_transmission()


class ObjectMRBankPair:
    """Seed input bank + weight bank pair over per-ring objects."""

    def __init__(
        self,
        size: int,
        grid: WDMGrid | None = None,
        detector: Photodetector | None = None,
        noise_model: OpticalNoiseModel | None = None,
        q_factor: float | None = None,
    ):
        check_positive_int(size, "size")
        self.grid = grid or WDMGrid(num_channels=size)
        if self.grid.num_channels != size:
            raise ValidationError(
                f"grid has {self.grid.num_channels} channels but size={size}"
            )
        self.input_bank = ObjectMRBank(self.grid, q_factor=q_factor, encoding="through")
        self.weight_bank = ObjectMRBank(self.grid, q_factor=q_factor, encoding="drop")
        self.detector = detector or Photodetector()
        self.noise_model = noise_model

    @property
    def size(self) -> int:
        return self.grid.num_channels

    def program(self, inputs: np.ndarray, weights: np.ndarray) -> None:
        self.input_bank.imprint(inputs)
        self.weight_bank.imprint(weights)

    def channel_products(self, input_power_w: float = 1.0) -> np.ndarray:
        powers = np.full(self.size, float(input_power_w))
        powers = powers * self.input_bank.channel_transmission()
        powers = powers * self.weight_bank.channel_drop_fraction()
        if self.noise_model is not None:
            powers = self.noise_model.apply_all(powers, num_mrs=2 * self.size)
        return powers

    def dot_product(self, input_power_w: float = 1.0) -> float:
        products = self.channel_products(input_power_w)
        current = self.detector.detect(products)
        scale = input_power_w * self.detector.responsivity_a_per_w
        return float((current - self.detector.dark_current_a) / scale)

    def clear_attacks(self) -> None:
        self.input_bank.clear_attacks()
        self.weight_bank.clear_attacks()
