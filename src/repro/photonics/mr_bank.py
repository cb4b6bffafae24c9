"""MR banks and MR bank-array pairs (paper Fig. 1(c), Fig. 4, Fig. 5).

An :class:`MRBank` is a row of microrings, one per WDM carrier, that imprints
a vector of normalized values onto the carriers travelling through a shared
waveguide.  An :class:`MRBankPair` chains an *input* bank (imprinting
activations) and a *weight* bank (imprinting weights): each carrier exits
carrying the product ``a_i * w_i`` and the photodetector sums the carriers to
produce the dot product.

Attacks follow the paper's threat model: an actuation attack pushes one ring
off resonance (its carrier passes unattenuated, so the corresponding product
saturates); a thermal hotspot shifts every ring in the bank so each ring
attenuates its *neighbour's* carrier (the paper's Fig. 5), corrupting the
whole cluster of products.

Since the array-core refactor these classes are thin single-bank views over
the vectorized :mod:`repro.photonics.bank_array` state — no per-ring Python
objects exist in the computation path.  ``bank.mrs`` still exposes a per-ring
surface for inspection via :class:`RingView`, whose reads and writes go
straight into the backing arrays.  The seed per-ring-object implementation is
preserved in :mod:`repro.photonics.legacy` as the equivalence reference.
"""

from __future__ import annotations

import numpy as np

from repro.photonics.bank_array import (
    OFF_RESONANCE_LINEWIDTHS,
    BankArray,
    BankArrayPair,
    detuning_for_through_values,
    lorentzian_through,
)
from repro.photonics.noise_models import OpticalNoiseModel
from repro.photonics.photodetector import Photodetector
from repro.photonics.thermal_sensitivity import ThermalSensitivity
from repro.photonics.waveguide import WDMGrid
from repro.utils.validation import ValidationError

__all__ = ["MRBank", "MRBankPair", "RingView"]


class RingView:
    """Mutable per-ring view into a :class:`BankArray`.

    Exposes the :class:`~repro.photonics.microring.MicroringResonator`
    attribute surface (target wavelength, detunings, transmissions,
    imprint/attack operations) but stores nothing itself — every read and
    write resolves against the backing struct-of-arrays state, so mutating a
    view is equivalent to mutating the bank.
    """

    __slots__ = ("array", "bank", "index")

    def __init__(self, array: BankArray, bank: int, index: int):
        self.array = array
        self.bank = bank
        self.index = index

    # ----------------------------------------------------------- parameters
    @property
    def target_wavelength_nm(self) -> float:
        return float(self.array.target_nm[self.bank, self.index])

    @property
    def q_factor(self) -> float:
        return self.array.q_factor

    @property
    def extinction_ratio_db(self) -> float:
        return float(self.array.extinction_ratio_db[self.bank, self.index])

    @property
    def linewidth_nm(self) -> float:
        return self.target_wavelength_nm / self.q_factor

    # ---------------------------------------------------------------- state
    @property
    def weight_detuning_nm(self) -> float:
        return float(self.array.weight_detuning_nm[self.bank, self.index])

    @weight_detuning_nm.setter
    def weight_detuning_nm(self, value: float) -> None:
        self.array.weight_detuning_nm[self.bank, self.index] = float(value)

    @property
    def attack_detuning_nm(self) -> float:
        return float(self.array.attack_detuning_nm[self.bank, self.index])

    @attack_detuning_nm.setter
    def attack_detuning_nm(self, value: float) -> None:
        self.array.attack_detuning_nm[self.bank, self.index] = float(value)

    @property
    def current_resonance_nm(self) -> float:
        return self.target_wavelength_nm + self.weight_detuning_nm + self.attack_detuning_nm

    @property
    def imprinted_value(self) -> float:
        return float(self.array._imprinted[self.bank, self.index])

    # --------------------------------------------------------- transmission
    def through_transmission(self, wavelength_nm: float | np.ndarray) -> float | np.ndarray:
        t_min = float(self.array.t_min[self.bank, self.index])
        offset = np.asarray(wavelength_nm, dtype=float) - self.current_resonance_nm
        result = lorentzian_through(offset, self.linewidth_nm, t_min)
        if np.isscalar(wavelength_nm):
            return float(result)
        return result

    def drop_transmission(self, wavelength_nm: float | np.ndarray) -> float | np.ndarray:
        return 1.0 - self.through_transmission(wavelength_nm)

    def effective_value(self, carrier_wavelength_nm: float | None = None) -> float:
        carrier = (
            self.target_wavelength_nm if carrier_wavelength_nm is None else carrier_wavelength_nm
        )
        return float(self.through_transmission(carrier))

    def effective_drop_value(self, carrier_wavelength_nm: float | None = None) -> float:
        carrier = (
            self.target_wavelength_nm if carrier_wavelength_nm is None else carrier_wavelength_nm
        )
        return float(self.drop_transmission(carrier))

    # ------------------------------------------------------------ imprinting
    def _detuning_for(self, value: float) -> float:
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"imprinted value must be in [0, 1], got {value}")
        t_min = float(self.array.t_min[self.bank, self.index])
        return float(detuning_for_through_values(value, self.linewidth_nm, t_min))

    def imprint(self, value: float) -> None:
        """Program the ring's through-port transmission to ``value``."""
        self.weight_detuning_nm = self._detuning_for(float(value))
        self.array._imprinted[self.bank, self.index] = float(value)

    def imprint_drop(self, value: float) -> None:
        """Program the ring's drop-port transmission to ``value``."""
        self.weight_detuning_nm = self._detuning_for(1.0 - float(value))
        self.array._imprinted[self.bank, self.index] = float(value)

    # ---------------------------------------------------------------- attacks
    def apply_actuation_attack(self) -> None:
        self.attack_detuning_nm = OFF_RESONANCE_LINEWIDTHS * self.linewidth_nm

    def apply_thermal_shift(self, delta_lambda_nm: float) -> None:
        self.attack_detuning_nm = float(delta_lambda_nm)

    def clear_attack(self) -> None:
        self.attack_detuning_nm = 0.0


class MRBank:
    """A bank of microrings, one per channel of a WDM grid.

    Parameters
    ----------
    grid:
        WDM grid; the bank has exactly one ring per carrier.
    q_factor, extinction_ratio_db:
        Device parameters shared by all rings in the bank.
    encoding:
        ``"through"`` — the bank is a series of all-pass modulators and the
        encoded value is the through-port transmission of each carrier (used
        for the *input* banks); ``"drop"`` — the bank is an add-drop filter
        array and the encoded value is the fraction of each carrier coupled
        onto the drop bus feeding the photodetector (used for the *weight*
        banks).
    """

    def __init__(
        self,
        grid: WDMGrid,
        q_factor: float | None = None,
        extinction_ratio_db: float = 25.0,
        encoding: str = "through",
    ):
        self.array = BankArray(
            grid,
            banks=1,
            q_factor=q_factor,
            extinction_ratio_db=extinction_ratio_db,
            encoding=encoding,
        )
        self.grid = self.array.grid
        self.encoding = self.array.encoding

    @classmethod
    def _from_array(cls, array: BankArray) -> "MRBank":
        """Wrap an existing single-bank :class:`BankArray` (internal: lets
        :class:`MRBankPair` expose its banks through the MRBank surface)."""
        if array.banks != 1:
            raise ValidationError(
                f"MRBank views exactly one bank, got an array of {array.banks}"
            )
        bank = cls.__new__(cls)
        bank.array = array
        bank.grid = array.grid
        bank.encoding = array.encoding
        return bank

    def __len__(self) -> int:
        return self.array.rings

    @property
    def mrs(self) -> list[RingView]:
        """Per-ring views into the array state (reads and writes pass through)."""
        return [RingView(self.array, 0, index) for index in range(len(self))]

    # ------------------------------------------------------------- imprinting
    def imprint(self, values: np.ndarray) -> None:
        """Imprint a vector of normalized values (one per ring/carrier).

        Values must be finite and lie in ``[0, 1]``; NaN is rejected
        explicitly (it slips through plain range comparisons).
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self),):
            raise ValidationError(
                f"expected {len(self)} values, got shape {values.shape}"
            )
        self.array.imprint(values)

    def imprinted_values(self) -> np.ndarray:
        """The intended (programmed) values."""
        return self.array.imprinted_values()[0]

    # ----------------------------------------------------------------- attacks
    def apply_actuation_attack(self, indices: np.ndarray | list[int]) -> None:
        """Push the rings at ``indices`` off resonance."""
        self.array.apply_actuation_attack(indices)

    def apply_thermal_attack(
        self,
        delta_temperature_k: float | np.ndarray,
        sensitivity: ThermalSensitivity | None = None,
    ) -> None:
        """Shift every ring's resonance for a temperature rise (scalar or per-ring)."""
        deltas = np.broadcast_to(
            np.asarray(delta_temperature_k, dtype=float), (len(self),)
        )
        self.array.apply_thermal_attack(deltas, sensitivity)

    def clear_attacks(self) -> None:
        """Restore all rings to nominal operation."""
        self.array.clear_attacks()

    # ------------------------------------------------------------ transmission
    def transmission_matrix(self) -> np.ndarray:
        """Through transmission of every ring at every carrier: shape (rings, channels)."""
        return self.array.transmission_cube()[0]

    def channel_transmission(self) -> np.ndarray:
        """Per-carrier through transmission of the whole bank (ring cascade)."""
        return self.array.channel_transmission()[0]

    def channel_drop_fraction(self) -> np.ndarray:
        """Per-carrier fraction of power coupled onto the drop bus.

        Whatever a carrier does not transmit through the cascade has been
        coupled out by one of the rings, so the drop fraction is the
        complement of the cascade through transmission.
        """
        return self.array.channel_drop_fraction()[0]

    def effective_values(self) -> np.ndarray:
        """Values the bank actually applies per carrier (attacks included)."""
        return self.array.effective_values()[0]


class MRBankPair:
    """Input bank + weight bank computing an elementwise product per carrier.

    Parameters
    ----------
    size:
        Vector length (number of WDM carriers and of rings per bank).
    detector:
        Photodetector summing the carriers (ideal by default).
    noise_model:
        Optional analog non-ideality model applied to the carrier powers.
    """

    def __init__(
        self,
        size: int,
        grid: WDMGrid | None = None,
        detector: Photodetector | None = None,
        noise_model: OpticalNoiseModel | None = None,
        q_factor: float | None = None,
    ):
        self.pair = BankArrayPair(
            size,
            banks=1,
            grid=grid,
            detector=detector,
            noise_model=noise_model,
            q_factor=q_factor,
        )
        self.grid = self.pair.grid
        self.input_bank = MRBank._from_array(self.pair.input_bank)
        self.weight_bank = MRBank._from_array(self.pair.weight_bank)

    @property
    def size(self) -> int:
        return self.grid.num_channels

    @property
    def detector(self) -> Photodetector:
        return self.pair.detector

    @property
    def noise_model(self) -> OpticalNoiseModel | None:
        return self.pair.noise_model

    def program(self, inputs: np.ndarray, weights: np.ndarray) -> None:
        """Imprint normalized activations and weights onto the two banks."""
        self.input_bank.imprint(np.asarray(inputs, dtype=float))
        self.weight_bank.imprint(np.asarray(weights, dtype=float))

    def channel_products(self, input_power_w: float = 1.0) -> np.ndarray:
        """Per-carrier optical power reaching the detector (≈ ``a_i * w_i``).

        Each carrier is first attenuated to the activation value by the
        all-pass input bank and then a fraction equal to the weight value is
        coupled onto the drop bus by the add-drop weight bank.
        """
        return self.pair.channel_products(input_power_w)[0]

    def dot_product(self, input_power_w: float = 1.0) -> float:
        """Summed photodetector output normalized back to value units.

        With an ideal detector and no analog noise this equals
        ``sum_i a_i * w_i`` for the programmed normalized vectors.
        """
        return float(self.pair.dot_products(input_power_w)[0])

    def clear_attacks(self) -> None:
        """Clear attacks from both banks."""
        self.pair.clear_attacks()
