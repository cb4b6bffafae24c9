"""Detailed device-level simulation of small optical matrix-vector products.

The functional inference path (:mod:`repro.accelerator.inference`) corrupts
weights analytically.  This module runs the same operations through the
actual photonic device models for arbitrary operand sizes, so integration
tests and the examples can validate that the analytic corruption model agrees
with the signal-level behaviour of the hardware.

Every product runs on the vectorized array-core
(:mod:`repro.photonics.bank_array`): matrix-vector products evaluate all rows
as one broadcast Lorentzian, and :meth:`SignalLevelSimulator.monte_carlo`
sweeps thousands of attack trials in one shot.  The seed per-ring object path
(:mod:`repro.photonics.legacy`) stays as the reference the tests check the
array-core against.
"""

from __future__ import annotations

import numpy as np

from repro.photonics.bank_array import BankArrayPair
from repro.photonics.dac_adc import ADC, DAC
from repro.photonics.thermal_sensitivity import ThermalSensitivity
from repro.photonics.waveguide import WDMGrid
from repro.utils.validation import ValidationError, check_positive_int

__all__ = ["SignalLevelSimulator"]


class SignalLevelSimulator:
    """Optical computation of normalized matrix-vector products.

    Parameters
    ----------
    vector_size:
        Operand length (number of WDM carriers per bank).
    channel_spacing_nm, q_factor:
        Device parameters (should match the accelerator configuration for
        apples-to-apples comparisons with the functional model).
    use_converters:
        Quantize operands with the DAC and outputs with the ADC.
    """

    def __init__(
        self,
        vector_size: int,
        channel_spacing_nm: float = 0.8,
        q_factor: float = 16_000.0,
        dac_bits: int = 8,
        adc_bits: int = 10,
        use_converters: bool = False,
    ):
        self.vector_size = check_positive_int(vector_size, "vector_size")
        self.grid = WDMGrid(num_channels=vector_size, spacing_nm=channel_spacing_nm)
        self.q_factor = q_factor
        self.dac = DAC(bits=dac_bits) if use_converters else None
        self.adc = ADC(bits=adc_bits) if use_converters else None
        self.sensitivity = ThermalSensitivity()
        #: Persistent array-core pair stacks keyed by bank count (1 for dot
        #: products, ``rows`` for matvecs) — rebuilt state, never reallocated
        #: ring objects.
        self._array_pairs: dict[int, BankArrayPair] = {}

    # ------------------------------------------------------------- plumbing
    def _array_pair(self, banks: int) -> BankArrayPair:
        if banks not in self._array_pairs:
            self._array_pairs[banks] = BankArrayPair(
                self.vector_size, banks=banks, grid=self.grid, q_factor=self.q_factor
            )
        return self._array_pairs[banks]

    def _quantize_operands(
        self, inputs: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.dac is not None:
            inputs = np.clip(self.dac.convert(inputs), 0.0, 1.0)
            weights = np.clip(self.dac.convert(weights), 0.0, 1.0)
        return inputs, weights

    def _quantize_outputs(self, results: np.ndarray | float) -> np.ndarray | float:
        if self.adc is None:
            return results
        normalized = np.asarray(results, dtype=float) / self.vector_size
        return np.asarray(self.adc.convert(normalized)) * self.vector_size

    # -------------------------------------------------------------- products
    def dot(
        self,
        inputs: np.ndarray,
        weights: np.ndarray,
        attacked_weight_mrs: list[int] | None = None,
        bank_delta_t_k: float = 0.0,
    ) -> float:
        """Optical dot product of two normalized vectors with optional attacks.

        Parameters
        ----------
        inputs, weights:
            Normalized operands in ``[0, 1]`` of length ``vector_size``.
        attacked_weight_mrs:
            Indices of weight-bank rings under actuation attack.
        bank_delta_t_k:
            Temperature rise of the weight bank (hotspot attack).
        """
        inputs = np.asarray(inputs, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if inputs.shape != (self.vector_size,) or weights.shape != (self.vector_size,):
            raise ValidationError(
                f"operands must have shape ({self.vector_size},), "
                f"got {inputs.shape} and {weights.shape}"
            )
        inputs, weights = self._quantize_operands(inputs, weights)
        pair = self._array_pair(1)
        pair.clear_attacks()
        pair.program(inputs, weights)
        if attacked_weight_mrs:
            pair.weight_bank.apply_actuation_attack(attacked_weight_mrs)
        if bank_delta_t_k > 0:
            pair.weight_bank.apply_thermal_attack(bank_delta_t_k, self.sensitivity)
        result = float(pair.dot_products()[0])
        return float(self._quantize_outputs(result))

    def matvec(
        self,
        matrix: np.ndarray,
        vector: np.ndarray,
        attacked_rows: dict[int, list[int]] | None = None,
        row_delta_t_k: dict[int, float] | None = None,
    ) -> np.ndarray:
        """Optical matrix-vector product, one bank pair per matrix row.

        ``attacked_rows`` maps row index → attacked weight-MR indices;
        ``row_delta_t_k`` maps row index → bank temperature rise.  Every row
        is evaluated in one vectorized pass.
        """
        matrix = np.asarray(matrix, dtype=float)
        vector = np.asarray(vector, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != self.vector_size:
            raise ValidationError(
                f"matrix must be (rows, {self.vector_size}), got {matrix.shape}"
            )
        attacked_rows = attacked_rows or {}
        row_delta_t_k = row_delta_t_k or {}
        if vector.shape != (self.vector_size,):
            raise ValidationError(
                f"vector must be ({self.vector_size},), got {vector.shape}"
            )
        vector, matrix = self._quantize_operands(vector, matrix)
        pair = self._array_pair(matrix.shape[0])
        outputs = pair.matvec(
            matrix,
            vector,
            attacked_rows=attacked_rows,
            row_delta_t_k=row_delta_t_k,
            sensitivity=self.sensitivity,
        )
        return np.asarray(self._quantize_outputs(outputs), dtype=float)

    # ------------------------------------------------------------ Monte Carlo
    def monte_carlo(
        self,
        inputs: np.ndarray,
        weights: np.ndarray,
        delta_t_k: np.ndarray | None = None,
        actuation_masks: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched attacked dot products: one result per Monte-Carlo trial.

        The operands are programmed once; per-trial attacks are applied as a
        ``(trials, 1, rings)`` batch axis over the array-core, so a
        thousand-trial thermal sweep is one broadcast evaluation instead of a
        thousand bank reconstructions.

        Parameters
        ----------
        inputs, weights:
            Normalized operands in ``[0, 1]`` of length ``vector_size``.
        delta_t_k:
            Per-trial weight-bank temperature rises, shape ``(trials,)`` (one
            hotspot per trial) or ``(trials, rings)`` (per-ring profiles).
        actuation_masks:
            Per-trial actuated weight-MR masks, shape ``(trials, rings)``.

        Returns
        -------
        ndarray of shape ``(trials,)``.
        """
        inputs = np.asarray(inputs, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if inputs.shape != (self.vector_size,) or weights.shape != (self.vector_size,):
            raise ValidationError(
                f"operands must have shape ({self.vector_size},), "
                f"got {inputs.shape} and {weights.shape}"
            )
        inputs, weights = self._quantize_operands(inputs, weights)
        if delta_t_k is not None:
            delta_t_k = np.asarray(delta_t_k, dtype=float)
            if delta_t_k.ndim == 2:  # (trials, rings) → (trials, 1 bank, rings)
                delta_t_k = delta_t_k[:, None, :]
        if actuation_masks is not None:
            actuation_masks = np.asarray(actuation_masks, dtype=bool)
            if actuation_masks.ndim == 2:
                actuation_masks = actuation_masks[:, None, :]
        pair = self._array_pair(1)
        pair.clear_attacks()
        pair.program(inputs, weights)
        outputs = pair.monte_carlo(
            delta_t_k=delta_t_k,
            actuation_masks=actuation_masks,
            sensitivity=self.sensitivity,
        )[:, 0]
        return np.asarray(self._quantize_outputs(outputs), dtype=float)

    # ---------------------------------------------------------------- checks
    def functional_equivalent_dot(
        self,
        inputs: np.ndarray,
        weights: np.ndarray,
        attacked_weight_mrs: list[int] | None = None,
        bank_delta_t_k: float = 0.0,
        off_resonance_magnitude: float = 0.002,
    ) -> float:
        """The analytic (functional) prediction for the same attacked product.

        Used by tests to check that the fast functional corruption model and
        the device-level simulation agree on small cases.  Mirrors
        :mod:`repro.attacks.injection`: an off-resonance weight ring couples
        ≈0 to the detector; a whole-channel thermal shift re-pairs carriers
        with the previous ring's magnitude; a residual shift scales the
        coupled magnitude down by the Lorentzian factor.
        """
        weights = np.asarray(weights, dtype=float).copy()
        inputs = np.asarray(inputs, dtype=float)
        if attacked_weight_mrs:
            weights[np.asarray(attacked_weight_mrs, dtype=int)] = off_resonance_magnitude
        if bank_delta_t_k > 0:
            shift_nm = self.sensitivity.resonance_shift_nm(
                self.grid.center_nm, bank_delta_t_k
            )
            spacing = self.grid.spacing_nm
            channel_shift = int(np.floor(shift_nm / spacing + 0.5))
            residual = shift_nm - channel_shift * spacing
            linewidth = self.grid.center_nm / self.q_factor
            shifted = np.full_like(weights, off_resonance_magnitude)
            if channel_shift == 0:
                shifted = weights.copy()
            elif channel_shift < self.vector_size:
                shifted[channel_shift:] = weights[: self.vector_size - channel_shift]
            lorentz = 1.0 / (1.0 + (2.0 * residual / linewidth) ** 2)
            weights = shifted * lorentz
        return float(np.dot(inputs, weights))
