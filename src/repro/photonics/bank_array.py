"""Vectorized array-core for MR banks (struct-of-arrays device state).

This is the library's MR-bank model (paper Fig. 1(c), Figs. 4-5).  A bank is
a row of microrings, one per WDM carrier, that imprints a vector of
normalized values onto the carriers of a shared waveguide; a bank pair chains
an all-pass *input* bank (activations) and an add-drop *weight* bank
(weights), so each carrier reaches the photodetector carrying ``a_i * w_i``.
An actuation attack pushes single rings off resonance; a thermal hotspot
shifts every ring of a bank, so each ring attenuates its neighbour's carrier.
One bank is ``BankArray(grid, banks=1)``, one bank pair
``BankArrayPair(size, banks=1)``.

A matrix-vector product needs ``rows`` bank pairs of ``cols`` rings each, and
a Monte-Carlo attack sweep re-evaluates all of them per trial, so instead of
one :class:`~repro.photonics.microring.MicroringResonator` object per ring
this module keeps the *same physics* — the Lorentzian through/drop response,
the weight-detuning encoding, the actuation and thermal attack semantics of
:mod:`repro.photonics.microring` — as plain ndarrays of shape
``(banks, rings)``:

* ``target_nm`` — per-ring trimmed carrier wavelengths,
* ``weight_detuning_nm`` — detunings programmed by :meth:`BankArray.imprint`,
* ``attack_detuning_nm`` — actuation / thermal-hotspot detunings,
* ``extinction_ratio_db`` — per-ring extinction floors.

All transmissions are computed as one broadcast Lorentzian over
``(..., banks, rings, channels)`` where the leading axes are optional batch
axes (Monte-Carlo trials).  There are no per-ring Python objects or loops in
the hot path; :class:`BankArrayPair` adds the input×weight product, a batched
:meth:`~BankArrayPair.matvec` and a batched :meth:`~BankArrayPair.monte_carlo`
attack sweep, which :class:`~repro.accelerator.signal_sim.SignalLevelSimulator`
drives with validated operands and optional DAC/ADC quantization.

The per-ring scalar model in :mod:`repro.photonics.microring` (and the seed
loop implementation preserved in :mod:`repro.photonics.legacy`) is the ground
truth this module is property-tested against: both paths must agree to 1e-9
(see ``tests/test_bank_array.py``).  Keep the formulas in the two modules in
sync.
"""

from __future__ import annotations

import numpy as np

from repro.photonics import constants
from repro.photonics.noise_models import OpticalNoiseModel
from repro.photonics.photodetector import Photodetector
from repro.photonics.thermal_sensitivity import ThermalSensitivity
from repro.photonics.waveguide import WDMGrid
from repro.utils.validation import ValidationError, check_positive_int

__all__ = [
    "BankArray",
    "BankArrayPair",
    "extinction_floor",
    "lorentzian_through",
    "detuning_for_through_values",
    "OFF_RESONANCE_LINEWIDTHS",
    "PARKED_LINEWIDTHS",
]

#: Actuation attacks park a ring this many linewidths off resonance
#: (mirrors :meth:`MicroringResonator.apply_actuation_attack`).
OFF_RESONANCE_LINEWIDTHS = 20.0

#: ``value = 1`` parks a ring this many linewidths away (≈98.5% transmission,
#: mirrors :meth:`MicroringResonator.detuning_for_value`).
PARKED_LINEWIDTHS = 4.0


# ------------------------------------------------------------ core formulas
def extinction_floor(extinction_ratio_db: float | np.ndarray) -> float | np.ndarray:
    """On-resonance through-port transmission floor ``T_min``."""
    return 10.0 ** (-np.asarray(extinction_ratio_db, dtype=float) / 10.0)


def lorentzian_through(
    offset_nm: np.ndarray,
    linewidth_nm: np.ndarray,
    t_min: np.ndarray,
) -> np.ndarray:
    """Through-port transmission for resonance offsets ``offset_nm``.

    ``T = 1 - (1 - T_min) / (1 + (2 * offset / FWHM)^2)`` — the same Lorentzian
    dip as :meth:`MicroringResonator.through_transmission`, broadcast over any
    shape.
    """
    detune = 2.0 * np.asarray(offset_nm, dtype=float)
    lorentz = 1.0 / (1.0 + (detune / linewidth_nm) ** 2)
    return 1.0 - (1.0 - t_min) * lorentz


def detuning_for_through_values(
    values: np.ndarray,
    linewidth_nm: np.ndarray,
    t_min: np.ndarray,
) -> np.ndarray:
    """Detuning [nm] so the through transmission equals ``values`` (elementwise).

    Vectorized inverse of the Lorentzian, mirroring
    :meth:`MicroringResonator.detuning_for_value`: values at or below the
    extinction floor sit fully on resonance, ``value = 1`` parks the ring
    :data:`PARKED_LINEWIDTHS` away, everything in between inverts the dip.
    """
    values = np.asarray(values, dtype=float)
    lorentz = (1.0 - values) / (1.0 - t_min)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(1.0 / lorentz - 1.0, 0.0)
        detuning = 0.5 * linewidth_nm * np.sqrt(ratio)
    detuning = np.where(values >= 1.0, PARKED_LINEWIDTHS * linewidth_nm, detuning)
    return np.where(values <= t_min, 0.0, detuning)


# ----------------------------------------------------------------- BankArray
class BankArray:
    """A stack of MR banks held as struct-of-arrays state.

    Parameters
    ----------
    grid:
        WDM grid shared by every bank; each bank has one ring per carrier.
    banks:
        Number of banks in the stack (rows of an optical matrix, Monte-Carlo
        lanes, ...).
    q_factor, extinction_ratio_db:
        Device parameters; ``extinction_ratio_db`` may be a scalar or any
        array broadcastable to ``(banks, rings)``.
    encoding:
        ``"through"`` — all-pass modulators whose value is each carrier's
        through-port transmission (the *input* banks); ``"drop"`` — add-drop
        filters whose value is the fraction of each carrier coupled onto the
        drop bus feeding the photodetector (the *weight* banks).
    """

    def __init__(
        self,
        grid: WDMGrid,
        banks: int = 1,
        q_factor: float | None = None,
        extinction_ratio_db: float | np.ndarray = 25.0,
        encoding: str = "through",
    ):
        if encoding not in ("through", "drop"):
            raise ValidationError(f"encoding must be 'through' or 'drop', got {encoding!r}")
        check_positive_int(banks, "banks")
        self.grid = grid
        self.banks = banks
        self.encoding = encoding
        self.q_factor = float(q_factor if q_factor is not None else constants.DEFAULT_MR_Q_FACTOR)
        shape = (banks, grid.num_channels)
        #: Carrier wavelengths cached once (the grid recomputes per access).
        self.wavelengths_nm = grid.wavelengths_nm
        self.target_nm = np.broadcast_to(self.wavelengths_nm, shape).copy()
        self.extinction_ratio_db = np.broadcast_to(
            np.asarray(extinction_ratio_db, dtype=float), shape
        ).copy()
        if np.any(self.extinction_ratio_db <= 0):
            raise ValidationError("extinction_ratio_db must be positive")
        self.weight_detuning_nm = np.zeros(shape)
        self.attack_detuning_nm = np.zeros(shape)
        self._imprinted = np.zeros(shape)

    # ------------------------------------------------------------- geometry
    @property
    def rings(self) -> int:
        return self.grid.num_channels

    @property
    def shape(self) -> tuple[int, int]:
        return (self.banks, self.rings)

    @property
    def linewidth_nm(self) -> np.ndarray:
        """Per-ring FWHM linewidth ``lambda / Q``, shape ``(banks, rings)``."""
        return self.target_nm / self.q_factor

    @property
    def t_min(self) -> np.ndarray:
        """Per-ring extinction floor, shape ``(banks, rings)``."""
        return extinction_floor(self.extinction_ratio_db)

    def _broadcast(self, values, name: str) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        try:
            return np.broadcast_to(values, self.shape)
        except ValueError:
            raise ValidationError(
                f"{name} with shape {values.shape} does not broadcast to {self.shape}"
            ) from None

    # ----------------------------------------------------------- imprinting
    def imprint(self, values: np.ndarray) -> None:
        """Imprint normalized values, one per (bank, ring).

        ``values`` must broadcast to ``(banks, rings)``, be finite and lie in
        ``[0, 1]``.  Non-finite operands (NaN propagated from upstream layers)
        are rejected explicitly — a ``NaN`` compares false against both bounds,
        so a plain range check would silently program the bank.
        """
        values = self._broadcast(values, "imprinted values")
        if not np.all(np.isfinite(values)):
            raise ValidationError("imprinted values must be finite (got NaN or inf)")
        if np.any(values < 0) or np.any(values > 1):
            raise ValidationError("imprinted values must lie in [0, 1]")
        encoded = 1.0 - values if self.encoding == "drop" else values
        self.weight_detuning_nm = np.ascontiguousarray(
            detuning_for_through_values(encoded, self.linewidth_nm, self.t_min)
        )
        self._imprinted = values.copy()

    def imprinted_values(self) -> np.ndarray:
        """The intended (programmed) values, shape ``(banks, rings)``."""
        return self._imprinted.copy()

    # -------------------------------------------------------------- attacks
    def actuation_detuning_nm(self) -> np.ndarray:
        """Off-resonance detuning an actuation attack applies, per ring."""
        return OFF_RESONANCE_LINEWIDTHS * self.linewidth_nm

    def apply_actuation_attack(
        self,
        indices: np.ndarray | list[int] | None = None,
        *,
        mask: np.ndarray | None = None,
    ) -> None:
        """Push rings off resonance: ``indices`` select rings in every bank,
        ``mask`` is a boolean array broadcastable to ``(banks, rings)``."""
        if indices is None and mask is None:
            return
        if mask is None:
            mask = np.zeros(self.shape, dtype=bool)
            mask[:, np.atleast_1d(np.asarray(indices, dtype=int))] = True
        else:
            mask = np.broadcast_to(np.asarray(mask, dtype=bool), self.shape)
        self.attack_detuning_nm = np.where(
            mask, self.actuation_detuning_nm(), self.attack_detuning_nm
        )

    def thermal_shift_nm(
        self,
        delta_temperature_k: float | np.ndarray,
        sensitivity: ThermalSensitivity | None = None,
    ) -> np.ndarray:
        """Eq. 2 resonance shift for a temperature rise, broadcast per ring.

        ``delta_temperature_k`` may carry leading batch axes; the result has
        shape ``broadcast(delta, (banks, rings))``.
        """
        sensitivity = sensitivity or ThermalSensitivity()
        deltas = np.asarray(delta_temperature_k, dtype=float)
        return np.asarray(sensitivity.resonance_shift_nm(self.target_nm, deltas))

    def apply_thermal_attack(
        self,
        delta_temperature_k: float | np.ndarray,
        sensitivity: ThermalSensitivity | None = None,
        *,
        where: np.ndarray | None = None,
    ) -> None:
        """Shift resonances for a temperature rise (scalar, per-bank via a
        ``(banks, 1)`` array, or per-ring).

        A thermal shift *replaces* any prior attack detuning on the affected
        rings, matching the per-ring object semantics
        (:meth:`MicroringResonator.apply_thermal_shift` overwrites the attack
        state).  ``where`` restricts the overwrite to a boolean subset of
        ``(banks, rings)``.
        """
        shift = self._broadcast(
            self.thermal_shift_nm(delta_temperature_k, sensitivity), "thermal shift"
        )
        if where is None:
            self.attack_detuning_nm = shift.copy()
        else:
            where = np.broadcast_to(np.asarray(where, dtype=bool), self.shape)
            self.attack_detuning_nm = np.where(where, shift, self.attack_detuning_nm)

    def clear_attacks(self) -> None:
        """Restore every ring to nominal operation."""
        self.attack_detuning_nm = np.zeros(self.shape)

    # --------------------------------------------------------- transmission
    def _resonance_nm(self, attack_detuning_nm: np.ndarray | None) -> np.ndarray:
        attack = self.attack_detuning_nm if attack_detuning_nm is None else (
            np.asarray(attack_detuning_nm, dtype=float)
        )
        return self.target_nm + self.weight_detuning_nm + attack

    def _through_cube(
        self,
        resonance: np.ndarray,
        linewidth_nm: np.ndarray | None = None,
        t_min: np.ndarray | None = None,
    ) -> np.ndarray:
        """Broadcast Lorentzian evaluated with in-place passes over one buffer.

        Arithmetically identical to :func:`lorentzian_through` (same operation
        order as the scalar ring model) but allocates a single
        ``(..., rings, channels)`` cube instead of one temporary per step —
        the Monte-Carlo hot path is memory-bound.
        """
        linewidth_nm = self.linewidth_nm if linewidth_nm is None else linewidth_nm
        t_min = self.t_min if t_min is None else t_min
        cube = np.subtract(self.wavelengths_nm, resonance[..., None])
        cube *= 2.0
        cube /= linewidth_nm[..., None]
        np.square(cube, out=cube)
        cube += 1.0
        np.reciprocal(cube, out=cube)
        cube *= 1.0 - t_min[..., None]
        np.subtract(1.0, cube, out=cube)
        return cube

    def transmission_cube(
        self, attack_detuning_nm: np.ndarray | None = None
    ) -> np.ndarray:
        """Through transmission of every ring at every carrier.

        Returns ``(..., banks, rings, channels)``; the optional
        ``attack_detuning_nm`` override may carry leading batch axes (it
        replaces the stored attack state, exactly as re-applying attacks per
        trial would).
        """
        return self._through_cube(self._resonance_nm(attack_detuning_nm))

    def _banks_uniform(self, resonance: np.ndarray) -> bool:
        """True when every bank row carries identical state (e.g. all input
        banks of a matvec imprint the same vector) — the cascade then only
        needs one row's cube."""
        return (
            resonance.ndim == 2
            and self.banks > 1
            and bool(np.all(resonance[1:] == resonance[:1]))
            and bool(np.all(self.extinction_ratio_db[1:] == self.extinction_ratio_db[:1]))
        )

    def channel_transmission(
        self, attack_detuning_nm: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-carrier through transmission of each bank cascade: ``(..., banks, channels)``."""
        resonance = self._resonance_nm(attack_detuning_nm)
        if self._banks_uniform(resonance):
            row = np.prod(
                self._through_cube(
                    resonance[:1], self.linewidth_nm[:1], self.t_min[:1]
                ),
                axis=-2,
            )
            return np.broadcast_to(row, (self.banks, self.grid.num_channels))
        return np.prod(self._through_cube(resonance), axis=-2)

    def channel_drop_fraction(
        self, attack_detuning_nm: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-carrier fraction of power coupled onto each bank's drop bus."""
        return 1.0 - self.channel_transmission(attack_detuning_nm)

    def effective_values(self) -> np.ndarray:
        """Values each bank actually applies per carrier (attacks included)."""
        if self.encoding == "drop":
            return self.channel_drop_fraction()
        return self.channel_transmission()


# ------------------------------------------------------------- BankArrayPair
class BankArrayPair:
    """A stack of input×weight bank pairs computing batched dot products.

    The input banks are all-pass (through encoding) and imprint activations;
    the weight banks are add-drop (drop encoding) and imprint weights.  Bank
    ``b`` computes ``sum_i inputs[b, i] * weights[b, i]`` optically, so with
    ``banks = rows`` the pair stack is an optical matrix-vector engine.

    Parameters
    ----------
    size:
        Carriers (rings) per bank.
    banks:
        Number of bank pairs in the stack.
    detector:
        Photodetector summing each bank's carriers (ideal by default).
    noise_model:
        Optional analog non-ideality model applied to the carrier powers.
    """

    def __init__(
        self,
        size: int,
        banks: int = 1,
        grid: WDMGrid | None = None,
        detector: Photodetector | None = None,
        noise_model: OpticalNoiseModel | None = None,
        q_factor: float | None = None,
        extinction_ratio_db: float | np.ndarray = 25.0,
    ):
        check_positive_int(size, "size")
        self.grid = grid or WDMGrid(num_channels=size)
        if self.grid.num_channels != size:
            raise ValidationError(
                f"grid has {self.grid.num_channels} channels but size={size}"
            )
        self.input_bank = BankArray(
            self.grid, banks, q_factor=q_factor,
            extinction_ratio_db=extinction_ratio_db, encoding="through",
        )
        self.weight_bank = BankArray(
            self.grid, banks, q_factor=q_factor,
            extinction_ratio_db=extinction_ratio_db, encoding="drop",
        )
        self.detector = detector or Photodetector()
        self.noise_model = noise_model

    @property
    def size(self) -> int:
        return self.grid.num_channels

    @property
    def banks(self) -> int:
        return self.input_bank.banks

    def program(self, inputs: np.ndarray, weights: np.ndarray) -> None:
        """Imprint normalized activations and weights onto the bank stacks."""
        self.input_bank.imprint(inputs)
        self.weight_bank.imprint(weights)

    def clear_attacks(self) -> None:
        self.input_bank.clear_attacks()
        self.weight_bank.clear_attacks()

    # ------------------------------------------------------------- products
    def channel_products(
        self,
        input_power_w: float = 1.0,
        weight_attack_detuning_nm: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-carrier optical power reaching each detector: ``(..., banks, channels)``."""
        powers = float(input_power_w) * self.input_bank.channel_transmission()
        powers = powers * self.weight_bank.channel_drop_fraction(weight_attack_detuning_nm)
        if self.noise_model is not None:
            powers = self.noise_model.apply_all(powers, num_mrs=2 * self.size)
        return powers

    def _detect(self, products: np.ndarray, input_power_w: float) -> np.ndarray:
        """Batched photodetection normalized back to value units.

        Mirrors :meth:`Photodetector.detect` + the bank-pair normalization:
        sum the (clipped) carrier powers, convert to photocurrent, undo launch
        power and responsivity.  Detector noise (when enabled) is drawn one
        sample per bank in row-major order, matching the draw order of
        repeated scalar ``detect`` calls.
        """
        total = np.sum(np.clip(products, 0.0, None), axis=-1)
        current = self.detector.responsivity_a_per_w * total + self.detector.dark_current_a
        if self.detector.enable_noise:
            noise = np.array(
                [self.detector._noise_current(c) for c in np.ravel(current)]
            ).reshape(np.shape(current))
            current = current + noise
        scale = input_power_w * self.detector.responsivity_a_per_w
        return (current - self.detector.dark_current_a) / scale

    def dot_products(self, input_power_w: float = 1.0) -> np.ndarray:
        """All banks' dot products in value units, shape ``(banks,)``."""
        return self._detect(self.channel_products(input_power_w), input_power_w)

    # --------------------------------------------------------------- matvec
    def matvec(
        self,
        matrix: np.ndarray,
        vector: np.ndarray,
        attacked_rows: dict[int, list[int]] | None = None,
        row_delta_t_k: dict[int, float] | None = None,
        sensitivity: ThermalSensitivity | None = None,
        input_power_w: float = 1.0,
    ) -> np.ndarray:
        """Optical ``matrix @ vector`` with one bank pair per matrix row.

        ``matrix`` must have shape ``(banks, size)``; the vector is imprinted
        on every input bank.  ``attacked_rows`` maps row → actuated weight-MR
        indices and ``row_delta_t_k`` maps row → bank temperature rise; a
        row's thermal attack overwrites its actuation detunings, matching the
        sequential attack application of the object path.
        """
        matrix = np.asarray(matrix, dtype=float)
        vector = np.asarray(vector, dtype=float)
        if matrix.shape != (self.banks, self.size):
            raise ValidationError(
                f"matrix must be ({self.banks}, {self.size}), got {matrix.shape}"
            )
        if vector.shape != (self.size,):
            raise ValidationError(
                f"vector must be ({self.size},), got {vector.shape}"
            )
        self.clear_attacks()
        self.program(vector, matrix)
        if attacked_rows:
            mask = np.zeros((self.banks, self.size), dtype=bool)
            for row, indices in attacked_rows.items():
                if indices:
                    mask[int(row), np.asarray(indices, dtype=int)] = True
            self.weight_bank.apply_actuation_attack(mask=mask)
        if row_delta_t_k:
            deltas = np.zeros((self.banks, 1))
            for row, delta in row_delta_t_k.items():
                deltas[int(row), 0] = float(delta)
            self.weight_bank.apply_thermal_attack(
                deltas, sensitivity, where=deltas > 0
            )
        return self.dot_products(input_power_w)

    # ---------------------------------------------------------- Monte Carlo
    def monte_carlo(
        self,
        delta_t_k: np.ndarray | None = None,
        actuation_masks: np.ndarray | None = None,
        sensitivity: ThermalSensitivity | None = None,
        input_power_w: float = 1.0,
        max_chunk_elements: int = 1 << 21,
    ) -> np.ndarray:
        """Batched attacked dot products over leading trial axes.

        For each trial the weight banks' attack state is rebuilt from scratch
        (the pair's stored attack state is the per-trial baseline): actuation
        masks push the selected rings :data:`OFF_RESONANCE_LINEWIDTHS` off
        resonance, then positive thermal deltas overwrite the affected rings
        — the same precedence as applying the attacks sequentially per trial.

        Parameters
        ----------
        delta_t_k:
            Temperature rises.  Axes are anchored at the *leading* side:
            ``(trials,)`` applies one temperature to every bank and ring of a
            trial, ``(trials, banks)`` one per bank, and
            ``(trials, banks, rings)`` one per ring; singleton axes broadcast
            (so ``(trials, 1, rings)`` is a per-ring profile shared by all
            banks).  Shapes that do not broadcast to ``(trials, banks,
            rings)`` raise :class:`ValidationError`.
        actuation_masks:
            Boolean masks with the same axis convention.
        max_chunk_elements:
            Upper bound on the ``trials*banks*rings*channels`` transmission
            cube held at once; larger sweeps are processed in trial chunks so
            the working set stays cache-resident (the in-place Lorentzian is
            memory-bound) without changing results.  The default keeps the
            cube around 16 MB.

        Returns
        -------
        ndarray of shape ``(trials, banks)``.
        """
        if delta_t_k is None and actuation_masks is None:
            raise ValidationError(
                "monte_carlo needs delta_t_k and/or actuation_masks"
            )
        bank_shape = (self.banks, self.size)

        def as_trial_axes(array: np.ndarray, dtype, name: str) -> np.ndarray:
            """Pad to (trials, banks, rings): missing trailing axes broadcast."""
            array = np.asarray(array, dtype=dtype)
            given_shape = array.shape
            if array.ndim > 3:
                raise ValidationError(
                    f"{name} must have at most 3 dims, got shape {given_shape}"
                )
            array = array.reshape(given_shape + (1,) * (3 - array.ndim))
            try:
                np.broadcast_shapes(array.shape[1:], bank_shape)
            except ValueError:
                raise ValidationError(
                    f"{name} with shape {given_shape} does not broadcast to "
                    f"(trials,) + {bank_shape}: after the leading trials axis, "
                    f"axes are (banks, rings)"
                ) from None
            return array

        trials = None
        if delta_t_k is not None:
            delta_t_k = as_trial_axes(delta_t_k, float, "delta_t_k")
            trials = delta_t_k.shape[0]
        if actuation_masks is not None:
            actuation_masks = as_trial_axes(actuation_masks, bool, "actuation_masks")
            if trials is not None and 1 not in (trials, actuation_masks.shape[0]) \
                    and actuation_masks.shape[0] != trials:
                raise ValidationError(
                    f"trial axes disagree: {actuation_masks.shape[0]} masks "
                    f"vs {trials} temperature rows"
                )
            trials = max(trials or 1, actuation_masks.shape[0])

        # Per-trial attack detunings, built on top of the stored attack state.
        attack = np.broadcast_to(
            self.weight_bank.attack_detuning_nm, (trials,) + bank_shape
        )
        if actuation_masks is not None:
            masks = np.broadcast_to(actuation_masks, (trials,) + bank_shape)
            attack = np.where(
                masks, self.weight_bank.actuation_detuning_nm(), attack
            )
        if delta_t_k is not None:
            deltas = np.broadcast_to(delta_t_k, (trials,) + bank_shape)
            shift = self.weight_bank.thermal_shift_nm(deltas, sensitivity)
            attack = np.where(deltas > 0, shift, attack)

        # The input banks carry no per-trial attacks: their transmission is
        # trial-invariant and computed once.
        input_ct = self.input_bank.channel_transmission()  # (banks, channels)

        cube_elements = self.banks * self.size * self.grid.num_channels
        chunk = max(1, int(max_chunk_elements // max(cube_elements, 1)))
        outputs = np.empty((trials, self.banks))
        for start in range(0, trials, chunk):
            stop = min(start + chunk, trials)
            drop = self.weight_bank.channel_drop_fraction(attack[start:stop])
            products = float(input_power_w) * input_ct * drop
            if self.noise_model is not None:
                products = self.noise_model.apply_all(products, num_mrs=2 * self.size)
            outputs[start:stop] = self._detect(products, input_power_w)
        return outputs
