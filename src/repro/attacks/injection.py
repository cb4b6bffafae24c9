"""Attack injection: converting an attack outcome into corrupted weights.

The functional attack model mirrors what the physical substrate does to each
mapped weight.  Weight banks use the add-drop configuration: each ring
couples a fraction of its carrier — equal to the normalized weight magnitude
— onto the drop bus feeding the photodetector (see
:class:`repro.photonics.mr_bank.MRBank` with ``encoding="drop"``).

Outcomes describe the substrate corruption with kind-agnostic
:class:`~repro.attacks.base.BlockEffect` primitives, merged here in a fixed
physical order:

* **Slot floors** (``slots_off``, e.g. actuation attacks) — the MR is pushed
  far off resonance, so it no longer couples its carrier to the detector:
  the normalized magnitude collapses to ≈0 regardless of the programmed
  value (the electronic sign path is unaffected but irrelevant once the
  magnitude is gone).
* **Bank temperature rises** (``bank_delta_t``, e.g. hotspot and crosstalk
  attacks) — every MR in an affected bank shifts its resonance by
  ``delta_lambda`` (Eq. 2).  A shift of ``k`` whole channels re-pairs each
  ring with the carrier ``k`` positions later, so carrier ``j`` is dropped
  with the magnitude programmed for column ``j - k`` (the first ``k``
  carriers are dropped by no ring and contribute ≈0).  The sub-channel
  residual shift detunes the ring partially, scaling the coupled magnitude
  down following the Lorentzian drop-port response.  Banks whose heaters the
  trojan does not control directly (``attacked_banks``) are partially
  protected by their own thermo-optic tuning loops, which can compensate a
  bounded temperature rise.
* **Carrier scales** (``col_scale``, e.g. laser-power attacks) — the
  detected magnitude on a wavelength channel scales with that carrier's
  optical power, *after* any thermal re-pairing: the depletion follows the
  carrier, not the ring.

Injection operates on the weight-stationary mapping: a compromised MR corrupts
the weight it hosts in *every* mapping round, which is how a fixed number of
trojans damages large multi-round models disproportionately.

Two entry points share the same vectorized kernels:

* :func:`corrupted_state_dict` — one outcome → one full state dict (the
  reference per-scenario path).
* :func:`corrupted_state_batch` — ``S`` outcomes → one ``(S, …)`` stacked
  array per *mapped* parameter, computed with a single broadcast pass per
  tensor instead of ``S`` sequential state-dict rebuilds.  The stacked
  arrays feed the ensemble-weight forward path in :mod:`repro.nn.ensemble`.

:func:`touched_parameters` reads the batch kernel's per-block tables to say
which mapped parameters each outcome can change, without corrupting any.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import numpy as np

from repro.accelerator.mapping import MappedParameter, WeightMapping
from repro.attacks.base import AttackOutcome, BlockEffect
from repro.nn.module import Module
from repro.photonics import constants
from repro.photonics.thermal_sensitivity import ThermalSensitivity
from repro.utils.validation import ValidationError

__all__ = [
    "corrupted_state_dict",
    "corrupted_state_batch",
    "touched_parameters",
    "attack_context",
    "OFF_RESONANCE_MAGNITUDE",
    "DEFAULT_TUNING_COMPENSATION_K",
]

#: Normalized magnitude coupled to the detector by an off-resonance ring
#: (drop-port transmission several linewidths away from the carrier).
OFF_RESONANCE_MAGNITUDE = 0.002

#: Temperature rise [K] a non-attacked bank's own thermo-optic tuning loop can
#: compensate before its rings start to drift (paper §III.B.2: "the tuning
#: circuit is usually designed to manage minor temperature fluctuations").
DEFAULT_TUNING_COMPENSATION_K = 8.0


def corrupted_state_dict(
    model: Module,
    mapping: WeightMapping,
    outcome: AttackOutcome,
    sensitivity: ThermalSensitivity | None = None,
    tuning_compensation_k: float = DEFAULT_TUNING_COMPENSATION_K,
    state: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Return a full state dict with the attack applied to the mapped weights.

    Unmapped parameters (biases, batch-norm) are returned unchanged.  When a
    clean ``state`` snapshot is supplied it is used as the base instead of
    re-copying ``model.state_dict()``; the returned dict is a fresh mapping
    but its unmapped entries share storage with ``state``.
    """
    sensitivity = sensitivity or ThermalSensitivity()
    state = model.state_dict() if state is None else dict(state)
    for mapped in mapping.parameters:
        original = state[mapped.name]
        corrupted = _corrupt_tensor(
            original, mapped, mapping, outcome, sensitivity, tuning_compensation_k
        )
        state[mapped.name] = corrupted
    return state


def corrupted_state_batch(
    model: Module,
    mapping: WeightMapping,
    outcomes: Sequence[AttackOutcome],
    sensitivity: ThermalSensitivity | None = None,
    tuning_compensation_k: float = DEFAULT_TUNING_COMPENSATION_K,
    state: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Stacked corruption of ``S`` attack outcomes in one broadcast pass.

    Returns ``{name: array of shape (S, *param.shape)}`` for every *mapped*
    parameter; unmapped parameters (biases, batch-norm) are never corrupted
    and are simply absent from the result.  Row ``s`` of every stacked array
    is bit-identical to what :func:`corrupted_state_dict` produces for
    ``outcomes[s]`` — the per-scenario path is the reference this kernel is
    property-tested against, for every registered attack kind.
    """
    outcomes = list(outcomes)
    if not outcomes:
        raise ValidationError("corrupted_state_batch requires at least one outcome")
    sensitivity = sensitivity or ThermalSensitivity()
    state = model.state_dict() if state is None else state
    tables = {
        block: _BlockAttackTables(block, mapping, outcomes, tuning_compensation_k)
        for block in {mapped.kind for mapped in mapping.parameters}
    }
    return {
        mapped.name: _corrupt_tensor_batch(
            state[mapped.name], mapped, mapping, tables[mapped.kind], sensitivity
        )
        for mapped in mapping.parameters
    }


def touched_parameters(
    mapping: WeightMapping, outcomes: Sequence[AttackOutcome]
) -> np.ndarray:
    """Boolean ``(S, P)`` mask of the mapped parameters each outcome can change.

    Column ``p`` is ``mapping.parameters[p]``.  An entry is set when the
    outcome floors one of the parameter's MR slots, leaves one of its banks
    warmer after tuning compensation, or scales one of its wavelength
    columns by a float32 factor other than 1 — the three ways the
    :func:`corrupted_state_batch` kernel (at the default tuning
    compensation) can move a weight, read off the same per-block tables.
    Every parameter whose stacked row differs from an unattacked row is
    therefore marked; a marked one may still come out unchanged (e.g. a
    floor on a weight already at the floor).  Each parameter is reduced over
    its distinct slots, banks and columns, so no ``(S, weights)`` array is
    built.
    """
    outcomes = list(outcomes)
    tables = {
        block: _BlockAttackTables(block, mapping, outcomes, DEFAULT_TUNING_COMPENSATION_K)
        for block in {mapped.kind for mapped in mapping.parameters}
    }
    mask = np.zeros((len(outcomes), len(mapping.parameters)), dtype=bool)
    for index, mapped in enumerate(mapping.parameters):
        mask[:, index] = tables[mapped.kind].touched(mapping, mapped)
    return mask


@contextmanager
def attack_context(
    model: Module,
    mapping: WeightMapping,
    outcome: AttackOutcome,
    sensitivity: ThermalSensitivity | None = None,
    tuning_compensation_k: float = DEFAULT_TUNING_COMPENSATION_K,
    clean_state: dict[str, np.ndarray] | None = None,
):
    """Temporarily load the corrupted weights into ``model``.

    Usage::

        with attack_context(model, mapping, outcome):
            accuracy = evaluate_accuracy(model, test_set)
        # weights restored here

    ``clean_state`` lets long-lived callers (the inference engine) snapshot
    the clean weights once instead of re-copying the full state dict on every
    entry; ``load_state_dict`` copies values on load, so the snapshot itself
    is never mutated.
    """
    clean = model.state_dict() if clean_state is None else clean_state
    try:
        model.load_state_dict(
            corrupted_state_dict(
                model, mapping, outcome, sensitivity, tuning_compensation_k, state=clean
            )
        )
        yield model
    finally:
        model.load_state_dict(clean)


# --------------------------------------------------------------------------- internals
def _corrupt_tensor(
    values: np.ndarray,
    mapped: MappedParameter,
    mapping: WeightMapping,
    outcome: AttackOutcome,
    sensitivity: ThermalSensitivity,
    tuning_compensation_k: float,
) -> np.ndarray:
    """Apply the attack outcome to one mapped weight tensor."""
    block = mapped.kind
    effect = outcome.effects.get(block)
    flat = np.asarray(values, dtype=np.float32).reshape(-1).copy()
    signs = np.sign(flat)
    signs[signs == 0] = 1.0
    magnitudes = mapping.normalize(mapped, flat)
    geometry = mapping.block_geometry(block)
    slots = mapping.slots_for(mapped)
    if effect is None:
        effect = BlockEffect()

    # --- slot floors: the hosted weights no longer reach the detector.
    if effect.slots_off is not None and len(effect.slots_off):
        hit = np.isin(slots, effect.slots_off)
        magnitudes[hit] = OFF_RESONANCE_MAGNITUDE

    # --- bank temperature rises: shift whole banks.
    if effect.bank_delta_t:
        banks = slots // geometry.cols
        cols = slots % geometry.cols
        delta_t_per_bank = _effective_bank_delta_t(
            effect.bank_delta_t,
            set(effect.attacked_banks),
            geometry.num_banks,
            tuning_compensation_k,
        )
        magnitudes = _apply_hotspot(
            magnitudes,
            banks,
            cols,
            delta_t_per_bank,
            mapping.config.channel_spacing_nm,
            constants.C_BAND_CENTER_NM / mapping.config.q_factor,
            sensitivity,
        )

    # --- carrier scales: depleted channels couple proportionally less power.
    if effect.col_scale is not None:
        scale = np.asarray(effect.col_scale, dtype=np.float32)
        magnitudes *= scale[slots % geometry.cols]

    corrupted = mapping.denormalize(mapped, magnitudes, signs)
    return corrupted.reshape(mapped.shape).astype(np.float32)


class _BlockAttackTables:
    """Per-block scenario tables shared by every mapped tensor of the block.

    Building the slot-floor table, the effective per-bank temperature rises
    and the carrier-scale table once per (block, outcome batch) means each
    mapped tensor only pays for a few cheap gathers instead of re-deriving
    the attack layout.
    """

    #: Above this many (scenario x slot) cells the dense slot-floor lookup
    #: table is not worth its memory; fall back to per-scenario ``np.isin``.
    MAX_TABLE_CELLS = 2**26

    def __init__(
        self,
        block: str,
        mapping: WeightMapping,
        outcomes: list[AttackOutcome],
        tuning_compensation_k: float,
    ):
        geometry = mapping.block_geometry(block)
        num_scenarios = len(outcomes)
        effects = [
            outcome.effects.get(block) or BlockEffect() for outcome in outcomes
        ]

        self.slots_off = [effect.slots_off for effect in effects]
        self.slot_table: np.ndarray | None = None
        if any(slots is not None and len(slots) for slots in self.slots_off):
            if num_scenarios * geometry.capacity <= self.MAX_TABLE_CELLS:
                self.slot_table = np.zeros((num_scenarios, geometry.capacity), dtype=bool)
                for index, slots in enumerate(self.slots_off):
                    if slots is not None and len(slots):
                        # Out-of-range slots never match any weight in the
                        # serial ``np.isin`` path; drop them here too so both
                        # paths stay identical on malformed outcomes.
                        slots = np.asarray(slots)
                        slots = slots[(slots >= 0) & (slots < geometry.capacity)]
                        self.slot_table[index, slots] = True

        self.delta_t_per_bank: np.ndarray | None = None
        for index, effect in enumerate(effects):
            if effect.bank_delta_t:
                if self.delta_t_per_bank is None:
                    self.delta_t_per_bank = np.zeros((num_scenarios, geometry.num_banks))
                self.delta_t_per_bank[index] = _effective_bank_delta_t(
                    effect.bank_delta_t,
                    set(effect.attacked_banks),
                    geometry.num_banks,
                    tuning_compensation_k,
                )

        #: Scenario rows carrying a carrier-scale effect, and their stacked
        #: per-column scales (float32, one row per entry of ``scale_rows``).
        self.scale_rows: list[int] = [
            index for index, effect in enumerate(effects) if effect.col_scale is not None
        ]
        self.col_scale_table: np.ndarray | None = None
        if self.scale_rows:
            self.col_scale_table = np.stack(
                [
                    np.asarray(effects[index].col_scale, dtype=np.float32)
                    for index in self.scale_rows
                ]
            )

    def slot_floor_hits(self, slots: np.ndarray) -> np.ndarray | None:
        """Boolean ``(S, W)`` mask of floored weights (None: no slot floors)."""
        if self.slot_table is not None:
            return self.slot_table[:, slots]
        if not any(s is not None and len(s) for s in self.slots_off):
            return None
        hits = np.zeros((len(self.slots_off), slots.size), dtype=bool)
        for index, attacked in enumerate(self.slots_off):
            if attacked is not None and len(attacked):
                hits[index] = np.isin(slots, attacked)
        return hits

    def touched(self, mapping: WeightMapping, mapped: MappedParameter) -> np.ndarray:
        """``(S,)`` mask of the scenarios that can change a weight of ``mapped``.

        A tensor's first ``capacity`` weights already cover every slot it
        occupies (later mapping rounds reuse them), so at most one round of
        slots, and the distinct banks and columns among them, is inspected.
        """
        geometry = mapping.block_geometry(mapped.kind)
        slots = (
            mapped.offset + np.arange(min(mapped.size, geometry.capacity))
        ) % geometry.capacity
        touched = np.zeros(len(self.slots_off), dtype=bool)
        hits = self.slot_floor_hits(slots)
        if hits is not None:
            touched |= hits.any(axis=1)
        if self.delta_t_per_bank is not None:
            banks = np.unique(slots // geometry.cols)
            touched |= (self.delta_t_per_bank[:, banks] > 0).any(axis=1)
        if self.col_scale_table is not None:
            cols = np.unique(slots % geometry.cols)
            touched[self.scale_rows] |= (self.col_scale_table[:, cols] != 1).any(axis=1)
        return touched


def _corrupt_tensor_batch(
    values: np.ndarray,
    mapped: MappedParameter,
    mapping: WeightMapping,
    tables: _BlockAttackTables,
    sensitivity: ThermalSensitivity,
) -> np.ndarray:
    """Apply ``S`` attack outcomes to one mapped tensor as a ``(S, W)`` pass.

    Runs the exact operation sequence of :func:`_corrupt_tensor` with a
    leading scenario axis: slot floors are one masked write, a single
    broadcast :func:`_apply_hotspot` handles every thermal scenario at once,
    and carrier scales are one row-gathered multiply.
    """
    num_scenarios = len(tables.slots_off)
    block = mapped.kind
    flat = np.asarray(values, dtype=np.float32).reshape(-1)
    signs = np.sign(flat)
    signs[signs == 0] = 1.0
    base = mapping.normalize(mapped, flat)
    geometry = mapping.block_geometry(block)
    slots = mapping.slots_for(mapped)
    magnitudes = np.broadcast_to(base, (num_scenarios, base.size)).copy()

    hits = tables.slot_floor_hits(slots)
    if hits is not None:
        magnitudes[hits] = OFF_RESONANCE_MAGNITUDE

    if tables.delta_t_per_bank is not None:
        banks = slots // geometry.cols
        cols = slots % geometry.cols
        magnitudes = _apply_hotspot(
            magnitudes,
            banks,
            cols,
            tables.delta_t_per_bank,
            mapping.config.channel_spacing_nm,
            constants.C_BAND_CENTER_NM / mapping.config.q_factor,
            sensitivity,
        )

    if tables.col_scale_table is not None:
        # Same float32 elementwise multiply as the per-scenario path; rows
        # without a carrier-scale effect are left untouched so kinds that
        # never emit one stay bit-identical whatever shares their batch.
        magnitudes[tables.scale_rows] *= tables.col_scale_table[
            :, slots % geometry.cols
        ]

    corrupted = mapping.denormalize(mapped, magnitudes, signs)
    return corrupted.reshape((num_scenarios, *mapped.shape)).astype(np.float32)


def _effective_bank_delta_t(
    bank_delta_t: dict[int, float],
    directly_attacked: set[int],
    num_banks: int,
    tuning_compensation_k: float,
) -> np.ndarray:
    """Per-bank effective temperature rise after tuning-loop compensation.

    Out-of-range banks are dropped.  A bank the trojan does not heat directly
    keeps ``max(0.0, rise - k)``, which is ``0.0`` for a NaN rise too.
    """
    count = len(bank_delta_t)
    banks = np.fromiter(bank_delta_t.keys(), dtype=np.int64, count=count)
    rises = np.fromiter(bank_delta_t.values(), dtype=np.float64, count=count)
    in_range = (banks >= 0) & (banks < num_banks)
    banks, rises = banks[in_range], rises[in_range]
    direct = np.fromiter(directly_attacked, dtype=np.int64, count=len(directly_attacked))
    heated = np.zeros(num_banks, dtype=bool)
    heated[direct[(direct >= 0) & (direct < num_banks)]] = True
    compensated = rises - tuning_compensation_k
    delta_t_per_bank = np.zeros(num_banks)
    delta_t_per_bank[banks] = np.where(
        heated[banks], rises, np.where(compensated > 0, compensated, 0.0)
    )
    return delta_t_per_bank


def _apply_hotspot(
    magnitudes: np.ndarray,
    banks: np.ndarray,
    cols: np.ndarray,
    delta_t_per_bank: np.ndarray,
    spacing_nm: float,
    linewidth_nm: float,
    sensitivity: ThermalSensitivity,
) -> np.ndarray:
    """Vectorized thermal corruption of flattened weight magnitudes.

    ``magnitudes`` is ``(W,)`` for the per-scenario path or ``(S, W)`` for the
    scenario batch; ``delta_t_per_bank`` has the matching ``(num_banks,)`` or
    ``(S, num_banks)`` shape.  Each affected bank's temperature rise is
    converted into a resonance shift (Eq. 2).  The whole-channel part of the
    shift re-pairs every ring in the bank with the carrier ``k`` positions
    later — because the weight-stationary layout assigns consecutive columns
    to consecutive flat indices, carrier ``j``'s magnitude comes from flat
    index ``i - k`` when the source column stays inside the bank, and
    collapses to ≈0 otherwise.  The sub-channel residual shift scales the
    coupled magnitude down following the Lorentzian drop-port response.
    """
    shift_per_kelvin = float(sensitivity.shift_per_kelvin(constants.C_BAND_CENTER_NM))
    if shift_per_kelvin < 0:
        # The re-pairing mask below (``cols >= channel_shift``) encodes the
        # red-shift direction of silicon's positive dn/dT; a blue shift would
        # silently re-pair rings with *earlier* carriers using a wrong mask.
        raise ValidationError(
            "negative thermally induced resonance shift "
            f"({shift_per_kelvin:.3e} nm/K): the hotspot re-pairing model "
            "assumes red shifts (positive dn/dT); negative thermo-optic "
            "materials are not supported by the injection kernel"
        )
    stacked_input = magnitudes.ndim == 2
    magnitudes_2d = np.atleast_2d(magnitudes)
    hot_banks = np.atleast_2d(delta_t_per_bank) > 0
    if not np.any(hot_banks):
        return magnitudes

    # Hotspots only touch a small fraction of the (scenario, weight) grid, so
    # the shift/re-pair/Lorentzian math runs on the affected entries alone —
    # identical elementwise operations, a fraction of the memory traffic.
    hot_rows = np.flatnonzero(hot_banks.any(axis=1))
    sub_rows, flat_index = np.nonzero(hot_banks[hot_rows][:, banks])
    rows = hot_rows[sub_rows]
    delta_t = np.atleast_2d(delta_t_per_bank)[rows, banks[flat_index]]
    shift_nm = shift_per_kelvin * delta_t
    channel_shift = np.floor(shift_nm / spacing_nm + 0.5).astype(np.int64)
    residual_nm = shift_nm - channel_shift * spacing_nm

    size = magnitudes_2d.shape[1]
    source_indices = flat_index - channel_shift
    valid_source = (
        (cols[flat_index] >= channel_shift) & (source_indices >= 0) & (source_indices < size)
    )
    shifted = np.where(
        valid_source,
        magnitudes_2d[rows, np.clip(source_indices, 0, size - 1)],
        OFF_RESONANCE_MAGNITUDE,
    )
    # Partial detuning reduces how much of the (possibly re-paired) magnitude
    # is actually coupled to the detector.  The scatter below writes into the
    # caller-private magnitude buffer after every re-paired source magnitude
    # has been gathered, so in-place mutation is safe.
    lorentz = 1.0 / (1.0 + (2.0 * residual_nm / linewidth_nm) ** 2)
    magnitudes_2d[rows, flat_index] = shifted * lorentz
    return magnitudes if stacked_input else magnitudes_2d[0]
