"""Functional inference of a mapped CNN on the (possibly attacked) accelerator.

The engine mirrors the paper's methodology (§IV): the effect of an HT attack
is evaluated by modifying the model parameters according to their mapping
onto the ONN accelerator and then running inference.  Optionally, DAC-
resolution weight quantization is applied to both the clean and attacked
models, reflecting the accelerator's finite imprint precision.

Every experiment evaluates attacked accuracy on one path,
:meth:`AttackedInferenceEngine.accuracy_under_attacks`: ``S`` outcomes are
grouped by the first mapped parameter they touch
(:func:`~repro.attacks.injection.touched_parameters`), corrupted a chunk at a
time in one broadcast pass
(:func:`~repro.attacks.injection.corrupted_state_batch`) and evaluated in a
single stacked forward per data batch through the ensemble-weight layers
(:mod:`repro.nn.ensemble`); a single scenario is a stack of one.  The
per-scenario path, :meth:`AttackedInferenceEngine.accuracy_under_attack`
(corrupt, load, run the test set, restore), is the reference that tests and
the repository benchmark compare the batched path against; the batched path
reproduces its accuracies bit for bit.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.mapping import WeightMapping
from repro.attacks.base import AttackOutcome
from repro.attacks.injection import (
    attack_context,
    corrupted_state_batch,
    corrupted_state_dict,
    touched_parameters,
)
from repro.datasets.base import DataLoader, Dataset
from repro.nn.ensemble import stacked_state
from repro.nn.module import Module
from repro.nn.training import evaluate_accuracy
from repro.utils.validation import check_positive_int

__all__ = ["AttackedInferenceEngine"]

#: Upper bound on the auto-selected scenario-chunk size.
MAX_SCENARIO_CHUNK = 256

#: Approximate memory budget [MiB] for one auto-sized scenario chunk (stacked
#: weights plus stacked activations).
MEMORY_BUDGET_MB = 512


def _check_scenario_chunk(value: int | None) -> int | None:
    """``None`` (memory-aware auto) or a positive number of scenarios."""
    return None if value is None else check_positive_int(value, "scenario_chunk")


class AttackedInferenceEngine:
    """Runs a CNN's inference through the functional accelerator model.

    Parameters
    ----------
    model:
        Trained CNN (its conv/fc weights are mapped onto the MR banks).  The
        engine evaluates its own copy, so the caller's model is never
        modified.
    config:
        Accelerator configuration.
    quantize_weights:
        Apply DAC-resolution quantization to the mapped weight magnitudes for
        every run (clean and attacked).  Keeps the comparison between clean
        and attacked accuracy apples-to-apples.
    batch_size:
        Evaluation batch size.
    scenario_chunk:
        Fixed positive number of attack scenarios evaluated per stacked
        forward pass in :meth:`accuracy_under_attacks`.  ``None`` (default)
        derives a chunk from :data:`MEMORY_BUDGET_MB` and the model/dataset
        footprint.  The per-call ``scenario_chunk`` of the batched methods
        follows the same rule; any other value raises ``ValidationError``.

    The engine snapshots the clean (quantized) state dict once at
    construction; attacked runs corrupt and restore from that snapshot
    instead of re-copying the full state dict per scenario.
    """

    def __init__(
        self,
        model: Module,
        config: AcceleratorConfig | None = None,
        quantize_weights: bool = True,
        batch_size: int = 64,
        scenario_chunk: int | None = None,
    ):
        self.model = copy.deepcopy(model)
        self.config = config or AcceleratorConfig.scaled_config()
        self.quantize_weights = quantize_weights
        self.batch_size = batch_size
        self.scenario_chunk = _check_scenario_chunk(scenario_chunk)
        if quantize_weights:
            self._quantize_mapped_weights()
        # Build the mapping after quantization so normalization scales match
        # the weights actually imprinted on the MRs.
        self.mapping = WeightMapping(self.model, self.config)
        self._clean_state = self.model.state_dict()

    def _quantize_mapped_weights(self) -> None:
        """Quantize the engine's conv/fc weights to the DAC resolution."""
        levels = 2**self.config.dac_bits - 1
        for param in self.model.parameters():
            if param.kind not in ("conv", "fc"):
                continue
            scale = float(np.max(np.abs(param.data)))
            if scale <= 0:
                continue
            normalized = param.data / scale
            param.data = (np.round(normalized * levels) / levels * scale).astype(np.float32)

    # ------------------------------------------------------------------ runs
    def clean_accuracy(self, dataset: Dataset) -> float:
        """Accuracy of the mapped (quantized) model without any attack."""
        return evaluate_accuracy(self.model, dataset, batch_size=self.batch_size)

    def accuracy_under_attack(self, dataset: Dataset, outcome: AttackOutcome) -> float:
        """Accuracy with the attack outcome injected into the mapped weights.

        This is the per-scenario reference path; use
        :meth:`accuracy_under_attacks` to evaluate many scenarios in stacked
        forward passes.
        """
        with attack_context(
            self.model, self.mapping, outcome, clean_state=self._clean_state
        ):
            return evaluate_accuracy(self.model, dataset, batch_size=self.batch_size)

    def accuracy_under_attacks(
        self,
        dataset: Dataset,
        outcomes: Sequence[AttackOutcome],
        scenario_chunk: int | None = None,
    ) -> np.ndarray:
        """Accuracy of every attack outcome via stacked ensemble forwards.

        Outcomes are corrupted and evaluated ``chunk`` scenarios at a time,
        in one broadcast pass per mapped tensor per chunk: each data batch
        runs through the network once per chunk, with im2col patch matrices
        shared across the chunk's weight sets while the activations are still
        scenario-independent.  Returns an array of ``S`` accuracies matching
        :meth:`accuracy_under_attack` scenario-for-scenario.

        Outcomes are grouped internally by the first mapped parameter (in
        mapping order) they can change, per
        :func:`~repro.attacks.injection.touched_parameters`; outcomes that
        change none form their own group, and a single outcome is one group.
        Every parameter before a group's first touched one keeps its clean
        value, so each chunk collapses it to one shared row and runs the
        layers up to it once for the whole chunk.  A group whose first
        touched parameter is a conv kernel replicates im2col patch matrices
        per scenario from that layer on and gets small cache-friendly chunks;
        every other group shares the whole convolutional trunk and gets large
        memory-bounded chunks.
        """
        scenario_chunk = _check_scenario_chunk(scenario_chunk)
        outcomes = list(outcomes)
        accuracies = np.zeros(len(outcomes))
        if not outcomes:
            return accuracies
        self.model.eval()
        loader = DataLoader(dataset, batch_size=self.batch_size, shuffle=False)
        # Group by first touched parameter (-1: none).  A lone outcome is one
        # group whatever it touches, so it skips the mask.
        first = [-1] * len(outcomes)
        if len(outcomes) > 1 and self.mapping.parameters:
            touched = touched_parameters(self.mapping, outcomes)
            first = np.where(touched.any(axis=1), touched.argmax(axis=1), -1).tolist()
        groups: dict[int, list[int]] = {}
        for index, parameter in enumerate(first):
            groups.setdefault(parameter, []).append(index)
        for parameter, indices in groups.items():
            conv_first = parameter >= 0 and self.mapping.parameters[parameter].kind == "conv"
            chunk = (
                scenario_chunk
                or self.scenario_chunk
                or self._auto_scenario_chunk(dataset, conv_diverged=conv_first)
            )
            for start in range(0, len(indices), chunk):
                piece_indices = indices[start : start + chunk]
                piece = [outcomes[i] for i in piece_indices]
                correct = np.zeros(len(piece), dtype=np.int64)
                total = 0
                with stacked_state(self.model, self._stacked_state_for(piece)):
                    for images, labels in loader:
                        logits = self.model(images)
                        if logits.ndim == 2:  # no mapped parameters at all
                            logits = logits[None]
                        hits = np.argmax(logits, axis=-1) == labels[None, :]
                        correct = correct + hits.sum(axis=1)
                        total += labels.shape[0]
                accuracies[piece_indices] = correct / total if total else float("nan")
        return accuracies

    def corrupted_weights(self, outcome: AttackOutcome) -> dict[str, np.ndarray]:
        """The corrupted state dict for an attack outcome (for inspection)."""
        return corrupted_state_dict(self.model, self.mapping, outcome)

    def weight_corruption_fraction(self, outcome: AttackOutcome) -> float:
        """Fraction of mapped weights whose value changes under the attack."""
        return float(self.weight_corruption_fractions([outcome])[0])

    def weight_corruption_fractions(
        self,
        outcomes: Sequence[AttackOutcome],
        scenario_chunk: int | None = None,
    ) -> np.ndarray:
        """Corrupted-weight fraction of every outcome in stacked passes.

        Counts changed weights directly on the ``(S, W)`` stacked corruption
        arrays instead of rebuilding a full corrupted state dict per scenario.
        """
        scenario_chunk = _check_scenario_chunk(scenario_chunk)
        outcomes = list(outcomes)
        fractions = np.zeros(len(outcomes))
        total = sum(mapped.size for mapped in self.mapping.parameters)
        if not outcomes or not total:
            return fractions
        # Per scenario: the stacked corrupted copy, the diff temporary and
        # comparison headroom — all sized by the mapped weights alone.
        budget_floats = (MEMORY_BUDGET_MB * 2**20) // 4
        auto_chunk = int(np.clip(budget_floats // (4 * total), 1, MAX_SCENARIO_CHUNK))
        chunk = scenario_chunk or self.scenario_chunk or auto_chunk
        for start in range(0, len(outcomes), chunk):
            piece = outcomes[start : start + chunk]
            stacked = corrupted_state_batch(
                self.model, self.mapping, piece, state=self._clean_state
            )
            changed = np.zeros(len(piece), dtype=np.int64)
            for mapped in self.mapping.parameters:
                diff = np.abs(
                    stacked[mapped.name].reshape(len(piece), -1)
                    - self._clean_state[mapped.name].reshape(1, -1)
                )
                changed += np.count_nonzero(diff > 1e-7, axis=1)
            fractions[start : start + len(piece)] = changed / total
        return fractions

    # ------------------------------------------------------------- internals
    def _stacked_state_for(
        self, outcomes: Sequence[AttackOutcome]
    ) -> dict[str, np.ndarray]:
        """Stacked corrupted weights, with untouched tensors collapsed.

        A parameter whose ``S`` corrupted rows are all identical (every
        parameter before the chunk's first touched one, e.g. the conv kernels
        under an FC-only attack) is collapsed to a single shared row: the
        ensemble forward then keeps the activations un-replicated until the
        first genuinely attacked layer, which is where the big scenario grids
        spend most of their speedup.
        """
        stacked = corrupted_state_batch(
            self.model, self.mapping, outcomes, state=self._clean_state
        )
        if len(outcomes) > 1:
            for name, value in stacked.items():
                if bool(np.all(value == value[:1])):
                    stacked[name] = value[:1]
        return stacked

    def _auto_scenario_chunk(self, dataset: Dataset, conv_diverged: bool) -> int:
        """Scenario-chunk size for one group of outcomes.

        Scenarios whose activations diverge at a conv layer (their first
        touched parameter is a conv kernel) replicate the im2col patch
        matrices per scenario; large chunks then blow the CPU caches and run
        *slower*, so they get a small fixed chunk that mostly amortizes the
        per-chunk corruption/loader overhead.  Shared-trunk scenarios (every
        conv kernel clean) are limited by memory alone: per-scenario
        footprint ≈ three copies of the stacked mapped weights (batch kernel
        output, matmul operand, engine copy) plus a few input-sized stacked
        activation buffers per evaluation batch as headroom for the replicated
        post-trunk features.
        """
        if conv_diverged:
            return 4
        # Shared trunk: the replicated activations are only the (flattened)
        # post-trunk features, so the stacked weights dominate the footprint.
        weight_floats = sum(mapped.size for mapped in self.mapping.parameters)
        image_floats = int(np.prod(dataset.image_shape))
        batch = max(1, min(self.batch_size, len(dataset)))
        per_scenario_floats = 3 * weight_floats + 4 * batch * image_floats
        budget_floats = (MEMORY_BUDGET_MB * 2**20) // 4
        return int(np.clip(budget_floats // max(per_scenario_floats, 1), 1, MAX_SCENARIO_CHUNK))
