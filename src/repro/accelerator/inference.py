"""Functional inference of a mapped CNN on the (possibly attacked) accelerator.

The engine mirrors the paper's methodology (§IV): the effect of an HT attack
is evaluated by modifying the model parameters according to their mapping
onto the ONN accelerator and then running inference.  Optionally, DAC-
resolution weight quantization is applied to both the clean and attacked
models, reflecting the accelerator's finite imprint precision.

Every experiment evaluates attacked accuracy on one path,
:meth:`AttackedInferenceEngine.accuracy_under_attacks`: ``S`` outcomes are
grouped by the first mapped parameter they touch
(:func:`~repro.attacks.injection.touched_parameters`, computed on every call,
a lone outcome included), corrupted a chunk at a time in one broadcast pass
(:func:`~repro.attacks.injection.corrupted_state_batch`) and evaluated in a
single stacked forward per data batch through the ensemble-weight layers
(:mod:`repro.nn.ensemble`); a single scenario is a stack of one.  Each chunk
starts at the model stage (:meth:`~repro.nn.module.Module.stages`) owning its
group's first touched parameter, from that stage's clean input, which the
engine computes once per dataset and keeps; outcomes that touch nothing read
the kept clean logits.  The per-scenario path,
:meth:`AttackedInferenceEngine.accuracy_under_attack` (corrupt, load, run the
test set, restore), is the reference that tests and the repository benchmark
compare the batched path against; the batched path reproduces its accuracies
bit for bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.mapping import WeightMapping
from repro.attacks.base import AttackOutcome, AttackSpec
from repro.attacks.injection import (
    attack_context,
    corrupted_state_batch,
    corrupted_state_dict,
    touched_parameters,
)
from repro.datasets.base import Dataset
from repro.nn.ensemble import stacked_state
from repro.nn.module import Module
from repro.nn.training import count_correct, evaluate_accuracy
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


@dataclass(frozen=True)
class _CleanPrefix:
    """The clean forward of one dataset, kept per evaluation batch.

    ``images`` and ``labels`` are private copies of the dataset's, its key.
    Each entry of ``batches`` holds the batch's labels, the input of every
    stage that owns a mapped parameter (by stage index) and the clean logits.
    Every array is read-only.
    """

    images: np.ndarray
    labels: np.ndarray
    batches: tuple[tuple[np.ndarray, dict[int, np.ndarray], np.ndarray], ...]
    accuracy: float

    def matches(self, dataset: Dataset) -> bool:
        """Whether ``dataset`` holds exactly these images and labels, bit for bit."""
        return np.array_equal(
            dataset.images.view(np.uint32), self.images.view(np.uint32)
        ) and np.array_equal(dataset.labels, self.labels)


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
    instead of re-copying the full state dict per scenario.  The batched path
    also keeps the clean forward of the last dataset it evaluated (one entry,
    compared bit for bit with each call's dataset): per evaluation batch, the
    input of every model stage that owns a mapped parameter and the logits.
    It assumes the batch size and the clean weights stay as constructed.
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
        self._stages = self.model.stages()
        self._stage_of = self._mapped_parameter_stages()
        self._prefix: _CleanPrefix | None = None

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
        runs through the chunk's stages once, with im2col patch matrices
        shared across the chunk's weight sets while the activations are still
        scenario-independent.  Returns an array of ``S`` accuracies matching
        :meth:`accuracy_under_attack` scenario-for-scenario.

        Outcomes are grouped by the first mapped parameter (in mapping order)
        they can change, per
        :func:`~repro.attacks.injection.touched_parameters`, which runs on
        every call, a lone outcome included.  Every parameter before a
        group's first touched one keeps its clean value, so each chunk starts
        at the model stage owning that parameter, from the stage input the
        engine computed once for this dataset; outcomes that change none read
        the kept clean logits, with no corruption and no forward.  A group
        whose first touched parameter is a conv kernel replicates im2col
        patch matrices per scenario from that layer on and gets small
        cache-friendly chunks; every other group shares the whole
        convolutional trunk and gets large memory-bounded chunks.
        """
        scenario_chunk = _check_scenario_chunk(scenario_chunk)
        outcomes = list(outcomes)
        accuracies = np.zeros(len(outcomes))
        if not outcomes:
            return accuracies
        self.model.eval()
        prefix = self._clean_prefix(dataset)
        # Group by first touched parameter (-1: none).
        first = [-1] * len(outcomes)
        if self.mapping.parameters:
            touched = touched_parameters(self.mapping, outcomes)
            first = np.where(touched.any(axis=1), touched.argmax(axis=1), -1).tolist()
        groups: dict[int, list[int]] = {}
        for index, parameter in enumerate(first):
            groups.setdefault(parameter, []).append(index)
        total = len(dataset)
        for parameter, indices in groups.items():
            if parameter < 0:
                accuracies[indices] = prefix.accuracy
                continue
            stage = self._stage_of[parameter]
            conv_first = self.mapping.parameters[parameter].kind == "conv"
            chunk = (
                scenario_chunk
                or self.scenario_chunk
                or self._auto_scenario_chunk(dataset, conv_diverged=conv_first)
            )
            for start in range(0, len(indices), chunk):
                piece_indices = indices[start : start + chunk]
                piece = [outcomes[i] for i in piece_indices]
                correct = np.zeros(len(piece), dtype=np.int64)
                with stacked_state(self.model, self._stacked_state_for(piece)):
                    for labels, inputs, _ in prefix.batches:
                        x = inputs[stage]
                        for module in self._stages[stage:]:
                            x = module(x)
                        correct = correct + count_correct(x, labels)
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
    def _mapped_parameter_stages(self) -> list[int]:
        """Index in ``model.stages()`` of the stage owning each mapped parameter."""
        owner = {
            id(param): index
            for index, stage in enumerate(self._stages)
            for param in stage.parameters()
        }
        named = dict(self.model.named_parameters())
        stage_of = [owner.get(id(named[mapped.name]), -1) for mapped in self.mapping.parameters]
        if -1 in stage_of or stage_of != sorted(stage_of):
            raise ValueError(
                f"{type(self.model).__name__}.stages() must own every mapped parameter, "
                f"in mapping order; got stage indices {stage_of}"
            )
        return stage_of

    def _clean_prefix(self, dataset: Dataset) -> _CleanPrefix:
        """The kept clean forward of ``dataset``, computed on first use.

        One stacked pass carries the rows every untouched parameter has
        inside a chunk — the corruption of an outcome with no effects — not
        the clean state dict: the normalize/denormalize round trip moves some
        weights by one ulp, so a chunk started from this pass's stage inputs
        sees exactly what running its own prefix would have produced.
        """
        if self._prefix is not None and self._prefix.matches(dataset):
            return self._prefix
        self._prefix = None  # one entry: free the old one before building
        images, labels = dataset.images.copy(), dataset.labels.copy()
        images.setflags(write=False)
        labels.setflags(write=False)
        no_effects = AttackOutcome(spec=AttackSpec("actuation", "both", 0.01))
        clean_rows = corrupted_state_batch(
            self.model, self.mapping, [no_effects], state=self._clean_state
        )
        owners = set(self._stage_of)
        batches = []
        correct = np.zeros(1, dtype=np.int64)
        with stacked_state(self.model, clean_rows):
            for start in range(0, len(labels), self.batch_size):
                batch = slice(start, start + self.batch_size)
                inputs = {}
                x = images[batch]
                for index, stage in enumerate(self._stages):
                    if index in owners:
                        inputs[index] = x
                    x = stage(x)
                for array in (x, *inputs.values()):
                    array.setflags(write=False)
                batches.append((labels[batch], inputs, x))
                correct = correct + count_correct(x, labels[batch])
        total = len(labels)
        accuracy = float(correct[0] / total) if total else float("nan")
        self._prefix = _CleanPrefix(images, labels, tuple(batches), accuracy)
        return self._prefix

    def _stacked_state_for(
        self, outcomes: Sequence[AttackOutcome]
    ) -> dict[str, np.ndarray]:
        """Stacked corrupted weights, with untouched tensors collapsed.

        A parameter whose ``S`` corrupted rows are all identical (every
        parameter before the chunk's first touched one, e.g. the conv kernels
        under an FC-only attack) is collapsed to a single shared row: the
        ensemble forward then keeps the activations un-replicated until the
        first genuinely attacked layer (inside the stage a chunk starts at,
        e.g. a residual block whose second conv is the first touched one),
        and a clean layer after it broadcasts one weight set.
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
