"""Ensemble (scenario-stacked) inference support for the NumPy NN framework.

Scenario-batched attacked inference evaluates ``S`` corrupted weight sets in
one stacked forward pass: each mapped :class:`~repro.nn.tensor.Parameter`
carries a ``(S, *shape)`` stacked value, activations gain a leading scenario
axis, and every layer broadcasts over it.  The weighted layers each have one
stacked forward, which variant-grid training runs too:

* :class:`~repro.nn.layers.linear.Linear` contracts
  ``einsum('snf,sof->sno')`` (a batched BLAS matmul);
* :class:`~repro.nn.layers.conv.Conv2D` computes im2col **once per input
  batch** while the activations are still shared across scenarios and reuses
  the patch matrix against all ``S`` weight sets as one batched matmul;
* :class:`~repro.nn.layers.batchnorm.BatchNorm2D` normalizes every slab with
  its running statistics (per variant where the layer carries them);
* pooling, flatten and the elementwise activations fold the scenario axis
  into the batch axis or broadcast over it.  In evaluation mode ``ReLU`` is
  one ``np.maximum(x, 0)`` pass and max pooling reduces each window in
  channels-last memory order, neither keeping backward state.  Their values equal
  the training kernels' up to the sign of a zero, which changes no logit's
  value (and ``ReLU(-inf)``, which is 0 instead of NaN).

A stacked value with the singleton scenario count ``S = 1`` broadcasts
against truly stacked layers.  The inference engine exploits this: parameters
whose corrupted rows are all identical (e.g. conv kernels under an FC-only
attack) are collapsed to a single shared row, so the forward pass stays
un-replicated until the first genuinely attacked layer.

Stacked forwards on a state loaded this way are inference-only: they keep
no backward cache, so calling ``backward`` after one raises instead of
silently computing wrong gradients.  On a state loaded as *trainable*
(``Module.load_stacked_state(..., trainable=True)``) a training-mode forward
caches what its backward needs to accumulate per-variant gradient slabs —
the variant-grid training path driven by
:class:`~repro.nn.training.StackedTrainer` — after releasing the previous
batch's cache; an evaluation-mode forward there keeps none either.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.nn.module import Module

__all__ = [
    "stacked_state",
    "stack_state_dicts",
    "fold_scenarios",
    "unfold_scenarios",
]


@contextmanager
def stacked_state(model: Module, stacked: dict[str, np.ndarray]):
    """Temporarily attach a stacked per-scenario state to ``model``.

    Usage::

        with stacked_state(model, corrupted_state_batch(model, mapping, outcomes)):
            logits = model(images)          # (S, N, num_classes)
        # ordinary single-weight forward restored here
    """
    model.load_stacked_state(stacked)
    try:
        yield model
    finally:
        model.clear_stacked_state()


def stack_state_dicts(states: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Stack per-variant state dicts into one ``name -> (V, *shape)`` mapping.

    All dictionaries must share the same keys and per-key shapes; the result
    is ready for :meth:`~repro.nn.module.Module.load_stacked_state`.
    """
    if not states:
        raise ValueError("need at least one state dict to stack")
    keys = set(states[0])
    for index, state in enumerate(states[1:], start=1):
        if set(state) != keys:
            raise ValueError(
                f"state dict {index} keys differ from state dict 0: "
                f"{sorted(keys ^ set(state))}"
            )
    return {key: np.stack([state[key] for state in states]) for key in states[0]}


def fold_scenarios(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Fold a ``(S, N, …)`` stacked activation into ``(S*N, …)``.

    Returns the folded array and ``S`` so :func:`unfold_scenarios` can restore
    the leading axis.  Layers that treat every sample independently (the
    pooling layers) use this pair to broadcast over scenarios without any
    dedicated stacked kernel.
    """
    lead = x.shape[0]
    return x.reshape((x.shape[0] * x.shape[1],) + x.shape[2:]), lead


def unfold_scenarios(x: np.ndarray, lead: int) -> np.ndarray:
    """Inverse of :func:`fold_scenarios`: ``(S*N, …)`` back to ``(S, N, …)``."""
    return x.reshape((lead, x.shape[0] // lead) + x.shape[1:])
