"""Gaussian activation-noise layer used for noise-aware training (paper §V.B).

SafeLight trains "noise-aware" model variants by injecting random Gaussian
noise into model layers during training, so the learned weights tolerate the
parameter corruption later introduced by hardware-trojan attacks.  This layer
implements that injection: additive zero-mean Gaussian noise during training,
identity during inference.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.utils.rng import default_rng

__all__ = ["GaussianNoise"]


class GaussianNoise(Module):
    """Additive zero-mean Gaussian activation noise (training only).

    Parameters
    ----------
    std:
        Noise standard deviation.  The paper sweeps 0.1 .. 0.9 (variants
        ``n1`` .. ``n9``).
    relative:
        When true, the noise is scaled by the per-batch standard deviation of
        the activations, which keeps the perturbation magnitude meaningful for
        layers with very different dynamic ranges (deep ResNet/VGG stages).
    rng:
        Seed or generator for the noise stream.
    """

    def __init__(
        self,
        std: float = 0.1,
        relative: bool = True,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        if std < 0:
            raise ValueError(f"std must be non-negative, got {std}")
        self.std = float(std)
        self.relative = bool(relative)
        self._rng = default_rng(rng)
        #: Per-variant noise levels/streams for variant-stacked training: a
        #: ``(V,)`` std array and a parallel list of generators (``None`` for
        #: noise-free variants, whose slabs pass through untouched).  Each
        #: variant draws from *its own* generator, so a stacked grid step is
        #: bit-identical to the corresponding serial training step.
        self.stacked_std: np.ndarray | None = None
        self.stacked_rngs: list[np.random.Generator | None] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if not self.training:
            return x
        if self.stacked_std is not None:
            return self._forward_stacked(x)
        if self.std == 0.0:
            return x
        scale = self.std
        if self.relative:
            activation_std = float(x.std())
            scale = self.std * (activation_std if activation_std > 0 else 1.0)
        noise = self._rng.normal(0.0, scale, size=x.shape).astype(np.float32)
        return x + noise

    def _forward_stacked(self, x: np.ndarray) -> np.ndarray:
        """Per-variant noise injection on a variant-stacked activation.

        The leading axis of ``x`` is the variant axis ((V, N, F) after FC
        stages, (V, N, C, H, W) after conv stages).
        """
        if x.shape[0] != len(self.stacked_std):
            raise ValueError(
                f"stacked input has {x.shape[0]} variants, "
                f"noise layer is configured for {len(self.stacked_std)}"
            )
        out = np.empty(x.shape, dtype=np.float32)
        for index, (std, rng) in enumerate(zip(self.stacked_std, self.stacked_rngs)):
            std = float(std)
            slab = x[index]
            if std <= 0.0 or rng is None:
                out[index] = slab
                continue
            scale = std
            if self.relative:
                activation_std = float(slab.std())
                scale = std * (activation_std if activation_std > 0 else 1.0)
            noise = rng.normal(0.0, scale, size=slab.shape).astype(np.float32)
            np.add(slab, noise, out=out[index])
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        # Additive noise has unit Jacobian with respect to the input.
        return np.asarray(grad_output, dtype=np.float32)

    def __repr__(self) -> str:
        return f"GaussianNoise(std={self.std}, relative={self.relative})"
