"""``CNN_1``: the simple MNIST classifier from Table I (2 conv + 3 FC layers)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    Conv2D,
    Flatten,
    GaussianNoise,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.nn.module import Module
from repro.utils.rng import default_rng

__all__ = ["MnistCNN"]


class MnistCNN(Module):
    """The paper's ``CNN_1`` workload.

    Architecture (full scale, 28x28x1 input):

    ``conv(1→16, 3x3) → ReLU → maxpool(2)`` →
    ``conv(16→16, 3x3) → ReLU → maxpool(2)`` →
    ``flatten → fc(784→50) → ReLU → fc(50→40) → ReLU → fc(40→10)``

    which yields ≈2.5K conv parameters and ≈41.7K FC parameters, matching the
    44.2K total reported in Table I.

    Parameters
    ----------
    num_classes:
        Output classes (10).
    in_channels:
        Input channels (1 for MNIST).
    image_size:
        Square input resolution (28).
    conv_channels:
        Channel widths of the two conv layers.
    hidden_units:
        Widths of the first two FC layers.
    noise_std:
        If positive, insert :class:`GaussianNoise` layers after each
        conv/FC stage (noise-aware training, paper §V.B).
    rng:
        Seed or generator for weight initialization.
    """

    name = "cnn_mnist"

    def __init__(
        self,
        num_classes: int = 10,
        in_channels: int = 1,
        image_size: int = 28,
        conv_channels: tuple[int, int] = (16, 16),
        hidden_units: tuple[int, int] = (50, 40),
        noise_std: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        rng = default_rng(rng)
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.image_size = image_size
        self.noise_std = float(noise_std)

        c1, c2 = conv_channels
        h1, h2 = hidden_units
        feature_size = image_size // 4  # two 2x2 max-pools
        flat_features = c2 * feature_size * feature_size

        layers: list[Module] = [
            Conv2D(in_channels, c1, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
        ]
        layers += self._maybe_noise(rng)
        layers += [
            Conv2D(c1, c2, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2D(2),
        ]
        layers += self._maybe_noise(rng)
        layers += [
            Flatten(),
            Linear(flat_features, h1, rng=rng),
            ReLU(),
        ]
        layers += self._maybe_noise(rng)
        layers += [
            Linear(h1, h2, rng=rng),
            ReLU(),
        ]
        layers += self._maybe_noise(rng)
        layers += [Linear(h2, num_classes, rng=rng)]
        self.net = Sequential(*layers)

    def _maybe_noise(self, rng: np.random.Generator) -> list[Module]:
        if self.noise_std > 0:
            return [GaussianNoise(self.noise_std, rng=int(rng.integers(0, 2**31 - 1)))]
        return []

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def stages(self) -> list[Module]:
        return self.net.stages()

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_output)

    @classmethod
    def paper_config(cls, noise_std: float = 0.0, rng=None) -> "MnistCNN":
        """Full-scale configuration used for the Table I inventory."""
        return cls(noise_std=noise_std, rng=rng)

    @classmethod
    def scaled_config(cls, image_size: int = 28, noise_std: float = 0.0, rng=None) -> "MnistCNN":
        """CPU-friendly configuration used by the attack/mitigation experiments.

        ``CNN_1`` is already small, so the scaled configuration only narrows
        the first FC layer slightly.
        """
        return cls(
            image_size=image_size,
            conv_channels=(8, 16),
            hidden_units=(48, 32),
            noise_std=noise_std,
            rng=rng,
        )
