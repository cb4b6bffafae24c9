"""The VGG16 variant with six convolution layers from Table I."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    Conv2D,
    Dropout,
    Flatten,
    GaussianNoise,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
)
from repro.nn.module import Module
from repro.utils.rng import default_rng

__all__ = ["VGG16Variant"]

# Full-scale configuration: conv channel widths and FC widths chosen so the
# parameter inventory matches Table I (≈3.9M conv + ≈119.6M FC = 123.5M total
# with a 224x224x3 input): conv plan 64-64-128-256-512-512 with five 2x2
# max-pools, classifier 25088→4096→4096→10.
_PAPER_CONV_CHANNELS = (64, 64, 128, 256, 512, 512)
_PAPER_FC_WIDTHS = (4096, 4096)
_PAPER_IMAGE_SIZE = 224


class VGG16Variant(Module):
    """VGG16 variant: 6 conv layers + 3 FC layers (paper Table I).

    The layer plan interleaves a 2x2 max-pool after every conv layer except
    the first, shrinking the spatial resolution by 32x before the classifier
    (224 → 7 at full scale, 64 → 2 in the scaled configuration).

    Parameters
    ----------
    num_classes, in_channels, image_size:
        Task shape.
    conv_channels:
        Channel width of each of the six conv layers.
    fc_widths:
        Widths of the two hidden FC layers.
    dropout:
        Dropout probability applied after each hidden FC layer.
    noise_std:
        Insert Gaussian-noise layers (noise-aware training).
    rng:
        Seed or generator for weight initialization.
    """

    name = "vgg16_variant"

    def __init__(
        self,
        num_classes: int = 10,
        in_channels: int = 3,
        image_size: int = 64,
        conv_channels: tuple[int, ...] = (16, 16, 32, 32, 64, 64),
        fc_widths: tuple[int, int] = (256, 128),
        dropout: float = 0.0,
        noise_std: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        if len(conv_channels) != 6:
            raise ValueError(f"VGG16Variant needs exactly 6 conv widths, got {len(conv_channels)}")
        rng = default_rng(rng)
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.image_size = image_size
        self.noise_std = float(noise_std)

        layers: list[Module] = []
        in_ch = in_channels
        spatial = image_size
        for index, out_ch in enumerate(conv_channels):
            layers.append(Conv2D(in_ch, out_ch, 3, stride=1, padding=1, rng=rng))
            layers.append(ReLU())
            if noise_std > 0:
                layers.append(GaussianNoise(noise_std, rng=int(rng.integers(0, 2**31 - 1))))
            # Pool after every conv except the first, while spatial size allows.
            if index > 0 and spatial >= 2:
                layers.append(MaxPool2D(2))
                spatial //= 2
            in_ch = out_ch
        layers.append(Flatten())

        flat_features = conv_channels[-1] * spatial * spatial
        h1, h2 = fc_widths
        layers.append(Linear(flat_features, h1, rng=rng))
        layers.append(ReLU())
        if dropout > 0:
            layers.append(Dropout(dropout, rng=int(rng.integers(0, 2**31 - 1))))
        if noise_std > 0:
            layers.append(GaussianNoise(noise_std, rng=int(rng.integers(0, 2**31 - 1))))
        layers.append(Linear(h1, h2, rng=rng))
        layers.append(ReLU())
        if dropout > 0:
            layers.append(Dropout(dropout, rng=int(rng.integers(0, 2**31 - 1))))
        if noise_std > 0:
            layers.append(GaussianNoise(noise_std, rng=int(rng.integers(0, 2**31 - 1))))
        layers.append(Linear(h2, num_classes, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.net(x)

    def stages(self) -> list[Module]:
        return self.net.stages()

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.net.backward(grad_output)

    @classmethod
    def paper_config(cls, noise_std: float = 0.0, rng=None) -> "VGG16Variant":
        """Full-scale configuration used for the Table I inventory (123.5M params)."""
        return cls(
            image_size=_PAPER_IMAGE_SIZE,
            conv_channels=_PAPER_CONV_CHANNELS,
            fc_widths=_PAPER_FC_WIDTHS,
            dropout=0.5,
            noise_std=noise_std,
            rng=rng,
        )

    @classmethod
    def scaled_config(cls, image_size: int = 32, noise_std: float = 0.0, rng=None) -> "VGG16Variant":
        """CPU-friendly configuration used by the attack/mitigation experiments."""
        return cls(
            image_size=image_size,
            conv_channels=(8, 8, 16, 16, 32, 32),
            fc_widths=(128, 64),
            dropout=0.0,
            noise_std=noise_std,
            rng=rng,
        )
