"""ResNet18 for CIFAR-10 (17 conv layers + 1 FC layer, paper Table I)."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    BatchNorm2D,
    Conv2D,
    GaussianNoise,
    GlobalAvgPool2D,
    Linear,
    ReLU,
    Sequential,
)
from repro.nn.module import Module
from repro.utils.rng import default_rng

__all__ = ["BasicBlock", "ResNet18"]


class BasicBlock(Module):
    """Standard two-conv residual block with an optional projection shortcut.

    ``out = relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))``
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        noise_std: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        rng = default_rng(rng)
        self.conv1 = Conv2D(in_channels, out_channels, 3, stride=stride, padding=1,
                            bias=False, rng=rng)
        self.bn1 = BatchNorm2D(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2D(out_channels, out_channels, 3, stride=1, padding=1,
                            bias=False, rng=rng)
        self.bn2 = BatchNorm2D(out_channels)
        self.relu2 = ReLU()
        self.noise = (
            GaussianNoise(noise_std, rng=int(rng.integers(0, 2**31 - 1)))
            if noise_std > 0
            else None
        )
        if stride != 1 or in_channels != out_channels:
            self.shortcut_conv = Conv2D(in_channels, out_channels, 1, stride=stride,
                                        padding=0, bias=False, rng=rng)
            self.shortcut_bn = BatchNorm2D(out_channels)
        else:
            self.shortcut_conv = None
            self.shortcut_bn = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = self.relu1(self.bn1(self.conv1(x)))
        main = self.bn2(self.conv2(main))
        if self.shortcut_conv is not None:
            residual = self.shortcut_bn(self.shortcut_conv(x))
        else:
            residual = x
        out = self.relu2(main + residual)
        if self.noise is not None:
            out = self.noise(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = np.asarray(grad_output, dtype=np.float32)
        if self.noise is not None:
            grad_output = self.noise.backward(grad_output)
        grad_sum = self.relu2.backward(grad_output)
        # Branch 1: main path.
        grad_main = self.bn2.backward(grad_sum)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        # Branch 2: shortcut path.
        if self.shortcut_conv is not None:
            grad_short = self.shortcut_bn.backward(grad_sum)
            grad_short = self.shortcut_conv.backward(grad_short)
        else:
            grad_short = grad_sum
        return grad_main + grad_short


class ResNet18(Module):
    """ResNet-18 with a CIFAR-style 3x3 stem.

    The network has 1 stem conv + 8 basic blocks x 2 convs = 17 convolution
    layers (matching Table I) plus a single FC classifier.

    Parameters
    ----------
    num_classes, in_channels:
        Task shape (10 classes, RGB input).
    base_width:
        Channels of the first stage; stages use ``base_width * (1, 2, 4, 8)``.
        The paper-scale model uses 64; the scaled experiments use 8.
    noise_std:
        Insert Gaussian-noise layers inside every residual block
        (noise-aware training).
    rng:
        Seed or generator for weight initialization.
    """

    name = "resnet18"

    def __init__(
        self,
        num_classes: int = 10,
        in_channels: int = 3,
        base_width: int = 64,
        noise_std: float = 0.0,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        rng = default_rng(rng)
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.base_width = base_width
        self.noise_std = float(noise_std)

        widths = [base_width, base_width * 2, base_width * 4, base_width * 8]
        self.stem_conv = Conv2D(in_channels, widths[0], 3, stride=1, padding=1,
                                bias=False, rng=rng)
        self.stem_bn = BatchNorm2D(widths[0])
        self.stem_relu = ReLU()

        blocks: list[Module] = []
        in_ch = widths[0]
        for stage_index, width in enumerate(widths):
            for block_index in range(2):
                stride = 2 if (stage_index > 0 and block_index == 0) else 1
                blocks.append(
                    BasicBlock(in_ch, width, stride=stride, noise_std=noise_std, rng=rng)
                )
                in_ch = width
        self.blocks = Sequential(*blocks)
        self.pool = GlobalAvgPool2D()
        self.fc = Linear(widths[-1], num_classes, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.stem_relu(self.stem_bn(self.stem_conv(x)))
        out = self.blocks(out)
        out = self.pool(out)
        return self.fc(out)

    def stages(self) -> list[Module]:
        # A BasicBlock stays one stage: its residual add lives inside it.
        return [self.stem_conv, self.stem_bn, self.stem_relu, *self.blocks.stages(),
                self.pool, self.fc]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.fc.backward(grad_output)
        grad = self.pool.backward(grad)
        grad = self.blocks.backward(grad)
        grad = self.stem_relu.backward(grad)
        grad = self.stem_bn.backward(grad)
        return self.stem_conv.backward(grad)

    @classmethod
    def paper_config(cls, noise_std: float = 0.0, rng=None) -> "ResNet18":
        """Full-scale ResNet-18 (base width 64) used for the Table I inventory."""
        return cls(base_width=64, noise_std=noise_std, rng=rng)

    @classmethod
    def scaled_config(cls, noise_std: float = 0.0, rng=None) -> "ResNet18":
        """CPU-friendly ResNet-18 (base width 8) used by the experiments."""
        return cls(base_width=8, noise_std=noise_std, rng=rng)
