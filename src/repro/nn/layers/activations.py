"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh"]


class ReLU(Module):
    """Rectified linear unit.

    Training computes ``x * (x > 0)`` and keeps the mask for
    :meth:`backward`.  An evaluation forward is
    :func:`~repro.nn.functional.relu`, one ``np.maximum(x, 0)`` pass, and
    keeps no mask.  Its values equal the training formula's except for the
    sign of a zero (a negative input gives ``+0.0`` instead of ``-0.0``) and
    ``-inf``, which gives ``0`` instead of NaN.  A zero's sign changes no
    nonzero value downstream, so logits and predictions are value-equal.
    """

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if not self.training:
            self._mask = None
            return F.relu(x)
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output, dtype=np.float32) * self._mask

    def __repr__(self) -> str:
        return "ReLU()"


class LeakyReLU(Module):
    """Leaky rectified linear unit with negative slope ``alpha``."""

    def __init__(self, alpha: float = 0.01):
        super().__init__()
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._mask = x > 0
        return np.where(self._mask, x, self.alpha * x).astype(np.float32)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        return np.where(self._mask, grad_output, self.alpha * grad_output).astype(np.float32)

    def __repr__(self) -> str:
        return f"LeakyReLU(alpha={self.alpha})"


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self):
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = F.sigmoid(np.asarray(x, dtype=np.float32))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        return grad_output * self._output * (1.0 - self._output)

    def __repr__(self) -> str:
        return "Sigmoid()"


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self):
        super().__init__()
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = np.tanh(np.asarray(x, dtype=np.float32))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        return grad_output * (1.0 - self._output**2)

    def __repr__(self) -> str:
        return "Tanh()"
