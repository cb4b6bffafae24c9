"""Batch normalization over NCHW feature maps."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.tensor import Parameter
from repro.utils.validation import check_positive_int

__all__ = ["BatchNorm2D"]


class BatchNorm2D(Module):
    """Per-channel batch normalization with running statistics.

    During training the batch mean/variance are used and the running
    statistics are updated with exponential smoothing (``momentum``); during
    inference the running statistics are used.  Scale (``gamma``) and shift
    (``beta``) parameters are tagged ``kind="other"`` — CrossLight-style
    accelerators keep them in the electronic post-processing stage, so they
    are never mapped onto MRs and HT attacks do not corrupt them.
    """

    _buffer_names = ("running_mean", "running_var")

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = check_positive_int(num_features, "num_features")
        if not 0 < momentum < 1:
            raise ValueError(f"momentum must be in (0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(init.ones((num_features,)), kind="other")
        self.beta = Parameter(init.zeros((num_features,)), kind="other")
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        #: Per-variant running statistics ``(V, C)`` used while the layer is
        #: part of a variant-stacked training grid (attached by the stacked
        #: grid trainer alongside the trainable stacked gamma/beta).
        self.stacked_running_mean: np.ndarray | None = None
        self.stacked_running_var: np.ndarray | None = None
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 5:
            return self._forward_stacked(x)
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2D expects (N, {self.num_features}, H, W), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                (1.0 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(np.float32)
            self.running_var = (
                (1.0 - self.momentum) * self.running_var + self.momentum * var
            ).astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = self.gamma.data[None, :, None, None] * x_hat + self.beta.data[None, :, None, None]
        self._cache = (x_hat, inv_std, x.shape)
        return out

    def _forward_stacked(self, x: np.ndarray) -> np.ndarray:
        """Forward over a leading model axis: ``(S, N, C, H, W)`` inputs.

        In training, which needs trainable stacked ``gamma``/``beta`` (a
        variant-stacked grid), every variant normalizes with *its own* batch
        statistics and updates its own running-statistics slab; the
        per-variant reductions run as a short loop over contiguous slabs so
        each variant's statistics are bit-identical to a standalone 4-D
        forward of that variant.  Training on scenario-stacked inputs would
        mix scenarios in one batch statistic, which has no physical
        counterpart, so it is rejected.

        Otherwise each slab normalizes with the stacked running statistics
        and parameters where the layer carries them, else with the shared
        ones broadcast over the leading axis — the same elementwise
        arithmetic as a 4-D inference forward per scenario.
        """
        if x.shape[2] != self.num_features:
            raise ValueError(
                f"BatchNorm2D expects (S, N, {self.num_features}, H, W), got {x.shape}"
            )
        self._cache = None
        if self.training:
            if not self.gamma.stacked_trainable:
                raise RuntimeError(
                    "BatchNorm2D cannot train on scenario-stacked (5-D) inputs; "
                    "ensemble forwards are inference-only"
                )
            variants = x.shape[0]
            mean = np.stack([x[v].mean(axis=(0, 2, 3)) for v in range(variants)])
            var = np.stack([x[v].var(axis=(0, 2, 3)) for v in range(variants)])
            if self.stacked_running_mean is None:
                self.stacked_running_mean = np.broadcast_to(
                    self.running_mean, (variants, self.num_features)
                ).astype(np.float32).copy()
                self.stacked_running_var = np.broadcast_to(
                    self.running_var, (variants, self.num_features)
                ).astype(np.float32).copy()
            self.stacked_running_mean = (
                (1.0 - self.momentum) * self.stacked_running_mean + self.momentum * mean
            ).astype(np.float32)
            self.stacked_running_var = (
                (1.0 - self.momentum) * self.stacked_running_var + self.momentum * var
            ).astype(np.float32)
        else:
            mean = self.stacked_running_mean
            var = self.stacked_running_var
            if mean is None:
                mean, var = self.running_mean[None], self.running_var[None]
        gamma = self.gamma.stacked if self.gamma.stacked is not None else self.gamma.data[None]
        beta = self.beta.stacked if self.beta.stacked is not None else self.beta.data[None]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        expand = (slice(None), None, slice(None), None, None)
        x_hat = (x - mean[expand]) * inv_std[expand]
        out = gamma[expand] * x_hat + beta[expand]
        if self.training:
            self._cache = (x_hat, inv_std, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, input_shape = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float32)
        if len(input_shape) == 5:
            return self._backward_stacked(grad_output)
        batch, _, height, width = input_shape
        count = batch * height * width

        self.gamma.grad += (grad_output * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_output.sum(axis=(0, 2, 3))

        grad_xhat = grad_output * self.gamma.data[None, :, None, None]
        if self.training:
            # Full batch-norm backward (batch statistics depend on x).
            sum_grad = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
            sum_grad_xhat = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
            grad_input = (
                grad_xhat - sum_grad / count - x_hat * sum_grad_xhat / count
            ) * inv_std[None, :, None, None]
        else:
            grad_input = grad_xhat * inv_std[None, :, None, None]
        return grad_input.astype(np.float32)

    def _backward_stacked(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward of a training-mode :meth:`_forward_stacked` (per-variant statistics)."""
        x_hat, inv_std, input_shape = self._cache
        variants, batch, _, height, width = input_shape
        count = batch * height * width
        expand = (slice(None), None, slice(None), None, None)

        self.gamma.stacked_grad += np.stack(
            [(grad_output[v] * x_hat[v]).sum(axis=(0, 2, 3)) for v in range(variants)]
        )
        self.beta.stacked_grad += np.stack(
            [grad_output[v].sum(axis=(0, 2, 3)) for v in range(variants)]
        )

        grad_xhat = grad_output * self.gamma.stacked[expand]
        sum_grad = np.stack(
            [grad_xhat[v].sum(axis=(0, 2, 3)) for v in range(variants)]
        )
        sum_grad_xhat = np.stack(
            [(grad_xhat[v] * x_hat[v]).sum(axis=(0, 2, 3)) for v in range(variants)]
        )
        grad_input = (
            grad_xhat - sum_grad[expand] / count - x_hat * sum_grad_xhat[expand] / count
        ) * inv_std[expand]
        return grad_input.astype(np.float32)

    def __repr__(self) -> str:
        return f"BatchNorm2D(num_features={self.num_features}, momentum={self.momentum})"
