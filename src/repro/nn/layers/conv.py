"""2-D convolution layer implemented via im2col."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.functional import col2im, im2col
from repro.nn.module import Module
from repro.nn.tensor import Parameter
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive_int

__all__ = ["Conv2D"]


class Conv2D(Module):
    """2-D convolution over NCHW inputs.

    The kernel tensor has shape ``(out_channels, in_channels, kh, kw)`` and is
    tagged ``kind="conv"`` so the accelerator maps it onto the CONV block's
    MR banks.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel side (int) or ``(kh, kw)`` tuple.
    stride, padding:
        Convolution stride and symmetric zero padding.
    bias:
        Include per-output-channel bias.
    rng:
        Seed or generator for weight initialization.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int] = 3,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        self.in_channels = check_positive_int(in_channels, "in_channels")
        self.out_channels = check_positive_int(out_channels, "out_channels")
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.kernel_size = (
            check_positive_int(kernel_size[0], "kernel_size[0]"),
            check_positive_int(kernel_size[1], "kernel_size[1]"),
        )
        self.stride = check_positive_int(stride, "stride")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.padding = int(padding)
        rng = default_rng(rng)
        weight_shape = (out_channels, in_channels, *self.kernel_size)
        self.weight = Parameter(init.he_normal(weight_shape, rng), kind="conv")
        self.bias = Parameter(init.zeros((out_channels,)), kind="bias") if bias else None
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 5 or self.weight.stacked is not None:
            return self._forward_stacked(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        self._cache = None
        kh, kw = self.kernel_size
        cols, out_h, out_w = im2col(x, kh, kw, self.stride, self.padding)
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ weight_matrix.T
        if self.bias is not None:
            out = out + self.bias.data
        batch = x.shape[0]
        out = out.reshape(batch, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        if self.training:
            self._cache = (cols, x.shape, out_h, out_w)
        return out

    def _forward_stacked(self, x: np.ndarray) -> np.ndarray:
        """Forward over a leading model axis: ``(S?, N, C, H, W) -> (S, N, F, OH, OW)``.

        The ``S`` weight sets are the stacked kernels — corrupted copies in
        attacked inference, variants in stacked training — or the plain
        kernel as a stack of one when only the input is stacked.  A shared
        4-D input is unfolded **once** and its patch matrix meets every
        weight set in one batched matmul; a 5-D input folds its leading axis
        into the batch for the unfold, giving each set its own patch slab
        (a singleton leading axis broadcasts against ``S`` sets).

        Only a training-mode forward on trainable stacked kernels keeps the
        patches for :meth:`backward`; the previous batch's cache is dropped
        before the next unfold either way.  A shared input is then the raw
        image batch, so :meth:`backward` skips its (discarded) gradient.
        """
        if x.ndim not in (4, 5) or x.shape[-3] != self.in_channels:
            raise ValueError(
                f"Conv2D expects input (N, {self.in_channels}, H, W) or "
                f"(S, N, {self.in_channels}, H, W), got {x.shape}"
            )
        self._cache = None
        weights = self.weight.stacked
        if weights is None:
            weights = self.weight.data[None]
        shared_input = x.ndim == 4
        lead = 1 if shared_input else x.shape[0]
        batch = x.shape[-4]
        kh, kw = self.kernel_size
        cols, out_h, out_w = im2col(
            x.reshape((lead * batch,) + x.shape[-3:]), kh, kw, self.stride, self.padding
        )
        cols = cols.reshape(lead, batch * out_h * out_w, -1)
        out = np.matmul(
            cols, weights.reshape(weights.shape[0], self.out_channels, -1).transpose(0, 2, 1)
        )
        if self.bias is not None:
            # One long add per sample row (the bias tiled over its OH*OW
            # pixels) into the fresh matmul output; stacked biases over a
            # single weight set are the one case that needs a new array.
            bias = self.bias.data[None] if self.bias.stacked is None else self.bias.stacked
            tiled = np.tile(bias, out_h * out_w)[:, None, :]
            rows = out.reshape(out.shape[0], batch, -1)
            if tiled.shape[0] > rows.shape[0]:
                rows = rows + tiled
            else:
                rows += tiled
            out = rows
        if self.training and self.weight.stacked_trainable:
            self._cache = ("stacked", cols, shared_input, x.shape, out_h, out_w)
        return out.reshape(out.shape[0], batch, out_h, out_w, self.out_channels).transpose(
            0, 1, 4, 2, 3
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        if isinstance(self._cache[0], str):  # "stacked" marker
            return self._backward_stacked(np.asarray(grad_output, dtype=np.float32))
        cols, input_shape, out_h, out_w = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float32)
        batch = input_shape[0]
        # (N, F, OH, OW) -> (N*OH*OW, F)
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(batch * out_h * out_w, -1)
        weight_matrix = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += (grad_matrix.T @ cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_matrix.sum(axis=0)
        grad_cols = grad_matrix @ weight_matrix
        kh, kw = self.kernel_size
        return col2im(grad_cols, input_shape, kh, kw, self.stride, self.padding)

    def _backward_stacked(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward of a training-mode :meth:`_forward_stacked`.

        Accumulates one kernel/bias gradient slab per variant and returns the
        per-variant input gradient ``(V, N, C, H, W)``.  A shared 4-D input
        is the raw image batch (nothing upstream consumes its gradient), so
        that case skips the input-gradient matmul/col2im entirely and
        returns ``None``.
        """
        _, cols, shared_input, input_shape, out_h, out_w = self._cache
        variants = self.weight.stacked.shape[0]
        batch = input_shape[-4]
        # (V, N, F, OH, OW) -> (V, N*OH*OW, F)
        grad_matrix = grad_output.transpose(0, 1, 3, 4, 2).reshape(
            variants, batch * out_h * out_w, -1
        )
        self.weight.stacked_grad += np.matmul(
            grad_matrix.transpose(0, 2, 1), cols
        ).reshape(self.weight.stacked.shape)
        if self.bias is not None:
            self.bias.stacked_grad += _stacked_bias_grad(grad_matrix)
        if shared_input:
            return None
        weight_matrix = self.weight.stacked.reshape(variants, self.out_channels, -1)
        grad_cols = np.matmul(grad_matrix, weight_matrix)
        kh, kw = self.kernel_size
        folded_shape = (variants * batch,) + tuple(input_shape[2:])
        grad_input = col2im(
            grad_cols.reshape(variants * batch * out_h * out_w, -1),
            folded_shape, kh, kw, self.stride, self.padding,
        )
        return grad_input.reshape((variants, batch) + grad_input.shape[1:])

    def output_shape(self, input_hw: tuple[int, int]) -> tuple[int, int, int]:
        """Return ``(out_channels, out_h, out_w)`` for an input of ``(h, w)``."""
        kh, kw = self.kernel_size
        out_h = (input_hw[0] + 2 * self.padding - kh) // self.stride + 1
        out_w = (input_hw[1] + 2 * self.padding - kw) // self.stride + 1
        return self.out_channels, out_h, out_w

    def __repr__(self) -> str:
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, padding={self.padding})"
        )


def _stacked_bias_grad(grad_matrix: np.ndarray) -> np.ndarray:
    """Per-variant bias gradients ``(V, F)`` of a ``(V, rows, F)`` gradient matrix.

    ``grad_matrix.sum(axis=1)`` adds the rows one at a time with an inner
    loop only ``F`` elements wide.  The same row-by-row sum over one
    contiguous ``(rows, V * F)`` copy runs that loop ``V * F`` wide, and
    every element still adds its rows in the same order, so the result is
    bit-identical to the serial backward's ``(rows, F)`` sum per variant.
    A single channel is a contiguous column that NumPy sums pairwise, in the
    serial backward too, so ``F = 1`` keeps that reduction.
    """
    variants, rows, channels = grad_matrix.shape
    if channels == 1:
        return grad_matrix.sum(axis=1)
    wide = np.ascontiguousarray(grad_matrix.transpose(1, 0, 2)).reshape(rows, -1)
    return wide.sum(axis=0).reshape(variants, channels)
