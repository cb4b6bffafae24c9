"""Fully-connected (dense) layer."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module
from repro.nn.tensor import Parameter
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive_int

__all__ = ["Linear"]


class Linear(Module):
    """Affine transform ``y = x @ W.T + b``.

    The weight matrix is stored as ``(out_features, in_features)``; its rows
    are the per-output-neuron weight vectors that the accelerator maps onto
    MR banks in the FC block (``kind="fc"``).

    Parameters
    ----------
    in_features, out_features:
        Input / output dimensionality.
    bias:
        Include a bias vector (kept in the electronic domain, never mapped to
        MRs).
    rng:
        Seed or generator for weight initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ):
        super().__init__()
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        rng = default_rng(rng)
        self.weight = Parameter(
            init.he_normal((out_features, in_features), rng), kind="fc"
        )
        self.bias = Parameter(init.zeros((out_features,)), kind="bias") if bias else None
        self._cached_input: np.ndarray | None = None
        self._shared_stacked_input = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 3 or self.weight.stacked is not None:
            return self._forward_stacked(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expects input of shape (N, {self.in_features}), got {x.shape}"
            )
        self._cached_input = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def _forward_stacked(self, x: np.ndarray) -> np.ndarray:
        """Forward over a leading model axis: ``(S?, N, F) x (S?, O, F) -> (S, N, O)``.

        The ``S`` weight sets are the stacked matrices — corrupted copies in
        attacked inference, variants in stacked training — or the plain
        matrix as a stack of one when only the input is stacked.  One
        batched matmul contracts every set; a shared 2-D input, or any
        singleton leading axis, broadcasts against the other operand's
        ``S`` without a copy.

        Only a training-mode forward on trainable stacked weights caches the
        input for :meth:`backward`.  A shared input is then (a paramless
        transform of) the raw image batch, since every downstream activation
        in stacked training carries the variant axis, so :meth:`backward`
        skips its (unconsumed) gradient as
        :class:`~repro.nn.layers.conv.Conv2D` does for shared 4-D inputs.
        """
        if x.ndim not in (2, 3) or x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expects input (N, {self.in_features}) or "
                f"(S, N, {self.in_features}), got {x.shape}"
            )
        self._cached_input = None
        weights = self.weight.stacked
        if weights is None:
            weights = self.weight.data[None]
        shared_input = x.ndim == 2
        if shared_input:
            x = x[None]
        out = np.matmul(x, weights.transpose(0, 2, 1))
        if self.bias is not None:
            if self.bias.stacked is not None:
                out = out + self.bias.stacked[:, None, :]
            else:
                out = out + self.bias.data
        if self.training and self.weight.stacked_trainable:
            self._cached_input = x
            self._shared_stacked_input = shared_input
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cached_input is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        if self._cached_input.ndim == 3:
            # Variant-stacked backward: one gradient slab per variant.
            self.weight.stacked_grad += np.matmul(
                grad_output.transpose(0, 2, 1), self._cached_input
            )
            if self.bias is not None:
                self.bias.stacked_grad += grad_output.sum(axis=1)
            if self._shared_stacked_input:
                return None  # nothing trainable sits upstream of a shared input
            return np.matmul(grad_output, self.weight.stacked)
        self.weight.grad += grad_output.T @ self._cached_input
        if self.bias is not None:
            self.bias.grad += grad_output.sum(axis=0)
        return grad_output @ self.weight.data

    def __repr__(self) -> str:
        return (
            f"Linear(in_features={self.in_features}, out_features={self.out_features}, "
            f"bias={self.bias is not None})"
        )
