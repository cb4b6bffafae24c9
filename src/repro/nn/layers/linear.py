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
        if self.training and self.weight.stacked_trainable:
            return self._forward_stacked_train(x)
        if x.ndim == 3 or self.weight.stacked is not None:
            return self._forward_ensemble(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expects input of shape (N, {self.in_features}), got {x.shape}"
            )
        self._cached_input = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def _forward_stacked_train(self, x: np.ndarray) -> np.ndarray:
        """Variant-stacked training forward: ``(V, N, F) x (V, O, F) -> (V, N, O)``.

        All ``V`` variants contract against their own weight slab in one
        batched matmul; the cached stacked input lets :meth:`backward`
        accumulate one gradient slab per variant.  A 2-D input — still shared
        across variants, i.e. (a paramless transform of) the raw input batch,
        since every downstream activation in stacked training carries the
        variant axis — is broadcast to the variant count without copying, and
        :meth:`backward` skips its (unconsumed) input gradient like
        :class:`~repro.nn.layers.conv.Conv2D` does for shared 4-D inputs.
        """
        stacked = self.weight.stacked
        if x.ndim not in (2, 3) or x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expects input (N, {self.in_features}) or "
                f"(V, N, {self.in_features}), got {x.shape}"
            )
        self._shared_stacked_input = x.ndim == 2
        if x.ndim == 2:
            x = np.broadcast_to(x[None], (stacked.shape[0],) + x.shape)
        self._cached_input = x
        out = np.matmul(x, stacked.transpose(0, 2, 1))
        if self.bias is not None:
            out = out + self.bias.stacked[:, None, :]
        return out

    def _forward_ensemble(self, x: np.ndarray) -> np.ndarray:
        """Scenario-stacked forward: ``(S?, N, F) x (S?, O, F) -> (S, N, O)``.

        Either operand may be shared — a 2-D input against stacked weights is
        the canonical ``einsum('nf,sof->sno')`` contraction, expressed as a
        batched matmul so every scenario hits BLAS; a stacked input against
        shared weights broadcasts through a plain matmul.  Singleton leading
        axes broadcast against the other operand's scenario count.
        """
        if x.ndim not in (2, 3) or x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expects input (N, {self.in_features}) or "
                f"(S, N, {self.in_features}), got {x.shape}"
            )
        self._cached_input = None  # ensemble forwards are inference-only
        stacked = self.weight.stacked
        if stacked is None:
            out = x @ self.weight.data.T
        else:
            lhs = x[None] if x.ndim == 2 else x
            out = np.matmul(lhs, stacked.transpose(0, 2, 1))
        if self.bias is not None:
            if self.bias.stacked is not None:
                out = out + self.bias.stacked[:, None, :]
            else:
                out = out + self.bias.data
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
