"""Gradient-based optimizers: SGD with momentum and Adam.

Both support decoupled ``weight_decay`` applied only to ``conv``/``fc``
weight tensors, which implements the L2 regularization mitigation from the
paper (§V.A) during training.

Both optimizers are *stacked-aware*: a parameter carrying a trainable
stacked value (one weight slab per model variant, see
:meth:`repro.nn.module.Module.load_stacked_state`) is updated slab-by-slab
from its ``stacked_grad`` buffer, and ``weight_decay`` may be a ``(V,)``
array carrying one decay coefficient per variant (the mitigation grid trains
``Original`` without decay next to the L2-regularized variants in the same
stacked pass).  Scalar decay on ordinary parameters behaves exactly as
before.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]

_DECAY_KINDS = ("conv", "fc")


class Optimizer:
    """Base class holding the parameter list and weight-decay policy."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float,
        weight_decay: float | np.ndarray = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if np.any(np.asarray(weight_decay) < 0):
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = float(lr)
        if isinstance(weight_decay, np.ndarray) or np.ndim(weight_decay) > 0:
            # Per-variant decay vector; cast to float32 so the decay term is
            # computed in the same precision as the scalar path.
            self.weight_decay = np.asarray(weight_decay, dtype=np.float32)
        else:
            self.weight_decay = float(weight_decay)

    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    @staticmethod
    def _target(param: Parameter) -> tuple[np.ndarray, np.ndarray]:
        """The (values, gradient) pair this step updates — stacked when present."""
        if param.stacked_trainable:
            return param.stacked, param.stacked_grad
        return param.data, param.grad

    def _decayed_grad(self, param: Parameter) -> np.ndarray:
        """Gradient with the L2 (weight-decay) term added for weight tensors."""
        data, grad = self._target(param)
        if param.kind not in _DECAY_KINDS:
            return grad
        decay = self.weight_decay
        if isinstance(decay, np.ndarray):
            if not np.any(decay > 0):
                return grad
            if data.ndim < 1 or data.shape[0] != decay.shape[0]:
                raise ValueError(
                    f"per-variant weight_decay has {decay.shape[0]} entries but "
                    f"parameter {param.name!r} update target has shape {data.shape}"
                )
            return grad + decay.reshape((-1,) + (1,) * (data.ndim - 1)) * data
        if decay > 0:
            return grad + decay * data
        return grad

    def _state_for(self, param: Parameter, buffers: list, index: int) -> np.ndarray:
        """Return (lazily re-allocating) the state buffer matching ``param``.

        Attaching or clearing a trainable stacked value changes the update
        target's shape; the state buffer is reset in that case, which matches
        starting a fresh stacked (or unstacked) training run.
        """
        target = self._target(param)[0]
        if buffers[index] is None or buffers[index].shape != target.shape:
            buffers[index] = np.zeros_like(target)
        return buffers[index]


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float | np.ndarray = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: list[np.ndarray | None] = [None] * len(self.parameters)

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            grad = self._decayed_grad(param)
            if self.momentum > 0:
                velocity = self._state_for(param, self._velocity, index)
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            data, _ = self._target(param)
            data -= self.lr * update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float | np.ndarray = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        beta1, beta2 = betas
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._step_count = 0
        self._m: list[np.ndarray | None] = [None] * len(self.parameters)
        self._v: list[np.ndarray | None] = [None] * len(self.parameters)

    def step(self) -> None:
        """One bias-corrected Adam update of every parameter, in place.

        ``m``, ``v`` and the weights are updated in place, and every
        intermediate lands in one two-slot scratch buffer per parameter, each
        operation in the order of the textbook expressions ``m = beta1 * m +
        (1 - beta1) * g``, ``v = beta2 * v + (1 - beta2) * g**2`` and ``w -=
        lr * (m / bias1) / (sqrt(v / bias2) + eps)``, so the float32 results
        are bit-identical to them.
        """
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for index, param in enumerate(self.parameters):
            grad = self._decayed_grad(param)
            m = self._state_for(param, self._m, index)
            v = self._state_for(param, self._v, index)
            data, _ = self._target(param)
            term, update = np.empty((2,) + data.shape, dtype=data.dtype)
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=term)
            v *= self.beta2
            np.square(grad, out=term)
            v += np.multiply(term, 1.0 - self.beta2, out=term)
            denominator = np.sqrt(np.divide(v, bias2, out=term), out=term)
            denominator += self.eps
            np.divide(m, bias1, out=update)
            update *= self.lr
            update /= denominator
            data -= update
