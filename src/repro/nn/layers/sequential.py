"""Sequential container executing child modules in order."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["Sequential"]


class Sequential(Module):
    """Run child modules in order; backward runs them in reverse."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def append(self, layer: Module) -> "Sequential":
        """Append a layer and return self (builder style)."""
        self.layers.append(layer)
        return self

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __iter__(self):
        return iter(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def stages(self) -> list[Module]:
        return [stage for layer in self.layers for stage in layer.stages()]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
            if grad_output is None:
                # A stacked-training layer consumed a shared (raw) input and
                # skipped its input gradient; everything further upstream is
                # a paramless transform of that shared input, so stop here.
                break
        return grad_output

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential({inner})"
