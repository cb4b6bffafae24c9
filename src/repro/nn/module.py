"""Base class for all layers and models."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Parameter

__all__ = ["Module"]


class Module:
    """Base class providing parameter registration and train/eval switching.

    Subclasses implement :meth:`forward` (and cache whatever intermediate
    values their :meth:`backward` needs).  Child modules and parameters are
    discovered automatically from instance attributes, so ordinary attribute
    assignment is all a subclass needs:

    >>> class Block(Module):
    ...     def __init__(self):
    ...         super().__init__()
    ...         self.fc = Linear(4, 2)
    ...     def forward(self, x):
    ...         return self.fc(x)
    ...     def backward(self, grad):
    ...         return self.fc.backward(grad)
    """

    #: Names of plain-array state attributes (e.g. batch-norm running
    #: statistics) that belong to the module's persistent state but are not
    #: trainable parameters.  Subclasses override this tuple; discovery and
    #: serialization go through :meth:`named_buffers`.
    _buffer_names: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------ core
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def stages(self) -> list["Module"]:
        """The modules whose application in order is this module's :meth:`forward`.

        Chaining an input through the stages equals :meth:`forward` bit for
        bit, plain or with a stacked state loaded, so a caller may start a
        forward at any stage from that stage's input (the attacked-inference
        engine starts each scenario group at the first stage it corrupts).
        The default is the module itself; a container whose forward is a
        plain chain of children returns its children's stages, flattened.
        """
        return [self]

    # -------------------------------------------------------------- discovery
    def children(self) -> Iterator["Module"]:
        """Yield immediate child modules (attribute order)."""
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        """Yield ``(attribute_name, module)`` pairs for immediate children."""
        for key, value in self.__dict__.items():
            if isinstance(value, Module):
                yield key, value
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{key}.{index}", item

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for child in self.children():
            yield from child.modules()

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters of this module and its children."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        """Return ``(dotted_name, parameter)`` pairs, depth-first.

        Also back-fills ``Parameter.name`` so downstream consumers (the
        accelerator mapping, serialization) see stable names.
        """
        result: list[tuple[str, Parameter]] = []
        for key, value in self.__dict__.items():
            full = f"{prefix}{key}"
            if isinstance(value, Parameter):
                if not value.name:
                    value.name = full
                result.append((full, value))
            elif isinstance(value, Module):
                result.extend(value.named_parameters(prefix=f"{full}."))
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        result.extend(item.named_parameters(prefix=f"{full}.{index}."))
                    elif isinstance(item, Parameter):
                        name = f"{full}.{index}"
                        if not item.name:
                            item.name = name
                        result.append((name, item))
        return result

    # ----------------------------------------------------------------- modes
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout, noise, batch norm)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Reset gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------- state I/O
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name→array snapshot of all parameters (copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from a :meth:`state_dict` snapshot."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(param.size for param in self.parameters()))

    # ---------------------------------------------------------------- buffers
    def named_buffers(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        """Return ``(dotted_name, array)`` pairs for all state buffers.

        Buffers are the non-trainable arrays declared in ``_buffer_names``
        (batch-norm running statistics); they complete the parameter state
        for checkpointing, since :meth:`state_dict` only covers parameters.
        """
        result: list[tuple[str, np.ndarray]] = [
            (f"{prefix}{name}", getattr(self, name)) for name in self._buffer_names
        ]
        for key, value in self.__dict__.items():
            if isinstance(value, Module):
                result.extend(value.named_buffers(prefix=f"{prefix}{key}."))
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        result.extend(
                            item.named_buffers(prefix=f"{prefix}{key}.{index}.")
                        )
        return result

    def full_state_dict(self) -> dict[str, np.ndarray]:
        """Parameters *and* buffers as one name→array snapshot (copies).

        This is the complete persistent state of the model: loading it into a
        freshly built instance reproduces inference exactly, including
        batch-norm running statistics that :meth:`state_dict` omits.
        """
        state = self.state_dict()
        for name, value in self.named_buffers():
            state[name] = np.asarray(value).copy()
        return state

    def load_full_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`full_state_dict`."""
        buffer_names = {name for name, _ in self.named_buffers()}
        params_state = {
            name: value for name, value in state.items() if name not in buffer_names
        }
        self.load_state_dict(params_state)
        missing = sorted(buffer_names - set(state))
        if missing:
            raise KeyError(f"full state dict is missing buffer(s): {missing}")
        buffers = dict(self.named_buffers())
        for name in buffer_names:
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != buffers[name].shape:
                raise ValueError(
                    f"shape mismatch for buffer {name}: expected "
                    f"{buffers[name].shape}, got {value.shape}"
                )
            self._set_buffer(name, value.copy())

    def _set_buffer(self, dotted: str, value: np.ndarray) -> None:
        """Assign a buffer by its dotted :meth:`named_buffers` name.

        Path segments are attribute names, with numeric segments indexing
        into list/tuple children (mirroring :meth:`named_buffers` paths such
        as ``net.layers.3.running_mean``).
        """
        target: object = self
        parts = dotted.split(".")
        for part in parts[:-1]:
            if part.isdigit():
                target = target[int(part)]  # type: ignore[index]
            else:
                target = getattr(target, part)
        setattr(target, parts[-1], value)

    # ------------------------------------------------------- stacked weights
    def load_stacked_state(
        self, stacked: dict[str, np.ndarray], trainable: bool = False
    ) -> None:
        """Attach per-scenario stacked values ``(S, *shape)`` to parameters.

        ``stacked`` may cover any subset of the named parameters (the attack
        batch only stacks the mapped conv/fc weights); every supplied array
        must share the same leading scenario count ``S`` — except for the
        singleton ``S = 1``, which broadcasts against the other scenarios
        (used to carry a single shared weight set through the ensemble).
        While stacked values are loaded, the forward pass evaluates all
        scenarios at once (see :mod:`repro.nn.ensemble`); call
        :meth:`clear_stacked_state` (or use the context manager) to return to
        the ordinary single-weight forward.

        With ``trainable=True`` the stacked state becomes the *variant-grid
        training* state: ``stacked`` must cover **every** named parameter
        (the optimizer updates whole per-variant weight sets), singleton
        broadcasting is disallowed, and each parameter gains a
        ``stacked_grad`` buffer so training-mode forwards cache what their
        stacked ``backward`` needs.
        """
        params = dict(self.named_parameters())
        unexpected = sorted(set(stacked) - set(params))
        if unexpected:
            raise KeyError(f"stacked state has unknown parameter(s): {unexpected}")
        if trainable:
            missing = sorted(set(params) - set(stacked))
            if missing:
                raise KeyError(
                    f"trainable stacked state must cover every parameter; "
                    f"missing: {missing}"
                )
        scenario_counts = set()
        for name, value in stacked.items():
            value = np.asarray(value, dtype=np.float32)
            if value.ndim == 0 or value.shape[1:] != params[name].data.shape:
                raise ValueError(
                    f"stacked value for {name} must have shape (S, "
                    f"{', '.join(map(str, params[name].data.shape))}), got {value.shape}"
                )
            if value.shape[0] != 1 or trainable:
                scenario_counts.add(value.shape[0])
        if len(scenario_counts) > 1:
            raise ValueError(
                f"inconsistent scenario counts in stacked state: {sorted(scenario_counts)}"
            )
        for name, value in stacked.items():
            param = params[name]
            param.stacked = np.asarray(value, dtype=np.float32).copy() if trainable else (
                np.asarray(value, dtype=np.float32)
            )
            param.stacked_grad = np.zeros_like(param.stacked) if trainable else None

    def clear_stacked_state(self) -> None:
        """Detach every stacked per-scenario value loaded on this module."""
        for param in self.parameters():
            param.stacked = None
            param.stacked_grad = None

    def has_stacked_state(self) -> bool:
        """True when any parameter currently carries a stacked value."""
        return any(param.stacked is not None for param in self.parameters())
