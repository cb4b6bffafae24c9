"""Pooling layers: max, average and global average pooling.

Every pooling layer treats each sample independently, so scenario-stacked
``(S, N, C, H, W)`` inputs from the ensemble forward path are handled by
folding the scenario axis into the batch axis (see :mod:`repro.nn.ensemble`);
ensemble forwards drop the backward cache since they are inference-only.
"""

from __future__ import annotations

import numpy as np

from repro.nn.ensemble import fold_scenarios, unfold_scenarios
from repro.nn.functional import batch_tile, col2im, im2col
from repro.nn.module import Module
from repro.utils.validation import check_positive_int

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class MaxPool2D(Module):
    """Max pooling over strided windows.

    Padding is ``-inf``, as in standard max pooling, so a window's maximum
    comes from its input elements; it is at most ``kernel_size // 2`` wide,
    so every window holds at least one.
    """

    def __init__(self, kernel_size: int = 2, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(stride if stride is not None else kernel_size, "stride")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        if padding > self.kernel_size // 2:
            raise ValueError(
                f"padding must be at most kernel_size // 2 = {self.kernel_size // 2}, "
                f"got {padding}: a wider border makes windows of padding only"
            )
        self.padding = int(padding)
        self._cache = None
        self._window_cache = None
        self._stacked_lead: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._stacked_lead = None
        self._cache = None
        self._window_cache = None
        if x.ndim == 5:
            folded, lead = fold_scenarios(x)
            if self.training:
                # Variant-stacked training: the variant axis folds into the
                # batch axis, so serial and stacked training run the same
                # kernels (and the backward unfolds the gradient again).
                out = self._forward_train(folded)
                self._stacked_lead = lead
                return unfold_scenarios(out, lead)
            return unfold_scenarios(self._forward_inference(folded), lead)
        if self.training:
            return self._forward_train(x)
        return self._forward_inference(x)

    def _forward_train(self, x: np.ndarray) -> np.ndarray:
        if self._is_reshape_geometry(x):
            return self._forward_windows_train(x)
        return self._forward_im2col(x)

    def _forward_im2col(self, x: np.ndarray) -> np.ndarray:
        """Cached max pooling for any geometry: ``np.argmax`` over im2col columns."""
        batch, channels, _, _ = x.shape
        k, pad = self.kernel_size, self.padding
        # Treat each channel independently so the window matrix is (N*C, ...)
        reshaped = x.reshape(batch * channels, 1, *x.shape[2:])
        if pad > 0:
            reshaped = np.pad(
                reshaped, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf
            )
        cols, out_h, out_w = im2col(reshaped, k, k, self.stride, 0)
        argmax = np.argmax(cols, axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        out = out.reshape(batch, channels, out_h, out_w)
        self._cache = (argmax, cols.shape, reshaped.shape, x.shape)
        return out

    def _is_reshape_geometry(self, x: np.ndarray) -> bool:
        k = self.kernel_size
        height, width = x.shape[2:]
        return (
            self.padding == 0
            and self.stride == k
            and height % k == 0
            and width % k == 0
        )

    def _window_slices(self, x_or_grad: np.ndarray) -> list[np.ndarray]:
        """The ``k*k`` strided window-element views in (ky, kx) row-major order."""
        k = self.kernel_size
        return [x_or_grad[..., ky::k, kx::k] for ky in range(k) for kx in range(k)]

    def _forward_windows_train(self, x: np.ndarray) -> np.ndarray:
        """Cached max pooling for non-overlapping, unpadded windows.

        Bit-identical to :meth:`_forward_im2col`, without its patch matrix
        and its ``argmax`` over a tiny trailing axis (iterator-bound for 2x2
        windows).  Per batch tile (see :func:`~repro.nn.functional.batch_tile`),
        the ``k*k`` strided window slots are copied into a contiguous
        ``(k*k, n, C, OH, OW)`` buffer; everything after that is an
        elementwise pass over cache-resident contiguous arrays:

        * ``peak`` is the window maximum (NaN if the window holds one);
        * the winner is ``np.argmax``'s: the first slot in (ky, kx) row-major
          order equal to ``peak``, or the first NaN in a NaN window;
        * the output is the winner's own bits, selected through an integer
          view.  ``peak`` alone is not enough: ``np.maximum`` may return
          either zero of a ``-0.0``/``+0.0`` tie, and any NaN of several.

        The output is C-contiguous, as the im2col path's is: later
        layout-sensitive reductions (``GaussianNoise``'s ``slab.std()``)
        sum in memory order.
        """
        slots = self._window_slices(x)
        out = np.zeros(slots[0].shape, dtype=np.float32)
        winner = np.zeros(out.shape, dtype=np.min_scalar_type(len(slots) - 1))
        batch = x.shape[0]
        tile = batch_tile(batch, x[:1].nbytes)
        buffer = np.empty((len(slots), tile) + out.shape[1:], dtype=np.float32)
        for start in range(0, batch, tile):
            rows = slice(start, min(start + tile, batch))
            windows = buffer[:, : rows.stop - start]
            for window, slot in zip(windows, slots):
                window[...] = slot[rows]
            peak = windows.max(axis=0)
            has_nan = bool(np.isnan(peak).any())
            first = winner[rows]
            searching = np.ones(peak.shape, dtype=bool)
            for window in windows[:-1]:
                searching &= window != peak
                if has_nan:
                    searching &= window == window  # a NaN slot wins a NaN window
                first += searching
            selected = out[rows].view(np.int32)
            for index, window in enumerate(windows.view(np.int32)):
                selected |= window * (first == index)
        self._window_cache = (winner, x.shape, _memory_axes(x))
        return out

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Cache-free max pooling for every evaluation-mode forward.

        Serial or stacked, evaluation keeps no backward cache, so a
        :meth:`backward` after it raises.  For the ubiquitous
        non-overlapping, unpadded case each window is reduced in
        channels-last memory order, with no winner bookkeeping:
        first over ``ky``, a running ``np.maximum`` across whole contiguous
        ``width * channels`` rows, then over ``kx``, across adjacent channel
        blocks.  ``Conv2D`` -> ``ReLU`` hands over that layout, so its rows
        are a view; other layouts are copied channels-last first.  Other
        geometries fall back to the im2col forward.

        The values equal the im2col path's and the training windows'
        maxima, but not always their bytes: ``np.maximum`` may return either
        zero of a ``-0.0``/``+0.0`` tie, so a window holding both zeros may
        give the other one.  A zero's sign changes no nonzero value
        downstream, so logits stay value-equal and predictions, accuracies
        and payloads unchanged.  The output is C-contiguous float32, as the
        im2col path's is.
        """
        if not self._is_reshape_geometry(x):
            out = self._forward_im2col(x)
            self._cache = None
            return out
        k = self.kernel_size
        batch, channels, height, width = x.shape
        out_h, out_w = height // k, width // k
        rows = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(
            batch, out_h, k, width * channels
        )
        peaks = _running_max(rows, axis=2).reshape(batch, out_h, out_w, k, channels)
        return np.ascontiguousarray(_running_max(peaks, axis=3).transpose(0, 3, 1, 2))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None and self._window_cache is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        if self._stacked_lead is not None:
            folded, lead = fold_scenarios(grad_output)
            return unfold_scenarios(self._backward_folded(folded), lead)
        return self._backward_folded(grad_output)

    def _backward_folded(self, grad_output: np.ndarray) -> np.ndarray:
        if self._window_cache is not None:
            return self._backward_windows(grad_output)
        argmax, cols_shape, reshaped_shape, input_shape = self._cache
        grad_cols = np.zeros(cols_shape, dtype=np.float32)
        grad_flat = grad_output.reshape(-1)
        grad_cols[np.arange(cols_shape[0]), argmax] = grad_flat
        k, pad = self.kernel_size, self.padding
        grad_reshaped = col2im(grad_cols, reshaped_shape, k, k, self.stride, 0)
        if pad > 0:
            grad_reshaped = grad_reshaped[:, :, pad:-pad, pad:-pad]
        return grad_reshaped.reshape(input_shape)

    def _backward_windows(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward of :meth:`_forward_windows_train`: route each gradient to its winner.

        Bit-identical to the im2col path's ``col2im`` fold: a winner
        receives ``0.0 + g`` (so a ``-0.0`` gradient lands as ``+0.0``) and
        every other element ``+0.0``; the integer-view select cannot turn an
        infinite or NaN gradient into NaN the way ``g * 0.0`` would.

        The gradient is laid out like the forward input (channels-last after
        ``Conv2D`` -> ``ReLU``), so ``ReLU.backward`` multiplies like-laid-out
        arrays and ``Conv2D.backward``'s transpose+reshape is a view, not a
        copy.  Windows tile the input exactly, so every element is written.
        """
        winner, input_shape, axes = self._window_cache
        grad_input = np.empty([input_shape[axis] for axis in axes], dtype=np.float32)
        grad_input = grad_input.transpose(np.argsort(axes))
        slots = self._window_slices(grad_input.view(np.int32))
        batch = input_shape[0]
        tile = batch_tile(batch, grad_input[:1].nbytes)
        for start in range(0, batch, tile):
            rows = slice(start, min(start + tile, batch))
            routed = np.add(grad_output[rows], np.float32(0.0), order="C").view(np.int32)
            first = winner[rows]
            for index, slot in enumerate(slots):
                np.multiply(routed, first == index, out=slot[rows])
        return grad_input

    def __repr__(self) -> str:
        return f"MaxPool2D(kernel_size={self.kernel_size}, stride={self.stride})"


def _memory_axes(x: np.ndarray) -> tuple[int, ...]:
    """``x``'s axes from outermost to innermost in memory (C order for ties)."""
    return tuple(sorted(range(x.ndim), key=lambda axis: -abs(x.strides[axis])))


def _running_max(x: np.ndarray, axis: int) -> np.ndarray:
    """``x``'s maximum over ``axis`` as a running ``np.maximum`` of its slots.

    Each pass is one elementwise ufunc over whole slots; ``x.max(axis)``
    iterates the short window axis instead.  For a C-contiguous ``x`` the
    result is a new C-contiguous array.
    """
    slots = np.moveaxis(x, axis, 0)
    if len(slots) == 1:
        return slots[0].copy()
    out = np.maximum(slots[0], slots[1])
    for slot in slots[2:]:
        np.maximum(out, slot, out=out)
    return out


class AvgPool2D(Module):
    """Average pooling over strided windows."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(stride if stride is not None else kernel_size, "stride")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.padding = int(padding)
        self._cache = None
        self._stacked_lead: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._stacked_lead = None
        if x.ndim == 5:
            folded, lead = fold_scenarios(x)
            out = self.forward(folded)
            if self.training:
                self._stacked_lead = lead
            else:
                self._cache = None
            return unfold_scenarios(out, lead)
        batch, channels, _, _ = x.shape
        k = self.kernel_size
        reshaped = x.reshape(batch * channels, 1, *x.shape[2:])
        cols, out_h, out_w = im2col(reshaped, k, k, self.stride, self.padding)
        out = cols.mean(axis=1).reshape(batch, channels, out_h, out_w)
        self._cache = (cols.shape, reshaped.shape, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float32)
        if self._stacked_lead is not None:
            folded, lead = fold_scenarios(grad_output)
            return unfold_scenarios(self._backward_folded(folded), lead)
        return self._backward_folded(grad_output)

    def _backward_folded(self, grad_output: np.ndarray) -> np.ndarray:
        cols_shape, reshaped_shape, input_shape = self._cache
        window = cols_shape[1]
        grad_cols = np.repeat(grad_output.reshape(-1, 1) / window, window, axis=1)
        k = self.kernel_size
        grad_reshaped = col2im(grad_cols, reshaped_shape, k, k, self.stride, self.padding)
        return grad_reshaped.reshape(input_shape)

    def __repr__(self) -> str:
        return f"AvgPool2D(kernel_size={self.kernel_size}, stride={self.stride})"


class GlobalAvgPool2D(Module):
    """Average over the full spatial extent, producing ``(N, C)`` features."""

    def __init__(self):
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The spatial mean always reduces a C-contiguous slab: numpy groups
        # its pairwise summation by memory layout, and the serial and
        # variant-stacked paths hand this layer differently laid-out (but
        # value-identical) arrays.  Normalizing the layout first makes the
        # two paths reduce bit-identically.
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 5:
            # Cache the stacked shape only in training mode; ensemble
            # inference forwards stay backward-free.
            self._input_shape = x.shape if self.training else None
            return np.stack(
                [np.ascontiguousarray(x[v]).mean(axis=(2, 3)) for v in range(x.shape[0])]
            )
        self._input_shape = x.shape
        return np.ascontiguousarray(x).mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward")
        height, width = self._input_shape[-2:]
        grad_output = np.asarray(grad_output, dtype=np.float32)
        grad = grad_output[..., None, None] / float(height * width)
        return np.broadcast_to(grad, self._input_shape).astype(np.float32).copy()

    def __repr__(self) -> str:
        return "GlobalAvgPool2D()"
