"""Pooling layers: max, average and global average pooling.

Every pooling layer treats each sample independently, so scenario-stacked
``(S, N, C, H, W)`` inputs from the ensemble forward path are handled by
folding the scenario axis into the batch axis (see :mod:`repro.nn.ensemble`);
ensemble forwards drop the backward cache since they are inference-only.
"""

from __future__ import annotations

import numpy as np

from repro.nn.ensemble import fold_scenarios, unfold_scenarios
from repro.nn.functional import col2im, im2col
from repro.nn.module import Module
from repro.utils.validation import check_positive_int

__all__ = ["MaxPool2D", "AvgPool2D", "GlobalAvgPool2D"]


class MaxPool2D(Module):
    """Max pooling over non-overlapping (or strided) windows."""

    def __init__(self, kernel_size: int = 2, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(stride if stride is not None else kernel_size, "stride")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.padding = int(padding)
        self._cache = None
        self._window_cache = None
        self._stacked_lead: int | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        self._stacked_lead = None
        self._window_cache = None
        if x.ndim == 5:
            if self.training:
                # Variant-stacked training: fold the variant axis into the
                # batch axis so the cached pooling path (and its backward)
                # applies unchanged, then restore the leading axis.  The
                # ubiquitous non-overlapping, unpadded geometry takes the
                # im2col-free window path — windows are a plain reshape with
                # the same (kh, kw) element order as the im2col columns, so
                # max values *and* argmax tie-breaks (hence gradient routing)
                # are bit-identical to the windowed reference.
                folded, lead = fold_scenarios(x)
                if self._is_reshape_geometry(folded):
                    out = self._forward_windows_train(folded)
                else:
                    out = self.forward(folded)
                self._stacked_lead = lead
                return unfold_scenarios(out, lead)
            folded, lead = fold_scenarios(x)
            out = self._forward_inference(folded)
            self._cache = None
            return unfold_scenarios(out, lead)
        batch, channels, _, _ = x.shape
        k = self.kernel_size
        # Treat each channel independently so the window matrix is (N*C, ...)
        reshaped = x.reshape(batch * channels, 1, *x.shape[2:])
        cols, out_h, out_w = im2col(reshaped, k, k, self.stride, self.padding)
        argmax = np.argmax(cols, axis=1)
        out = cols[np.arange(cols.shape[0]), argmax]
        out = out.reshape(batch, channels, out_h, out_w)
        self._cache = (argmax, cols.shape, reshaped.shape, x.shape, out_h, out_w)
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
        """Cached im2col-free max pooling for non-overlapping windows.

        Works on strided window-element views with plain elementwise maxima —
        no im2col patch matrix and no argmax over a tiny trailing axis (both
        are iterator-overhead-bound for 2x2 windows).  The winner chain uses
        strict ``>`` against the running maximum, so ties keep the earliest
        (ky, kx) in row-major order — exactly the im2col path's flat
        ``argmax`` winner — making values *and* gradient routing bit-identical
        to the windowed reference.
        """
        slices = self._window_slices(x)
        # order='C' (not the default 'K'): the im2col reference emits
        # C-contiguous outputs, and downstream layout-sensitive reductions
        # (e.g. the relative noise scale) must see the same memory order.
        out = slices[0].astype(np.float32, order="C", copy=True)
        winner = np.zeros(out.shape, dtype=np.int8)
        for index, piece in enumerate(slices[1:], start=1):
            better = piece > out
            np.copyto(out, piece, where=better)
            winner[better] = index
        self._window_cache = (winner, x.shape)
        return out

    def _forward_inference(self, x: np.ndarray) -> np.ndarray:
        """Cache-free max pooling for the scenario-stacked ensemble path.

        For the ubiquitous non-overlapping, unpadded case the maximum is a
        running in-place ``np.maximum`` over the strided window-element views
        (the training path's windows, without its winner bookkeeping); no
        im2col patch matrix, argmax or windowed ``max`` reduction, which is
        iterator-bound for 2x2 windows.  ``max`` is order-independent, so the
        values equal the windowed path's.  Other geometries fall back to the
        im2col forward.
        """
        if self._is_reshape_geometry(x):
            slices = self._window_slices(x)
            # order='C': the im2col path emits C-contiguous outputs (see
            # _forward_windows_train).
            out = slices[0].astype(np.float32, order="C", copy=True)
            for piece in slices[1:]:
                np.maximum(out, piece, out=out)
            return out
        out = self.forward(x)
        self._cache = None
        return out

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
        argmax, cols_shape, reshaped_shape, input_shape, out_h, out_w = self._cache
        grad_cols = np.zeros(cols_shape, dtype=np.float32)
        grad_flat = grad_output.reshape(-1)
        grad_cols[np.arange(cols_shape[0]), argmax] = grad_flat
        k = self.kernel_size
        grad_reshaped = col2im(grad_cols, reshaped_shape, k, k, self.stride, self.padding)
        return grad_reshaped.reshape(input_shape)

    def _backward_windows(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward of :meth:`_forward_windows_train` (non-overlapping scatter)."""
        winner, input_shape = self._window_cache
        grad_input = np.zeros(input_shape, dtype=np.float32)
        for index, piece in enumerate(self._window_slices(grad_input)):
            np.copyto(piece, grad_output, where=(winner == index))
        return grad_input

    def __repr__(self) -> str:
        return f"MaxPool2D(kernel_size={self.kernel_size}, stride={self.stride})"


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
