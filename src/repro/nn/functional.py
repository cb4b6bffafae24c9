"""Stateless numerical routines shared by the layers: im2col, softmax, etc."""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_size",
    "batch_tile",
    "im2col",
    "col2im",
    "softmax",
    "log_softmax",
    "relu",
    "sigmoid",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"Invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


#: Bytes of per-sample data one batch tile covers: small enough that the
#: several strided passes a kernel makes over a tile (im2col's and col2im's
#: ``kernel_h * kernel_w`` passes, max pooling's window slots) run in L2
#: cache instead of streaming the whole batch through memory on every pass.
_TILE_BYTES = 512 * 1024


def batch_tile(batch: int, sample_bytes: int) -> int:
    """Samples per batch tile: as many as fit in ``_TILE_BYTES``, at least one."""
    return max(1, min(batch, _TILE_BYTES // max(1, sample_bytes)))


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``x`` (NCHW) into a matrix of sliding patches.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N * out_h * out_w, C * kernel_h * kernel_w)``: one row per output
    pixel, its patch in (C, kh, kw) order, padded with zeros.

    The batch is unfolded in tiles of about ``_TILE_BYTES`` of patches.  Each
    tile is copied, in any input layout, into the interior of a zeroed
    C-contiguous buffer that holds the padding border and ``stride`` spare
    rows under each plane.  Each ``(ky, kx)`` plane is then gathered as whole
    padded rows: ``out_h`` runs of ``padded_w`` elements starting at row
    ``ky`` and column ``kx``, one contiguous run of ``out_h * padded_w``
    elements per sample and channel at stride 1.  A run's last row may reach
    into the next row or the spare rows, but only in columns past the
    ``out_w`` valid ones, which the transpose into ``cols`` leaves out.
    Every element is a copy, so neither the tiling nor the gather can
    change a value.
    """
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    cols = np.empty((batch, out_h, out_w, channels, kernel_h, kernel_w), dtype=x.dtype)
    tile = batch_tile(batch, channels * kernel_h * kernel_w * out_h * padded_w * x.itemsize)
    patches = np.empty((tile, channels, kernel_h, kernel_w, out_h, padded_w), dtype=x.dtype)
    padded = np.zeros((tile, channels, padded_h + stride, padded_w), dtype=x.dtype)
    interior = padded[:, :, padding:padding + height, padding:padding + width]
    planes = padded.reshape(tile, channels, -1)
    run = stride * out_h * padded_w
    for start in range(0, batch, tile):
        stop = min(start + tile, batch)
        count = stop - start
        interior[:count] = x[start:stop]
        block = patches[:count]
        for ky in range(kernel_h):
            for kx in range(kernel_w):
                first = ky * padded_w + kx
                rows = planes[:count, :, first:first + run].reshape(
                    count, channels, out_h, stride * padded_w
                )
                block[:, :, ky, kx] = rows[..., :padded_w]
        valid = block[..., : stride * (out_w - 1) + 1 : stride]
        cols[start:stop] = valid.transpose(0, 4, 5, 1, 2, 3)
    return cols.reshape(batch * out_h * out_w, channels * kernel_h * kernel_w), out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a patch matrix produced by :func:`im2col` back into an NCHW tensor.

    Overlapping patch contributions are summed, which is exactly the gradient
    of the unfold operation: each padded-output element starts at ``0.0``
    and receives its additions in ``(ky, kx)`` order.

    The batch is folded in tiles of about ``_TILE_BYTES`` of patches.  A
    tile sums into a zeroed channels-last accumulator, where each
    ``(ky, kx)`` pass adds whole ``(out_w, C)`` rows of patches at once, and
    is then copied into its slab of the padded output.  The order of
    additions per element is unchanged, so the tiling cannot change a value.
    """
    batch, channels, height, width = input_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    cols = cols.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w)
    padded_h, padded_w = height + 2 * padding, width + 2 * padding
    padded = np.empty((batch, channels, padded_h, padded_w), dtype=cols.dtype)
    tile = batch_tile(batch, cols[:1].nbytes)
    sums = np.empty((tile, padded_h, padded_w, channels), dtype=cols.dtype)
    for start in range(0, batch, tile):
        stop = min(start + tile, batch)
        block = cols[start:stop]
        target = sums[: stop - start]
        target.fill(0)
        for ky in range(kernel_h):
            y_end = ky + stride * out_h
            for kx in range(kernel_w):
                x_end = kx + stride * out_w
                target[:, ky:y_end:stride, kx:x_end:stride, :] += block[..., ky, kx]
        padded[start:stop] = target.transpose(0, 3, 1, 2)
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise rectified linear unit."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic sigmoid (stable for large ``|x|``).

    Computed directly in the input's floating dtype — no float64 temporary
    and no cast-back copy.
    """
    dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    out = np.empty_like(x, dtype=dtype)
    positive = x >= 0
    negative = ~positive
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[negative])
    out[negative] = exp_x / (1.0 + exp_x)
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels as a float32 ``(N, num_classes)`` matrix.

    The single one-hot encoder in the package; the losses build their
    (optionally label-smoothed) targets on top of it.
    """
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
