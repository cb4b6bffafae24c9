"""Shared procedural image-synthesis primitives.

The synthetic datasets draw each class from a distinct parametric "prototype"
(oriented strokes for the MNIST stand-in, textured colour blobs for the
CIFAR-10 stand-in, composed scenes for the Imagenette stand-in) and then apply
per-sample jitter: geometric perturbation, amplitude scaling, additive noise.
The result is a classification task that is easy enough to learn quickly on a
CPU yet non-trivial (models do not reach 100% accuracy), which preserves the
paper's relative accuracy-degradation trends under weight corruption.

Every primitive renders one image or a stack of images.  Each parameter is a
scalar or a vector with one value per sample; a vector gives the result a
leading sample axis, so a generator renders all samples of a class in one
broadcast pass.  A stacked render is bit-identical to rendering each sample
alone with scalar parameters, because every parameter enters its expression
in the dtype a Python float takes there under NumPy's promotion rules
(NEP 50: a Python float adopts the array's dtype, a NumPy float64 scalar
such as ``np.cos(angle)`` promotes the array to float64):

* **float32** — centres (subtracted from the float32 coordinate grid), ring
  radii and thicknesses, blob widths (``2 * sigma**2``), checkerboard
  phases and ``pi * periods``;
* **float64** — bar and grating angles (their ``cos``/``sin`` promote the
  coordinates to float64), bar thicknesses and lengths, and grating
  wavenumbers (``2 * pi * freq``) and phases.

Casting a parameter to the other dtype moves pixels by a last bit; the
per-image reference renderers in ``tests/test_dataset_exactness.py`` catch
that.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coordinate_grid",
    "gaussian_blob",
    "oriented_bar",
    "ring",
    "checkerboard",
    "radial_gradient",
    "sinusoidal_texture",
]


def coordinate_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Return normalized coordinate grids ``(yy, xx)`` spanning [-1, 1]."""
    axis = np.linspace(-1.0, 1.0, size, dtype=np.float32)
    yy, xx = np.meshgrid(axis, axis, indexing="ij")
    return yy, xx


def _per_sample(value, dtype) -> np.ndarray:
    """``value`` as ``dtype``, shaped to broadcast against ``(size, size)`` grids.

    A scalar becomes a ``(1, 1)`` array and an ``(n,)`` vector an
    ``(n, 1, 1)`` array, which adds the leading sample axis.
    """
    return np.asarray(value, dtype=dtype)[..., None, None]


def _offsets(size: int, center) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates relative to ``center`` (float32 ``(y, x)`` per sample)."""
    yy, xx = coordinate_grid(size)
    cy, cx = center
    return yy - _per_sample(cy, np.float32), xx - _per_sample(cx, np.float32)


def gaussian_blob(size: int, center, sigma) -> np.ndarray:
    """A 2-D Gaussian bump centred at ``center`` (normalized coordinates)."""
    y, x = _offsets(size, center)
    spread = _per_sample(2.0 * sigma**2, np.float32)
    return np.exp(-(y**2 + x**2) / spread)


def oriented_bar(size: int, angle, thickness=0.15, length=0.8, center=(0.0, 0.0)) -> np.ndarray:
    """A soft-edged bar rotated by ``angle`` radians."""
    y, x = _offsets(size, center)
    angle = _per_sample(angle, np.float64)
    cos, sin = np.cos(angle), np.sin(angle)
    along = x * cos + y * sin
    across = -x * sin + y * cos
    thickness = _per_sample(thickness, np.float64)
    bar = np.exp(-((across / thickness) ** 2)) * (np.abs(along) < _per_sample(length, np.float64))
    return bar.astype(np.float32)


def ring(size: int, radius=0.6, thickness=0.12, center=(0.0, 0.0)) -> np.ndarray:
    """A soft ring (annulus) of given radius/thickness."""
    y, x = _offsets(size, center)
    r = np.sqrt(y**2 + x**2)
    radius = _per_sample(radius, np.float32)
    return np.exp(-(((r - radius) / _per_sample(thickness, np.float32)) ** 2))


def checkerboard(size: int, periods=4, phase=0.0) -> np.ndarray:
    """A smooth checkerboard texture with ``periods`` periods across the image."""
    yy, xx = coordinate_grid(size)
    scale = _per_sample(np.pi * periods, np.float32)
    phase = _per_sample(phase, np.float32)
    pattern = np.sin(scale * (xx + phase)) * np.sin(scale * (yy + phase))
    return 0.5 + 0.5 * pattern


def radial_gradient(size: int, center=(0.0, 0.0)) -> np.ndarray:
    """A radial intensity gradient (bright centre, dark edge)."""
    y, x = _offsets(size, center)
    r = np.sqrt(y**2 + x**2)
    return np.clip(1.0 - r / np.sqrt(2.0), 0.0, 1.0).astype(np.float32)


def sinusoidal_texture(size: int, freq, angle, phase=0.0) -> np.ndarray:
    """A sinusoidal grating of spatial frequency ``freq`` at ``angle`` radians."""
    yy, xx = coordinate_grid(size)
    angle = _per_sample(angle, np.float64)
    coord = xx * np.cos(angle) + yy * np.sin(angle)
    wave = _per_sample(2.0 * np.pi * freq, np.float64) * coord + _per_sample(phase, np.float64)
    return (0.5 + 0.5 * np.sin(wave)).astype(np.float32)
