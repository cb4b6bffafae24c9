"""Synthetic CIFAR-10 stand-in: 32x32 RGB textured object classes.

Each of the 10 classes is a deterministic composition of a colour palette, a
texture (grating / checkerboard / radial gradient) and one or two geometric
shapes.  Jitter covers palette perturbation, texture phase/frequency, shape
placement and pixel noise.

Sample ``i`` has label ``i % 10``.  The generator draws every sample's jitter
and pixel noise in sample order from one stream, then renders each class in
one broadcast pass over its samples (see :mod:`repro.datasets._procedural`);
the pixels equal those of rendering the samples one at a time.
"""

from __future__ import annotations

import numpy as np

from repro.datasets._procedural import (
    checkerboard,
    gaussian_blob,
    oriented_bar,
    radial_gradient,
    ring,
    sinusoidal_texture,
)
from repro.datasets.base import Dataset
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive_int

__all__ = ["SyntheticCIFAR10", "make_cifar10_like"]

IMAGE_SIZE = 32
NUM_CLASSES = 10

# Base RGB palette per class (loosely themed on CIFAR-10 categories).
_CLASS_PALETTES = np.array(
    [
        [0.55, 0.70, 0.95],  # airplane: sky blue
        [0.80, 0.20, 0.20],  # automobile: red
        [0.40, 0.70, 0.90],  # bird: light blue
        [0.85, 0.60, 0.30],  # cat: tan
        [0.50, 0.40, 0.25],  # deer: brown
        [0.60, 0.55, 0.45],  # dog: beige
        [0.25, 0.65, 0.35],  # frog: green
        [0.45, 0.30, 0.20],  # horse: dark brown
        [0.30, 0.45, 0.75],  # ship: navy
        [0.55, 0.55, 0.60],  # truck: grey
    ],
    dtype=np.float32,
)


class SyntheticCIFAR10:
    """Generator for the CIFAR-10-like synthetic dataset."""

    image_size = IMAGE_SIZE
    num_classes = NUM_CLASSES
    channels = 3

    def __init__(self, num_samples: int = 1000, seed: int = 0, noise_std: float = 0.06):
        self.num_samples = check_positive_int(num_samples, "num_samples")
        self.seed = seed
        self.noise_std = float(noise_std)

    def generate(self) -> Dataset:
        """Materialize the dataset."""
        rng = default_rng(self.seed)
        size, count = self.image_size, self.num_samples
        # Per-sample draws, in the order one sample at a time consumes them;
        # the pixel noise goes straight into the image buffer.
        images = np.empty((count, 3, size, size), dtype=np.float32)
        palette_gain = np.empty((count, 3))
        center = np.empty((count, 2))
        phase = np.empty(count)
        angle_noise = np.zeros(count)
        for idx in range(count):
            label = idx % self.num_classes
            palette_gain[idx] = rng.random(3)
            center[idx] = rng.normal(0.0, 0.15, size=2)
            phase[idx] = rng.random()
            if label % 3 == 2:  # a bar in the foreground
                angle_noise[idx] = rng.normal(0.0, 0.1)
            images[idx] = rng.normal(0.0, self.noise_std, size=(3, size, size))
        for label in range(min(count, self.num_classes)):
            members = slice(label, None, self.num_classes)
            objects = _render_objects(
                label, palette_gain[members], center[members], phase[members],
                angle_noise[members],
            )
            noisy = images[members]
            np.add(objects, noisy, out=noisy)
        np.clip(images, 0.0, 1.0, out=images)
        labels = np.arange(count) % self.num_classes
        order = rng.permutation(count)
        return Dataset(
            images=images[order],
            labels=labels[order],
            num_classes=self.num_classes,
            name="synthetic-cifar10",
        )


def make_cifar10_like(num_samples: int = 1000, seed: int = 0, noise_std: float = 0.06) -> Dataset:
    """Convenience wrapper returning a materialized CIFAR-10-like dataset."""
    return SyntheticCIFAR10(num_samples=num_samples, seed=seed, noise_std=noise_std).generate()


def _render_objects(
    label: int,
    palette_gain: np.ndarray,
    center: np.ndarray,
    phase: np.ndarray,
    angle_noise: np.ndarray,
) -> np.ndarray:
    """Noise-free images ``(n, 3, 32, 32)`` of class ``label``.

    Per sample: the palette's uniform gains ``(n, 3)``, the shape centre
    ``(n, 2)``, the texture phase and the bar-angle noise (classes with a bar
    only), all float64 as drawn.
    """
    size = IMAGE_SIZE
    palette = _CLASS_PALETTES[label] * (0.85 + 0.3 * palette_gain.astype(np.float32))
    palette = np.clip(palette, 0.0, 1.0)
    center = (center[:, 0], center[:, 1])

    # Class-specific texture layer.
    texture_kind = label % 4
    if texture_kind == 0:
        texture = sinusoidal_texture(size, freq=1.5 + label * 0.3, angle=label * 0.31, phase=phase)
    elif texture_kind == 1:
        texture = checkerboard(size, periods=2 + label % 5, phase=phase * 0.2)
    elif texture_kind == 2:
        texture = radial_gradient(size, center=center)
    else:
        texture = sinusoidal_texture(size, freq=3.0, angle=np.pi / 2 + label * 0.17, phase=phase)

    # Class-specific foreground shape layer.
    shape_kind = label % 3
    if shape_kind == 0:
        shape = gaussian_blob(size, center, sigma=0.35 + 0.05 * (label % 3))
    elif shape_kind == 1:
        shape = ring(size, radius=0.45 + 0.05 * (label % 2), thickness=0.15, center=center)
    else:
        shape = oriented_bar(size, angle=label * 0.5 + angle_noise, thickness=0.2,
                             length=0.7, center=center)

    luminance = (0.45 * texture + 0.55 * shape)[:, None]
    channel_gain = (0.6 + 0.4 * palette)[:, :, None, None]
    return np.clip((palette * 0.35)[:, :, None, None] + channel_gain * luminance, 0.0, 1.0)
