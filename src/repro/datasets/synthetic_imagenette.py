"""Synthetic Imagenette stand-in: larger RGB "scene" images with 10 classes.

Imagenette (the 10-class ImageNet subset used by the paper's VGG16 variant)
consists of larger natural images.  The stand-in composes a background
gradient, a mid-ground texture and two foreground shapes per class at a
configurable resolution (default 64x64, a CPU-friendly proxy for the
160px Imagenette crops).

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

__all__ = ["SyntheticImagenette", "make_imagenette_like"]

NUM_CLASSES = 10

# Background / foreground palettes loosely themed on the Imagenette classes
# (tench, English springer, cassette player, chain saw, church, French horn,
# garbage truck, gas pump, golf ball, parachute).
_BACKGROUNDS = np.array(
    [
        [0.20, 0.45, 0.60],
        [0.45, 0.55, 0.35],
        [0.35, 0.35, 0.40],
        [0.50, 0.45, 0.30],
        [0.60, 0.65, 0.75],
        [0.40, 0.30, 0.25],
        [0.50, 0.50, 0.55],
        [0.55, 0.40, 0.30],
        [0.35, 0.60, 0.35],
        [0.55, 0.70, 0.85],
    ],
    dtype=np.float32,
)
_FOREGROUNDS = np.array(
    [
        [0.70, 0.75, 0.60],
        [0.85, 0.80, 0.70],
        [0.20, 0.20, 0.25],
        [0.90, 0.55, 0.15],
        [0.80, 0.75, 0.70],
        [0.85, 0.70, 0.30],
        [0.30, 0.65, 0.30],
        [0.80, 0.20, 0.20],
        [0.95, 0.95, 0.95],
        [0.90, 0.35, 0.45],
    ],
    dtype=np.float32,
)


class SyntheticImagenette:
    """Generator for the Imagenette-like synthetic dataset.

    Parameters
    ----------
    num_samples:
        Total number of images.
    image_size:
        Square image resolution (default 64).
    seed:
        Procedural-generation seed.
    noise_std:
        Per-pixel Gaussian noise standard deviation.
    """

    num_classes = NUM_CLASSES
    channels = 3

    def __init__(
        self,
        num_samples: int = 800,
        image_size: int = 64,
        seed: int = 0,
        noise_std: float = 0.05,
    ):
        self.num_samples = check_positive_int(num_samples, "num_samples")
        self.image_size = check_positive_int(image_size, "image_size")
        self.seed = seed
        self.noise_std = float(noise_std)

    def generate(self) -> Dataset:
        """Materialize the dataset."""
        rng = default_rng(self.seed)
        size, count = self.image_size, self.num_samples
        # Per-sample draws, in the order one sample at a time consumes them;
        # the pixel noise goes straight into the image buffer.
        images = np.empty((count, 3, size, size), dtype=np.float32)
        background_gain = np.empty((count, 3))
        foreground_gain = np.empty((count, 3))
        center = np.empty((count, 2))
        phase = np.zeros(count)
        angle_noise = np.zeros(count)
        for idx in range(count):
            label = idx % self.num_classes
            background_gain[idx] = rng.random(3)
            foreground_gain[idx] = rng.random(3)
            center[idx] = rng.normal(0.0, 0.2, size=2)
            if label % 3 != 2:  # a grating or checkerboard background
                phase[idx] = rng.random()
            if label % 4 in (1, 3):  # a bar in the foreground
                angle_noise[idx] = rng.normal(0.0, 0.1)
            images[idx] = rng.normal(0.0, self.noise_std, size=(3, size, size))
        for label in range(min(count, self.num_classes)):
            members = slice(label, None, self.num_classes)
            scenes = _render_scenes(
                label, size, background_gain[members], foreground_gain[members],
                center[members], phase[members], angle_noise[members],
            )
            noisy = images[members]
            np.add(scenes, noisy, out=noisy)
        np.clip(images, 0.0, 1.0, out=images)
        labels = np.arange(count) % self.num_classes
        order = rng.permutation(count)
        return Dataset(
            images=images[order],
            labels=labels[order],
            num_classes=self.num_classes,
            name="synthetic-imagenette",
        )


def make_imagenette_like(
    num_samples: int = 800,
    image_size: int = 64,
    seed: int = 0,
    noise_std: float = 0.05,
) -> Dataset:
    """Convenience wrapper returning a materialized Imagenette-like dataset."""
    return SyntheticImagenette(
        num_samples=num_samples, image_size=image_size, seed=seed, noise_std=noise_std
    ).generate()


def _render_scenes(
    label: int,
    size: int,
    background_gain: np.ndarray,
    foreground_gain: np.ndarray,
    center: np.ndarray,
    phase: np.ndarray,
    angle_noise: np.ndarray,
) -> np.ndarray:
    """Noise-free scenes ``(n, 3, size, size)`` of class ``label``.

    Per sample: the two palettes' uniform gains ``(n, 3)``, the shape centre
    ``(n, 2)``, the background phase (grating and checkerboard classes) and
    the bar-angle noise (classes with a bar), all float64 as drawn.
    """
    background = _BACKGROUNDS[label] * (0.85 + 0.3 * background_gain.astype(np.float32))
    foreground = _FOREGROUNDS[label] * (0.85 + 0.3 * foreground_gain.astype(np.float32))
    background = np.clip(background, 0.0, 1.0)[:, :, None, None]
    foreground = np.clip(foreground, 0.0, 1.0)[:, :, None, None]
    center = (center[:, 0], center[:, 1])

    # Background layer: vertical gradient + class-keyed texture.
    yy = np.linspace(0.0, 1.0, size, dtype=np.float32)[:, None]
    gradient = np.repeat(yy, size, axis=1)
    if label % 3 == 0:
        texture = sinusoidal_texture(size, freq=1.0 + label * 0.2, angle=0.4 * label,
                                     phase=phase)
    elif label % 3 == 1:
        texture = checkerboard(size, periods=3 + label % 4, phase=phase * 0.3)
    else:
        texture = radial_gradient(size, center=(0.0, 0.0))
    background_layer = 0.6 * gradient + 0.4 * texture

    # Foreground layer: two class-keyed shapes.
    if label % 4 == 0:
        shape = gaussian_blob(size, center, sigma=0.3) + 0.6 * ring(
            size, radius=0.55, thickness=0.1, center=center
        )
    elif label % 4 == 1:
        shape = oriented_bar(size, angle=0.35 * label + angle_noise,
                             thickness=0.18, length=0.8, center=center)
        shape += gaussian_blob(size, (center[0] + 0.4, center[1] - 0.3), sigma=0.2)
    elif label % 4 == 2:
        shape = ring(size, radius=0.4, thickness=0.12, center=center)
        shape += ring(size, radius=0.2, thickness=0.08, center=center)
    else:
        shape = gaussian_blob(size, center, sigma=0.45)
        shape += oriented_bar(size, angle=np.pi / 3 + angle_noise,
                              thickness=0.12, length=0.6,
                              center=(center[0] - 0.3, center[1] + 0.3))
    shape = np.clip(shape, 0.0, 1.0)[:, None]

    image = background * background_layer[..., None, :, :] * (1.0 - shape) + foreground * shape
    return np.clip(image, 0.0, 1.0)
