"""Synthetic MNIST stand-in: 28x28 single-channel "digit-like" glyphs.

Each of the 10 classes is a deterministic composition of strokes (bars, rings
and blobs) loosely inspired by the corresponding digit's topology.  Per-sample
variation comes from random translation, rotation of the stroke angles,
stroke-thickness jitter, amplitude scaling and pixel noise.

Sample ``i`` has label ``i % 10``.  The generator draws every sample's jitter
and pixel noise in sample order from one stream, then renders each class in
one broadcast pass over its samples (see :mod:`repro.datasets._procedural`);
the pixels equal those of rendering the samples one at a time.
"""

from __future__ import annotations

import numpy as np

from repro.datasets._procedural import gaussian_blob, oriented_bar, ring
from repro.datasets.base import Dataset
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive_int

__all__ = ["SyntheticMNIST", "make_mnist_like"]

IMAGE_SIZE = 28
NUM_CLASSES = 10


class SyntheticMNIST:
    """Generator for the MNIST-like synthetic dataset.

    Parameters
    ----------
    num_samples:
        Total number of images (split evenly across the 10 classes).
    seed:
        Seed for the procedural generator.
    noise_std:
        Standard deviation of per-pixel Gaussian noise.
    """

    image_size = IMAGE_SIZE
    num_classes = NUM_CLASSES
    channels = 1

    def __init__(self, num_samples: int = 1000, seed: int = 0, noise_std: float = 0.08):
        self.num_samples = check_positive_int(num_samples, "num_samples")
        self.seed = seed
        self.noise_std = float(noise_std)

    def generate(self) -> Dataset:
        """Materialize the dataset."""
        rng = default_rng(self.seed)
        size, count = self.image_size, self.num_samples
        # Per-sample draws, in the order one sample at a time consumes them;
        # the pixel noise goes straight into the image buffer.
        images = np.empty((count, 1, size, size), dtype=np.float32)
        center = np.empty((count, 2))
        angle_jitter = np.empty(count)
        thickness = np.empty(count)
        amplitude = np.empty(count)
        for idx in range(count):
            center[idx] = rng.normal(0.0, 0.08, size=2)
            angle_jitter[idx] = rng.normal(0.0, 0.12)
            thickness[idx] = 0.12 + abs(rng.normal(0.0, 0.03))
            amplitude[idx] = 0.75 + 0.25 * rng.random()
            images[idx, 0] = rng.normal(0.0, self.noise_std, size=(size, size))
        for label in range(min(count, self.num_classes)):
            members = slice(label, None, self.num_classes)
            glyphs = _render_digits(
                label, center[members], angle_jitter[members], thickness[members]
            )
            glyphs *= amplitude[members].astype(np.float32)[:, None, None]
            noisy = images[members, 0]
            np.add(glyphs, noisy, out=noisy)
        np.clip(images, 0.0, 1.0, out=images)
        labels = np.arange(count) % self.num_classes
        # Shuffle so class order is not trivially periodic.
        order = rng.permutation(count)
        return Dataset(
            images=images[order],
            labels=labels[order],
            num_classes=self.num_classes,
            name="synthetic-mnist",
        )


def make_mnist_like(num_samples: int = 1000, seed: int = 0, noise_std: float = 0.08) -> Dataset:
    """Convenience wrapper returning a materialized MNIST-like dataset."""
    return SyntheticMNIST(num_samples=num_samples, seed=seed, noise_std=noise_std).generate()


def _render_digits(
    label: int, center: np.ndarray, angle_jitter: np.ndarray, thickness: np.ndarray
) -> np.ndarray:
    """Noise-free glyphs ``(n, 28, 28)`` of ``label``, clipped to [0, 1].

    ``center`` is ``(n, 2)``; ``angle_jitter`` and ``thickness`` are
    ``(n,)``, all float64 as drawn.
    """
    size = IMAGE_SIZE
    canvas = np.zeros((len(center), size, size), dtype=np.float32)
    center = (center[:, 0], center[:, 1])

    def bar(angle: float, length: float = 0.75, offset: tuple[float, float] = (0.0, 0.0)):
        return oriented_bar(
            size,
            angle + angle_jitter,
            thickness=thickness,
            length=length,
            center=(center[0] + offset[0], center[1] + offset[1]),
        )

    if label == 0:
        canvas += ring(size, radius=0.55, thickness=thickness + 0.05, center=center)
    elif label == 1:
        canvas += bar(np.pi / 2, length=0.8)
    elif label == 2:
        canvas += bar(0.0, length=0.6, offset=(-0.5, 0.0))
        canvas += bar(np.pi / 4, length=0.7)
        canvas += bar(0.0, length=0.6, offset=(0.55, 0.0))
    elif label == 3:
        canvas += bar(0.0, length=0.55, offset=(-0.5, 0.1))
        canvas += bar(0.0, length=0.55, offset=(0.0, 0.1))
        canvas += bar(0.0, length=0.55, offset=(0.5, 0.1))
        canvas += bar(np.pi / 2, length=0.65, offset=(0.0, 0.55))
    elif label == 4:
        canvas += bar(np.pi / 2, length=0.5, offset=(-0.3, -0.35))
        canvas += bar(0.0, length=0.6, offset=(0.05, 0.0))
        canvas += bar(np.pi / 2, length=0.8, offset=(0.0, 0.25))
    elif label == 5:
        canvas += bar(0.0, length=0.55, offset=(-0.5, 0.0))
        canvas += bar(np.pi / 2, length=0.4, offset=(-0.25, -0.45))
        canvas += ring(size, radius=0.35, thickness=thickness, center=(center[0] + 0.3, center[1]))
    elif label == 6:
        canvas += bar(np.pi / 2.4, length=0.6, offset=(-0.3, -0.2))
        canvas += ring(size, radius=0.35, thickness=thickness, center=(center[0] + 0.3, center[1]))
    elif label == 7:
        canvas += bar(0.0, length=0.6, offset=(-0.5, 0.0))
        canvas += bar(np.pi / 2.6, length=0.75, offset=(0.1, 0.1))
    elif label == 8:
        canvas += ring(size, radius=0.3, thickness=thickness, center=(center[0] - 0.35, center[1]))
        canvas += ring(size, radius=0.3, thickness=thickness, center=(center[0] + 0.35, center[1]))
    else:  # 9
        canvas += ring(size, radius=0.32, thickness=thickness, center=(center[0] - 0.25, center[1]))
        canvas += bar(np.pi / 2, length=0.55, offset=(0.25, 0.3))

    # Add a faint centre blob so all classes share low-frequency energy
    # (keeps the task from being solvable by a single pixel).
    canvas += 0.15 * gaussian_blob(size, center, sigma=0.8)
    return np.clip(canvas, 0.0, 1.0, out=canvas)
