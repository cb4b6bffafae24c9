"""Byte-exactness of the class-at-a-time dataset generators.

The MNIST, CIFAR-10 and Imagenette stand-ins render each class in one
broadcast pass over its samples.  The reference below is the per-image code
they replaced, kept verbatim: scalar-parameter primitives, one ``_render_*``
call per sample and one generator loop.  Every comparison is on
``tobytes()``, so a parameter entering an expression in another dtype (say a
float64 centre subtracted where a float32 one was) or strokes summed in
another order fail here by a last bit.

CI re-runs this module with NumPy's AVX-512 kernels switched off
(``NPY_DISABLE_CPU_FEATURES``), which checks the broadcast ``exp``/``sin``/
``cos`` passes against the per-image reference on a second SIMD path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import _procedural
from repro.datasets import synthetic_cifar as cifar
from repro.datasets import synthetic_imagenette as imagenette
from repro.datasets import synthetic_mnist as mnist
from repro.utils.rng import default_rng


# ------------------------------------------------- per-image reference code
def coordinate_grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Return normalized coordinate grids ``(yy, xx)`` spanning [-1, 1]."""
    axis = np.linspace(-1.0, 1.0, size, dtype=np.float32)
    yy, xx = np.meshgrid(axis, axis, indexing="ij")
    return yy, xx


def gaussian_blob(size: int, center: tuple[float, float], sigma: float) -> np.ndarray:
    """A 2-D Gaussian bump centred at ``center`` (normalized coordinates)."""
    yy, xx = coordinate_grid(size)
    cy, cx = center
    return np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2)).astype(np.float32)


def oriented_bar(
    size: int,
    angle: float,
    thickness: float = 0.15,
    length: float = 0.8,
    center: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """A soft-edged bar rotated by ``angle`` radians."""
    yy, xx = coordinate_grid(size)
    cy, cx = center
    y = yy - cy
    x = xx - cx
    along = x * np.cos(angle) + y * np.sin(angle)
    across = -x * np.sin(angle) + y * np.cos(angle)
    bar = np.exp(-((across / thickness) ** 2)) * (np.abs(along) < length)
    return bar.astype(np.float32)


def ring(size: int, radius: float = 0.6, thickness: float = 0.12,
         center: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """A soft ring (annulus) of given radius/thickness."""
    yy, xx = coordinate_grid(size)
    cy, cx = center
    r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    return np.exp(-(((r - radius) / thickness) ** 2)).astype(np.float32)


def checkerboard(size: int, periods: int = 4, phase: float = 0.0) -> np.ndarray:
    """A smooth checkerboard texture with ``periods`` periods across the image."""
    yy, xx = coordinate_grid(size)
    pattern = np.sin(np.pi * periods * (xx + phase)) * np.sin(np.pi * periods * (yy + phase))
    return (0.5 + 0.5 * pattern).astype(np.float32)


def radial_gradient(size: int, center: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """A radial intensity gradient (bright centre, dark edge)."""
    yy, xx = coordinate_grid(size)
    cy, cx = center
    r = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    return np.clip(1.0 - r / np.sqrt(2.0), 0.0, 1.0).astype(np.float32)


def sinusoidal_texture(size: int, freq: float, angle: float, phase: float = 0.0) -> np.ndarray:
    """A sinusoidal grating of spatial frequency ``freq`` at ``angle`` radians."""
    yy, xx = coordinate_grid(size)
    coord = xx * np.cos(angle) + yy * np.sin(angle)
    return (0.5 + 0.5 * np.sin(2.0 * np.pi * freq * coord + phase)).astype(np.float32)


def add_noise_and_clip(
    image: np.ndarray,
    rng: np.random.Generator,
    noise_std: float,
    low: float = 0.0,
    high: float = 1.0,
) -> np.ndarray:
    """Add Gaussian pixel noise and clip to ``[low, high]``."""
    noisy = image + rng.normal(0.0, noise_std, size=image.shape).astype(np.float32)
    return np.clip(noisy, low, high).astype(np.float32)


def _render_digit(label: int, rng: np.random.Generator, noise_std: float) -> np.ndarray:
    """Render one glyph for ``label`` with per-sample jitter."""
    size = mnist.IMAGE_SIZE
    jitter = rng.normal(0.0, 0.08, size=2)
    center = (float(jitter[0]), float(jitter[1]))
    angle_jitter = rng.normal(0.0, 0.12)
    thickness = 0.12 + abs(rng.normal(0.0, 0.03))
    canvas = np.zeros((size, size), dtype=np.float32)

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
    amplitude = 0.75 + 0.25 * rng.random()
    canvas = np.clip(canvas, 0.0, 1.0) * amplitude
    return add_noise_and_clip(canvas, rng, noise_std)


def _render_object(label: int, rng: np.random.Generator, noise_std: float) -> np.ndarray:
    """Render one 3-channel image for class ``label``."""
    size = cifar.IMAGE_SIZE
    palette = cifar._CLASS_PALETTES[label] * (0.85 + 0.3 * rng.random(3).astype(np.float32))
    palette = np.clip(palette, 0.0, 1.0)
    offset = rng.normal(0.0, 0.15, size=2)
    center = (float(offset[0]), float(offset[1]))

    # Class-specific texture layer.
    texture_kind = label % 4
    phase = float(rng.random())
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
        shape = oriented_bar(size, angle=label * 0.5 + rng.normal(0.0, 0.1), thickness=0.2,
                             length=0.7, center=center)

    luminance = 0.45 * texture + 0.55 * shape
    image = np.empty((3, size, size), dtype=np.float32)
    for channel in range(3):
        channel_gain = 0.6 + 0.4 * palette[channel]
        image[channel] = np.clip(palette[channel] * 0.35 + channel_gain * luminance, 0.0, 1.0)
    return add_noise_and_clip(image, rng, noise_std)


def _render_scene(label: int, size: int, rng: np.random.Generator, noise_std: float) -> np.ndarray:
    """Render one 3-channel scene image for class ``label``."""
    background = imagenette._BACKGROUNDS[label] * (0.85 + 0.3 * rng.random(3).astype(np.float32))
    foreground = imagenette._FOREGROUNDS[label] * (0.85 + 0.3 * rng.random(3).astype(np.float32))
    background = np.clip(background, 0.0, 1.0)
    foreground = np.clip(foreground, 0.0, 1.0)

    offset = rng.normal(0.0, 0.2, size=2)
    center = (float(offset[0]), float(offset[1]))

    # Background layer: vertical gradient + class-keyed texture.
    yy = np.linspace(0.0, 1.0, size, dtype=np.float32)[:, None]
    gradient = np.repeat(yy, size, axis=1)
    if label % 3 == 0:
        texture = sinusoidal_texture(size, freq=1.0 + label * 0.2, angle=0.4 * label,
                                     phase=float(rng.random()))
    elif label % 3 == 1:
        texture = checkerboard(size, periods=3 + label % 4, phase=float(rng.random()) * 0.3)
    else:
        texture = radial_gradient(size, center=(0.0, 0.0))
    background_layer = 0.6 * gradient + 0.4 * texture

    # Foreground layer: two class-keyed shapes.
    if label % 4 == 0:
        shape = gaussian_blob(size, center, sigma=0.3) + 0.6 * ring(
            size, radius=0.55, thickness=0.1, center=center
        )
    elif label % 4 == 1:
        shape = oriented_bar(size, angle=0.35 * label + rng.normal(0.0, 0.1),
                             thickness=0.18, length=0.8, center=center)
        shape += gaussian_blob(size, (center[0] + 0.4, center[1] - 0.3), sigma=0.2)
    elif label % 4 == 2:
        shape = ring(size, radius=0.4, thickness=0.12, center=center)
        shape += ring(size, radius=0.2, thickness=0.08, center=center)
    else:
        shape = gaussian_blob(size, center, sigma=0.45)
        shape += oriented_bar(size, angle=np.pi / 3 + rng.normal(0.0, 0.1),
                              thickness=0.12, length=0.6,
                              center=(center[0] - 0.3, center[1] + 0.3))
    shape = np.clip(shape, 0.0, 1.0)

    image = np.empty((3, size, size), dtype=np.float32)
    for channel in range(3):
        image[channel] = (
            background[channel] * background_layer * (1.0 - shape)
            + foreground[channel] * shape
        )
    image = np.clip(image, 0.0, 1.0)
    return add_noise_and_clip(image, rng, noise_std)


def reference_generate(render, num_samples, seed, noise_std, shape):
    """The per-sample generator loop: ``(images, labels)`` after the shuffle."""
    rng = default_rng(seed)
    images = np.zeros((num_samples, *shape), dtype=np.float32)
    labels = np.arange(num_samples) % 10
    for idx in range(num_samples):
        images[idx] = render(int(labels[idx]), rng=rng, noise_std=noise_std)
    order = rng.permutation(num_samples)
    return images[order], labels[order]


# ------------------------------------------------------------------- tests
def assert_same_dataset(dataset, reference):
    images, labels = reference
    assert dataset.images.shape == images.shape
    assert dataset.images.dtype == np.float32
    assert dataset.images.tobytes() == images.tobytes()
    assert np.array_equal(dataset.labels, labels)


@pytest.mark.parametrize(
    "num_samples, seed, noise_std",
    [(700, 0, 0.08), (23, 5, 0.08), (1, 3, 0.08), (101, 11, 0.2), (40, 2, 0.0)],
)
def test_mnist_matches_per_image_reference(num_samples, seed, noise_std):
    dataset = mnist.SyntheticMNIST(num_samples, seed=seed, noise_std=noise_std).generate()
    reference = reference_generate(
        lambda label, **kw: _render_digit(label, **kw)[None],
        num_samples, seed, noise_std, (1, 28, 28),
    )
    assert_same_dataset(dataset, reference)


@pytest.mark.parametrize(
    "num_samples, seed, noise_std",
    [(400, 0, 0.06), (37, 4, 0.06), (1, 9, 0.06), (55, 1, 0.15)],
)
def test_cifar10_matches_per_image_reference(num_samples, seed, noise_std):
    dataset = cifar.SyntheticCIFAR10(num_samples, seed=seed, noise_std=noise_std).generate()
    reference = reference_generate(_render_object, num_samples, seed, noise_std, (3, 32, 32))
    assert_same_dataset(dataset, reference)


@pytest.mark.parametrize(
    "num_samples, image_size, seed, noise_std",
    [(450, 48, 0, 0.05), (43, 64, 6, 0.05), (1, 48, 2, 0.05), (29, 64, 3, 0.1), (12, 33, 8, 0.05)],
)
def test_imagenette_matches_per_image_reference(num_samples, image_size, seed, noise_std):
    dataset = imagenette.SyntheticImagenette(
        num_samples, image_size=image_size, seed=seed, noise_std=noise_std
    ).generate()
    reference = reference_generate(
        lambda label, **kw: _render_scene(label, image_size, **kw),
        num_samples, seed, noise_std, (3, image_size, image_size),
    )
    assert_same_dataset(dataset, reference)


def _vector(rng, count, scale, offset=0.0):
    return offset + scale * rng.standard_normal(count)


#: (primitive, per-sample parameters drawn from a generator for ``n`` samples).
PRIMITIVE_CASES = {
    "gaussian_blob": lambda r, n: {"center": (_vector(r, n, 0.2), _vector(r, n, 0.2)),
                                   "sigma": 0.35},
    "oriented_bar": lambda r, n: {"angle": _vector(r, n, 0.1, 1.2),
                                  "thickness": 0.12 + np.abs(_vector(r, n, 0.03)),
                                  "length": 0.7,
                                  "center": (_vector(r, n, 0.2), _vector(r, n, 0.2))},
    "ring": lambda r, n: {"radius": 0.4 + np.abs(_vector(r, n, 0.1)),
                          "thickness": 0.17 + np.abs(_vector(r, n, 0.03)),
                          "center": (_vector(r, n, 0.2), _vector(r, n, 0.2))},
    "checkerboard": lambda r, n: {"periods": 3, "phase": 0.3 * r.random(n)},
    "radial_gradient": lambda r, n: {"center": (_vector(r, n, 0.2), _vector(r, n, 0.2))},
    "sinusoidal_texture": lambda r, n: {"freq": 1.5 + r.random(n),
                                        "angle": _vector(r, n, 1.0), "phase": r.random(n)},
}


def _sample(kwargs: dict, index: int) -> dict:
    """Sample ``index``'s parameters as the Python floats the reference took."""
    def pick(value):
        if isinstance(value, tuple):
            return tuple(pick(item) for item in value)
        return float(value[index]) if np.ndim(value) else value

    return {key: pick(value) for key, value in kwargs.items()}


@pytest.mark.parametrize("size", [28, 48])
@pytest.mark.parametrize("name", PRIMITIVE_CASES)
def test_stacked_primitive_matches_scalar_calls(name, size):
    """One call with per-sample vectors equals the reference called per sample."""
    count = 17
    kwargs = PRIMITIVE_CASES[name](np.random.default_rng(size), count)
    stacked = getattr(_procedural, name)(size, **kwargs)
    assert stacked.shape == (count, size, size) and stacked.dtype == np.float32
    reference = globals()[name]
    for index in range(count):
        expected = reference(size, **_sample(kwargs, index))
        assert stacked[index].tobytes() == expected.tobytes(), (name, index)


@pytest.mark.parametrize("name", PRIMITIVE_CASES)
def test_scalar_primitive_renders_one_image(name):
    """Scalar parameters still give one ``(size, size)`` image."""
    kwargs = _sample(PRIMITIVE_CASES[name](np.random.default_rng(0), 1), 0)
    image = getattr(_procedural, name)(20, **kwargs)
    assert image.shape == (20, 20) and image.dtype == np.float32
    assert image.tobytes() == globals()[name](20, **kwargs).tobytes()
