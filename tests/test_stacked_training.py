"""Stacked variant-grid training: per-layer backward checks, serial-vs-stacked
equivalence, batch-order plumbing, weight-decay/L2 identity and the trained-
model checkpoint cache."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets import load_dataset, train_test_split
from repro.engine.checkpoints import CheckpointCache
from repro.mitigation import (
    L2Config,
    NoiseAwareConfig,
    VariantSpec,
    train_variant_grid,
    train_variant_grid_stacked,
    variant_training_config,
)
from repro.nn import (
    SGD,
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    GlobalAvgPool2D,
    Linear,
    MaxPool2D,
    Sequential,
    StackedCrossEntropyLoss,
    StackedTrainer,
    Trainer,
    TrainingConfig,
)
from repro.nn.ensemble import stack_state_dicts
from repro.nn.functional import batch_tile, col2im, im2col
from repro.nn.losses import CrossEntropyLoss, l2_penalty
from repro.nn.module import Module


VARIANTS = 3


def load_trainable_stack(module: Module, rng: np.random.Generator) -> None:
    """Attach a trainable stacked state with random per-variant slabs."""
    stacked = {
        name: np.stack(
            [
                param.data + rng.normal(0, 0.1, size=param.data.shape)
                for _ in range(VARIANTS)
            ]
        ).astype(np.float32)
        for name, param in module.named_parameters()
    }
    module.load_stacked_state(stacked, trainable=True)


def stacked_param_gradient_check(
    module: Module, x: np.ndarray, param, eps: float = 1e-2, atol: float = 5e-3
) -> None:
    """Finite-difference check of one parameter's per-variant gradient slabs.

    The loss is ``sum`` over the full stacked output, so each variant's slab
    gradient must match the finite difference of perturbing that slab only.
    """
    module.train()
    out = module(x)
    module.zero_grad()
    module.backward(np.ones_like(out))
    analytic = param.stacked_grad.copy()

    def loss() -> float:
        return float(np.asarray(module(x), dtype=np.float64).sum())

    rng = np.random.default_rng(0)
    for variant in range(VARIANTS):
        flat = param.stacked[variant].reshape(-1)
        for flat_index in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            original = float(flat[flat_index])
            flat[flat_index] = original + eps
            up = loss()
            flat[flat_index] = original - eps
            down = loss()
            flat[flat_index] = original
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - analytic[variant].reshape(-1)[flat_index]) < atol


def stacked_input_gradient_check(
    module: Module, x: np.ndarray, eps: float = 1e-2, atol: float = 5e-3
) -> None:
    """Finite-difference check of the per-variant input gradient."""
    module.train()
    out = module(x)
    grad_in = module.backward(np.ones_like(out))
    assert grad_in.shape == x.shape

    def loss() -> float:
        return float(np.asarray(module(x), dtype=np.float64).sum())

    rng = np.random.default_rng(1)
    flat = x.reshape(-1)
    for flat_index in rng.choice(flat.size, size=6, replace=False):
        original = float(flat[flat_index])
        flat[flat_index] = original + eps
        up = loss()
        flat[flat_index] = original - eps
        down = loss()
        flat[flat_index] = original
        numeric = (up - down) / (2 * eps)
        assert abs(numeric - grad_in.reshape(-1)[flat_index]) < atol


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestStackedBackwardFiniteDifference:
    def test_linear_weight_bias_and_input(self, rng):
        layer = Linear(6, 4, rng=rng)
        load_trainable_stack(layer, rng)
        x = rng.normal(size=(VARIANTS, 5, 6)).astype(np.float32)
        stacked_param_gradient_check(layer, x, layer.weight)
        stacked_param_gradient_check(layer, x, layer.bias)
        stacked_input_gradient_check(layer, x)

    def test_linear_shared_input_broadcasts(self, rng):
        layer = Linear(6, 3, rng=rng)
        load_trainable_stack(layer, rng)
        x = rng.normal(size=(5, 6)).astype(np.float32)
        out = layer(x)
        assert out.shape == (VARIANTS, 5, 3)
        stacked_param_gradient_check(layer, x, layer.weight)

    def test_linear_shared_input_skips_input_gradient(self, rng):
        layer = Linear(6, 3, rng=rng)
        load_trainable_stack(layer, rng)
        out = layer(rng.normal(size=(5, 6)).astype(np.float32))
        assert layer.backward(np.ones_like(out)) is None

    def test_mlp_with_flatten_first_trains_stacked(self, rng):
        """Flatten -> Linear on a raw 4-D input: the shared-input Linear
        skips its input gradient and Sequential stops the backward there."""
        from repro.nn import Flatten, ReLU
        from repro.nn.losses import StackedCrossEntropyLoss

        def build():
            return Sequential(
                Flatten(), Linear(32, 8, rng=0), ReLU(), Linear(8, 3, rng=1)
            )

        template = build()
        template.load_stacked_state(
            stack_state_dicts([build().state_dict() for _ in range(VARIANTS)]),
            trainable=True,
        )
        template.train()
        x = rng.random((5, 2, 4, 4)).astype(np.float32)
        labels = rng.integers(0, 3, size=5)
        loss = StackedCrossEntropyLoss()
        loss(template(x), labels)
        assert template.backward(loss.backward()) is None
        first_linear = template.layers[1]
        assert float(np.abs(first_linear.weight.stacked_grad).max()) > 0

    def test_conv_weight_grads_shared_input(self, rng):
        layer = Conv2D(2, 3, kernel_size=3, padding=1, rng=rng)
        load_trainable_stack(layer, rng)
        x = rng.normal(size=(4, 2, 6, 6)).astype(np.float32)
        stacked_param_gradient_check(layer, x, layer.weight)
        stacked_param_gradient_check(layer, x, layer.bias)

    def test_conv_shared_input_skips_input_gradient(self, rng):
        layer = Conv2D(2, 3, kernel_size=3, rng=rng)
        load_trainable_stack(layer, rng)
        x = rng.normal(size=(4, 2, 6, 6)).astype(np.float32)
        out = layer(x)
        assert layer.backward(np.ones_like(out)) is None

    def test_conv_stacked_input_and_gradient(self, rng):
        layer = Conv2D(2, 3, kernel_size=3, padding=1, stride=2, rng=rng)
        load_trainable_stack(layer, rng)
        x = rng.normal(size=(VARIANTS, 4, 2, 6, 6)).astype(np.float32)
        stacked_param_gradient_check(layer, x, layer.weight)
        stacked_input_gradient_check(layer, x)

    def test_batchnorm_gamma_beta_and_input(self, rng):
        layer = BatchNorm2D(3)
        load_trainable_stack(layer, rng)
        x = rng.normal(size=(VARIANTS, 5, 3, 4, 4)).astype(np.float32)
        stacked_param_gradient_check(layer, x, layer.gamma, atol=2e-2)
        stacked_param_gradient_check(layer, x, layer.beta, atol=2e-2)
        stacked_input_gradient_check(layer, x, atol=2e-2)

    def test_batchnorm_updates_per_variant_running_stats(self, rng):
        layer = BatchNorm2D(3)
        load_trainable_stack(layer, rng)
        x = rng.normal(size=(VARIANTS, 5, 3, 4, 4)).astype(np.float32)
        layer.train()
        layer(x)
        assert layer.stacked_running_mean.shape == (VARIANTS, 3)
        # Variants see different activations, so their statistics differ.
        assert not np.allclose(
            layer.stacked_running_mean[0], layer.stacked_running_mean[1]
        )

    def test_maxpool_input_gradient(self, rng):
        layer = MaxPool2D(2)
        layer.train()
        x = rng.normal(size=(VARIANTS, 3, 2, 4, 4)).astype(np.float32)
        stacked_input_gradient_check(layer, x)

    def test_maxpool_overlapping_geometry_falls_back(self, rng):
        layer = MaxPool2D(3, stride=2, padding=1)
        layer.train()
        x = rng.normal(size=(VARIANTS, 2, 2, 6, 6)).astype(np.float32)
        stacked_input_gradient_check(layer, x)

    def test_avgpool_and_global_avgpool_input_gradients(self, rng):
        x = rng.normal(size=(VARIANTS, 3, 2, 4, 4)).astype(np.float32)
        for layer in (AvgPool2D(2), GlobalAvgPool2D()):
            layer.train()
            stacked_input_gradient_check(layer, x)


def im2col_maxpool_reference(x: np.ndarray, grad_output: np.ndarray, k: int):
    """Max pooling as ``np.argmax`` over im2col columns, its gradient folded
    back with ``col2im`` (each winner's gradient summed into zeros)."""
    batch, channels, height, width = x.shape
    flat = np.ascontiguousarray(x).reshape(batch * channels, 1, height, width)
    cols, out_h, out_w = im2col(flat, k, k, k, 0)
    rows = np.arange(cols.shape[0])
    winner = np.argmax(cols, axis=1)
    out = cols[rows, winner].reshape(batch, channels, out_h, out_w)
    grad_cols = np.zeros_like(cols)
    grad_cols[rows, winner] = grad_output.reshape(-1)
    return out, col2im(grad_cols, flat.shape, k, k, k, 0).reshape(x.shape)


class TestMaxPoolWindowsBitIdentity:
    def test_matches_im2col_path_with_ties(self):
        """Training max pooling equals the im2col + argmax + col2im reference
        byte for byte: every window slot sees ties, -0.0/+0.0, +-inf and NaN,
        and the output gradient holds -0.0 (which col2im lands as +0.0).
        Serial (4-D) and variant-stacked (5-D) forwards, C-contiguous and
        channels-last inputs, a batch of several tiles whose last, partial
        tile holds no NaN; the output is C-contiguous and the input gradient
        takes the input's layout."""
        rng = np.random.default_rng(0)
        special = np.array(
            [-0.0, 0.0, 0.5, 0.5, 1.0, np.inf, -np.inf, np.nan], dtype=np.float32
        )
        for k in (2, 3):
            shape = (3, 4 * k, 4 * k)
            tile = batch_tile(10**6, 4 * int(np.prod(shape)))
            batch = VARIANTS * ((2 * tile + tile // 2) // VARIANTS)
            nchw = rng.choice(special, size=(batch,) + shape)
            last = nchw[2 * tile:]
            last[np.isnan(last)] = 0.5
            channels_last = np.ascontiguousarray(nchw.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
            grad_output = rng.normal(size=(batch, 3, 4, 4)).astype(np.float32)
            grad_output[rng.random(grad_output.shape) < 0.3] = -0.0
            ref_out, ref_grad = im2col_maxpool_reference(nchw, grad_output, k)
            assert np.isnan(ref_out).any() and np.isinf(ref_out).any()
            for x in (nchw, channels_last):
                for data in (x, x.reshape((VARIANTS, batch // VARIANTS) + shape)):
                    layer = MaxPool2D(k)
                    layer.train()
                    out = layer(data)
                    grad = layer.backward(grad_output.reshape(out.shape))
                    assert out.tobytes() == ref_out.tobytes()
                    assert grad.tobytes() == ref_grad.tobytes()
                    assert out.flags.c_contiguous and grad.strides == data.strides


class TestStackedLoss:
    def test_matches_serial_loss_per_variant(self, rng):
        logits = rng.normal(size=(VARIANTS, 8, 5)).astype(np.float32)
        labels = rng.integers(0, 5, size=8)
        stacked = StackedCrossEntropyLoss(label_smoothing=0.1)
        serial = CrossEntropyLoss(label_smoothing=0.1)
        losses = stacked(logits, labels)
        grads = stacked.backward()
        assert losses.shape == (VARIANTS,)
        for variant in range(VARIANTS):
            assert losses[variant] == serial(logits[variant], labels)
            assert np.array_equal(grads[variant], serial.backward())

    def test_rejects_2d_logits(self, rng):
        with pytest.raises(ValueError):
            StackedCrossEntropyLoss()(np.zeros((4, 3), dtype=np.float32), np.zeros(4, dtype=np.int64))


class TestWeightDecayEqualsL2Penalty:
    """SGD weight decay is the exact gradient of the paper's L2 penalty."""

    def _models(self, rng):
        a = Linear(6, 4, rng=np.random.default_rng(3))
        b = Linear(6, 4, rng=np.random.default_rng(3))
        b.load_state_dict(a.state_dict())
        return a, b

    def test_sgd_decay_step_equals_explicit_penalty_gradient(self, rng):
        lam = 0.37
        a, b = self._models(rng)
        grad = rng.normal(size=a.weight.shape).astype(np.float32)
        a.weight.grad += grad
        b.weight.grad += grad
        # a: optimizer-applied decay; b: the explicit penalty gradient
        # lam * w added to the task gradient by hand.
        b.weight.grad += np.float32(lam) * b.weight.data
        SGD([a.weight], lr=0.1, weight_decay=lam).step()
        SGD([b.weight], lr=0.1, weight_decay=0.0).step()
        assert np.array_equal(a.weight.data, b.weight.data)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_decay_equivalence_holds_across_steps(self, rng, momentum):
        lam = 5e-2
        a, b = self._models(rng)
        opt_a = SGD([a.weight], lr=0.05, momentum=momentum, weight_decay=lam)
        opt_b = SGD([b.weight], lr=0.05, momentum=momentum, weight_decay=0.0)
        for _ in range(4):
            grad = rng.normal(size=a.weight.shape).astype(np.float32)
            opt_a.zero_grad()
            opt_b.zero_grad()
            a.weight.grad += grad
            b.weight.grad += grad + np.float32(lam) * b.weight.data
            opt_a.step()
            opt_b.step()
            assert np.array_equal(a.weight.data, b.weight.data)

    def test_penalty_gradient_matches_finite_difference(self, rng):
        """d/dw l2_penalty == (lambda/m) * w — the decay term scaled by m."""
        lam, samples = 0.25, 50
        layer = Linear(5, 3, rng=np.random.default_rng(1))
        params = [layer.weight]
        eps = 1e-4
        flat = layer.weight.data.reshape(-1)
        for flat_index in rng.choice(flat.size, size=5, replace=False):
            original = float(flat[flat_index])
            flat[flat_index] = original + eps
            up = l2_penalty(params, lam, num_samples=samples)
            flat[flat_index] = original - eps
            down = l2_penalty(params, lam, num_samples=samples)
            flat[flat_index] = original
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - lam / samples * original) < 1e-6

    def test_stacked_per_variant_decay_matches_serial(self, rng):
        decays = np.array([0.0, 0.1, 0.3])
        template = Linear(4, 3, rng=np.random.default_rng(5))
        serial_layers = [Linear(4, 3, rng=np.random.default_rng(5)) for _ in decays]
        template.load_stacked_state(
            stack_state_dicts([layer.state_dict() for layer in serial_layers]),
            trainable=True,
        )
        grad = rng.normal(size=template.weight.shape).astype(np.float32)
        template.weight.stacked_grad += grad[None]
        template.bias.stacked_grad += np.zeros_like(template.bias.stacked)
        SGD(template.parameters(), lr=0.1, weight_decay=decays.astype(np.float32)).step()
        for index, (decay, layer) in enumerate(zip(decays, serial_layers)):
            layer.weight.grad += grad
            SGD(layer.parameters(), lr=0.1, weight_decay=float(decay)).step()
            assert np.array_equal(template.weight.stacked[index], layer.weight.data)


class TestBatchOrderPlumbing:
    """All variants of a grid must consume the identical batch order."""

    def _label_sequence(self, trainer: Trainer | StackedTrainer, dataset) -> list:
        return [labels.tolist() for _, labels in trainer.make_loader(dataset)]

    def test_shared_shuffle_seed_overrides_diverging_seeds(self):
        dataset = load_dataset("mnist", num_samples=64, seed=0)
        model_a = Sequential(Linear(784, 4, rng=0))
        model_b = Sequential(Linear(784, 4, rng=1))
        a = Trainer(model_a, TrainingConfig(seed=7, shuffle_seed=3, batch_size=16))
        b = Trainer(
            model_b,
            TrainingConfig(seed=11, shuffle_seed=3, batch_size=16, weight_noise_std=0.5),
        )
        assert self._label_sequence(a, dataset) == self._label_sequence(b, dataset)

    def test_shuffle_seed_defaults_to_seed(self):
        config = TrainingConfig(seed=9)
        assert config.effective_shuffle_seed == 9
        assert TrainingConfig(seed=9, shuffle_seed=2).effective_shuffle_seed == 2

    def test_variant_training_config_pins_shuffle_seed(self):
        base = TrainingConfig(seed=5)
        noisy = variant_training_config(
            base, VariantSpec("l2+n4", l2=L2Config(), noise=NoiseAwareConfig(std=0.4))
        )
        plain = variant_training_config(base, VariantSpec("Original"))
        assert noisy.shuffle_seed == plain.shuffle_seed == 5
        assert noisy.weight_decay == L2Config().weight_decay
        assert noisy.weight_noise_std == 0.4

    def test_grid_variants_see_identical_batches(self):
        dataset = load_dataset("mnist", num_samples=64, seed=0)
        base = TrainingConfig(seed=3, batch_size=16)
        specs = [
            VariantSpec("Original"),
            VariantSpec("l2+n5", l2=L2Config(), noise=NoiseAwareConfig(std=0.5)),
        ]
        sequences = []
        for spec in specs:
            model = Sequential(Linear(784, 4, rng=0))
            trainer = Trainer(model, variant_training_config(base, spec))
            sequences.append(self._label_sequence(trainer, dataset))
        assert sequences[0] == sequences[1]


@pytest.fixture(scope="module")
def mnist_split():
    dataset = load_dataset("mnist", num_samples=160, seed=0)
    return train_test_split(dataset, 0.25, seed=1)


class TestStackedSerialEquivalence:
    """train_variant_grid_stacked is numerically identical to the serial grid."""

    GRID = [
        VariantSpec("Original"),
        VariantSpec("L2_reg", l2=L2Config()),
        VariantSpec("l2+n3", l2=L2Config(), noise=NoiseAwareConfig(std=0.3)),
    ]

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_cnn_grid_bit_identical(self, mnist_split, optimizer):
        config = TrainingConfig(
            epochs=2, batch_size=16, lr=2e-3, seed=0, optimizer=optimizer, momentum=0.9
        )
        serial = train_variant_grid(
            "cnn_mnist", mnist_split, config, variants=self.GRID
        )
        stacked = train_variant_grid_stacked(
            "cnn_mnist", mnist_split, config, variants=self.GRID
        )
        for reference, candidate in zip(serial, stacked):
            assert candidate.spec == reference.spec
            assert candidate.baseline_accuracy == reference.baseline_accuracy
            assert candidate.history.train_loss == reference.history.train_loss
            assert candidate.history.train_accuracy == reference.history.train_accuracy
            assert candidate.history.test_accuracy == reference.history.test_accuracy
            assert candidate.history.l2_penalty == reference.history.l2_penalty
            state_ref = reference.model.full_state_dict()
            state_new = candidate.model.full_state_dict()
            for name in state_ref:
                assert np.array_equal(state_ref[name], state_new[name]), name

    def test_resnet_grid_bit_identical(self):
        """Batch-norm models (per-variant statistics) agree bit-for-bit too."""
        dataset = load_dataset("cifar10", num_samples=64, seed=0)
        split = train_test_split(dataset, 0.25, seed=1)
        config = TrainingConfig(epochs=1, batch_size=16, lr=2e-3, seed=0)
        grid = self.GRID[:2] + [
            VariantSpec("l2+n2", l2=L2Config(), noise=NoiseAwareConfig(std=0.2))
        ]
        serial = train_variant_grid("resnet18", split, config, variants=grid)
        stacked = train_variant_grid_stacked("resnet18", split, config, variants=grid)
        for reference, candidate in zip(serial, stacked):
            assert candidate.baseline_accuracy == reference.baseline_accuracy
            state_ref = reference.model.full_state_dict()
            state_new = candidate.model.full_state_dict()
            for name in state_ref:
                assert np.array_equal(state_ref[name], state_new[name]), name

    def test_stacked_trainer_requires_trainable_state(self, mnist_split):
        from repro.nn.models import build_model

        model = build_model("cnn_mnist", rng=0)
        with pytest.raises(ValueError, match="trainable stacked state"):
            StackedTrainer(model, TrainingConfig(epochs=1))

    def test_trainable_state_requires_full_coverage(self):
        layer = Sequential(Linear(4, 3, rng=0), Linear(3, 2, rng=0))
        partial = {"layers.0.weight": np.zeros((2, 3, 4), dtype=np.float32)}
        with pytest.raises(KeyError, match="cover every parameter"):
            layer.load_stacked_state(partial, trainable=True)


class TestFullStateDict:
    def test_roundtrip_includes_batchnorm_buffers(self, rng):
        model = Sequential(Conv2D(2, 3, rng=rng), BatchNorm2D(3))
        model.train()
        model(rng.normal(size=(4, 2, 6, 6)).astype(np.float32))  # move stats
        state = model.full_state_dict()
        assert any(name.endswith("running_mean") for name in state)

        clone = Sequential(Conv2D(2, 3, rng=rng), BatchNorm2D(3))
        clone.load_full_state_dict(state)
        bn_src = model.layers[1]
        bn_dst = clone.layers[1]
        assert np.array_equal(bn_src.running_mean, bn_dst.running_mean)
        assert np.array_equal(bn_src.running_var, bn_dst.running_var)

    def test_missing_buffer_raises(self, rng):
        model = Sequential(BatchNorm2D(2))
        state = model.full_state_dict()
        state.pop("layers.0.running_var")
        with pytest.raises(KeyError, match="missing buffer"):
            model.load_full_state_dict(state)


class TestCheckpointCache:
    def _key(self, **overrides) -> dict:
        key = {"model": "cnn_mnist", "training": {"epochs": 2}, "seed": 0}
        key.update(overrides)
        return key

    def test_roundtrip(self, tmp_path, rng):
        cache = CheckpointCache(tmp_path)
        arrays = {"w": rng.normal(size=(3, 4)).astype(np.float32)}
        cache.put(self._key(), arrays, {"variant": "Original", "baseline_accuracy": 0.9})
        loaded = cache.get(self._key())
        assert loaded is not None
        assert np.array_equal(loaded.arrays["w"], arrays["w"])
        assert loaded.meta["variant"] == "Original"
        assert cache.hits == 1

    def test_miss_on_different_key_and_version(self, tmp_path, rng):
        cache = CheckpointCache(tmp_path, version="1.0")
        cache.put(self._key(), {"w": np.zeros(3, dtype=np.float32)}, {})
        assert cache.get(self._key(seed=1)) is None
        assert CheckpointCache(tmp_path, version="2.0").get(self._key()) is None
        assert cache.get(self._key()) is not None

    @pytest.mark.parametrize(
        "garbage",
        [b"not an npz", b"PK\x03\x04truncated-zip-magic-archive"],
        ids=["no-zip-magic", "zip-magic-truncated"],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = CheckpointCache(tmp_path)
        cache.put(self._key(), {"w": np.zeros(3, dtype=np.float32)}, {})
        cache.path_for(self._key()).write_bytes(garbage)
        assert cache.get(self._key()) is None

    def test_orphaned_archive_without_sidecar_is_a_miss(self, tmp_path):
        """put() writes .npz then .json — an interrupted store must not
        surface as a meta-less hit that crashes reconstruction."""
        cache = CheckpointCache(tmp_path)
        cache.put(self._key(), {"w": np.zeros(3, dtype=np.float32)}, {})
        cache.meta_path_for(self._key()).unlink()
        assert cache.get(self._key()) is None
        assert cache.misses == 1

    def test_load_cached_variant_tolerates_bad_meta(self, tmp_path):
        """A sidecar without baseline_accuracy counts as a miss, not a crash."""
        from repro.mitigation.robust_training import load_cached_variant

        cache = CheckpointCache(tmp_path)
        spec = VariantSpec("Original")
        config = TrainingConfig(epochs=1, seed=0)
        from repro.nn.models import build_model

        model = build_model("cnn_mnist", rng=0)
        key = {"model": "cnn_mnist"}
        cache.put(key, model.full_state_dict(), {"history": {}})  # no baseline
        assert load_cached_variant(cache, key, "cnn_mnist", spec, config) is None

    def test_hit_counter_persists(self, tmp_path):
        cache = CheckpointCache(tmp_path)
        cache.put(self._key(), {"w": np.zeros(3, dtype=np.float32)}, {})
        cache.get(self._key())
        cache.get(self._key())
        entries = list(cache.entries())
        assert len(entries) == 1
        assert entries[0]["hits"] == 2
        assert entries[0]["group"] == "cnn_mnist"

    def test_invalidate_and_clear(self, tmp_path):
        cache = CheckpointCache(tmp_path)
        cache.put(self._key(), {"w": np.zeros(3, dtype=np.float32)}, {})
        assert cache.invalidate(self._key())
        assert not cache.invalidate(self._key())
        cache.put(self._key(), {"w": np.zeros(3, dtype=np.float32)}, {})
        assert cache.clear() == 1


class TestStudyCheckpointIntegration:
    def test_warm_study_trains_zero_steps_and_matches(self, tmp_path, monkeypatch):
        """A warm ``fig8`` with ``checkpoint_cache`` loads every variant with
        zero training steps and reproduces the cold run's unit payloads."""
        from repro.analysis import experiments, mitigation_analysis
        from repro.engine import Campaign, ResultCache

        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "checkpoints"))
        trained: list[str] = []
        stacked = mitigation_analysis.train_variant_grid_stacked

        def counting(*args, **kwargs):
            results = stacked(*args, **kwargs)
            trained.extend(result.spec.name for result in results)
            return results

        monkeypatch.setattr(mitigation_analysis, "train_variant_grid_stacked", counting)
        spec = experiments.get_experiment("fig8").spec({"checkpoint_cache": True})
        runs = {}
        for name in ("cold", "warm"):
            monkeypatch.setattr(experiments, "_WORKLOADS", {})  # a fresh process
            trained.clear()
            result = Campaign([spec], cache=tmp_path / name).run()
            assert result.failures == 0
            units = ResultCache(tmp_path / name).records("fig8_variant")
            runs[name] = (
                result.records[0].payload,
                sorted(record.canonical_payload() for record in units),
                list(trained),
            )
        cold_payload, cold_units, cold_trained = runs["cold"]
        warm_payload, warm_units, warm_trained = runs["warm"]
        assert sorted(cold_trained) == sorted(mitigation_analysis.FIG8_VARIANTS)
        assert warm_trained == []
        assert len(warm_units) == len(mitigation_analysis.FIG8_VARIANTS)
        assert warm_units == cold_units
        assert warm_payload == cold_payload
        hits = [entry["hits"] for entry in CheckpointCache(tmp_path / "checkpoints").entries()]
        assert sorted(hits) == [1] * len(mitigation_analysis.FIG8_VARIANTS)

    def test_stacked_and_serial_studies_agree(self):
        """The study's stacked grid pass trains the serial reference's weights."""
        from repro.analysis.mitigation_analysis import (
            _WORKLOAD_DEFAULTS,
            MitigationAnalysisConfig,
            MitigationStudy,
        )

        variants = (
            VariantSpec("Original"),
            VariantSpec("l2+n2", l2=L2Config(), noise=NoiseAwareConfig(std=0.2)),
        )
        study = MitigationStudy(MitigationAnalysisConfig(variants=variants))
        split = study.prepare_split("cnn_mnist")
        stacked = study.train_variants("cnn_mnist", split)
        defaults = _WORKLOAD_DEFAULTS["cnn_mnist"]
        serial = train_variant_grid(
            "cnn_mnist",
            split,
            TrainingConfig(seed=study.config.seed, **defaults["training"]),
            variants=list(variants),
            model_kwargs=dict(defaults["model_kwargs"]),
        )
        assert len(stacked) == len(serial) == len(variants)
        for first, second in zip(stacked, serial):
            assert first.spec == second.spec
            assert first.baseline_accuracy == second.baseline_accuracy
            first_state = first.model.full_state_dict()
            second_state = second.model.full_state_dict()
            assert first_state.keys() == second_state.keys()
            for name in first_state:
                np.testing.assert_array_equal(first_state[name], second_state[name])

    def test_cli_train_prewarms_then_loads(self, tmp_path, capsys):
        from repro.engine.cli import main as cli_main

        argv = [
            "train", "cnn_mnist", "--variants", "Original,L2_reg",
            "--checkpoint-dir", str(tmp_path), "--json",
        ]
        assert cli_main(argv) == 0
        cold = json.loads(capsys.readouterr().out)["cnn_mnist"]
        assert cold["variants"] == 2 and cold["trained"] == 2
        assert cold["checkpoint_hits"] == 0 and cold["training_steps"] > 0
        assert "stacked_training" not in cold
        assert cli_main(argv) == 0
        warm = json.loads(capsys.readouterr().out)["cnn_mnist"]
        assert warm["checkpoint_hits"] == 2
        assert warm["trained"] == 0 and warm["training_steps"] == 0

    def test_cli_train_has_no_serial_switch(self, tmp_path, capsys):
        from repro.engine.cli import main as cli_main

        with pytest.raises(SystemExit) as exit_info:
            cli_main(["train", "cnn_mnist", "--serial",
                      "--checkpoint-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--serial" in capsys.readouterr().err
