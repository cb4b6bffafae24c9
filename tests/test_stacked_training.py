"""Stacked variant-grid training: per-layer backward checks, serial-vs-stacked
equivalence, batch-order plumbing, weight-decay/L2 identity and the trained-
model checkpoint cache."""

from __future__ import annotations

import json
import zipfile

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
    Adam,
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    GaussianNoise,
    GlobalAvgPool2D,
    Linear,
    MaxPool2D,
    Sequential,
    StackedCrossEntropyLoss,
    StackedTrainer,
    Trainer,
    TrainingConfig,
    evaluate_accuracies,
    evaluate_accuracy,
)
from repro.nn.ensemble import stack_state_dicts
from repro.nn.functional import batch_tile, col2im, im2col
from repro.nn.losses import CrossEntropyLoss, l2_penalty
from repro.nn.module import Module
from repro.nn.tensor import Parameter
from repro.nn.training import _WeightNoise


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


class TestStackedForwardCache:
    """Which stacked forwards keep a backward cache, and when it is freed."""

    def test_training_forward_frees_previous_patches_before_unfolding(
        self, rng, monkeypatch
    ):
        from repro.nn.layers import conv as conv_module

        layer = Conv2D(2, 3, kernel_size=3, padding=1, rng=rng)
        load_trainable_stack(layer, rng)
        layer.train()
        x = rng.normal(size=(VARIANTS, 4, 2, 6, 6)).astype(np.float32)
        layer(x)
        assert layer._cache is not None
        cache_freed = []
        unfold = conv_module.im2col

        def recording_im2col(*args, **kwargs):
            cache_freed.append(layer._cache is None)
            return unfold(*args, **kwargs)

        monkeypatch.setattr(conv_module, "im2col", recording_im2col)
        layer(x)
        # The previous batch's patch matrix is released before the next one
        # is built, so two never live at once; the new one is kept.
        assert cache_freed == [True]
        assert layer._cache is not None

    def test_eval_forward_on_trainable_stack_keeps_no_cache(self, rng):
        conv = Conv2D(2, 3, kernel_size=3, padding=1, rng=rng)
        linear = Linear(4, 3, rng=rng)
        norm = BatchNorm2D(2)
        for layer in (conv, linear, norm):
            load_trainable_stack(layer, rng)
        images = rng.normal(size=(VARIANTS, 4, 2, 6, 6)).astype(np.float32)
        features = rng.normal(size=(VARIANTS, 5, 4)).astype(np.float32)
        for layer, x in ((conv, images), (linear, features), (norm, images)):
            layer.train()
            out = layer(x)
            layer.eval()
            layer(x)
            with pytest.raises(RuntimeError):
                layer.backward(np.ones_like(out))

    def test_serial_eval_forward_keeps_no_cache(self, rng):
        """A 4-D evaluation forward keeps neither the conv patch matrix nor
        the max-pool winners."""
        conv = Conv2D(2, 3, kernel_size=3, padding=1, rng=rng)
        pool = MaxPool2D(2)
        x = rng.normal(size=(4, 2, 6, 6)).astype(np.float32)
        for layer in (conv, pool):
            layer.train()
            out = layer(x)
            layer.eval()
            np.testing.assert_array_equal(layer(x), out)
            assert layer._cache is None
            with pytest.raises(RuntimeError):
                layer.backward(np.ones_like(out))


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


class ReferenceAdam(Adam):
    """Adam as the textbook expressions, one new array per operation: the
    reference the in-place :meth:`Adam.step` must equal byte for byte."""

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for index, param in enumerate(self.parameters):
            grad = self._decayed_grad(param)
            m = self._state_for(param, self._m, index)
            v = self._state_for(param, self._v, index)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            data, _ = self._target(param)
            data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_weight_noise(arrays, stds, rngs) -> None:
    """Stacked weight noise as each slab plus a new noise array, in place
    of ``arrays``: the reference for ``_WeightNoise``'s in-place add."""
    for array in arrays:
        for index, (std, rng) in enumerate(zip(stds, rngs)):
            if std <= 0 or rng is None:
                continue
            slab = array[index]
            scale = float(std) * max(float(slab.std()), 1e-8)
            array[index] = slab + rng.normal(0.0, scale, size=slab.shape).astype(np.float32)


def reference_activation_noise(x, stds, rngs, relative: bool) -> np.ndarray:
    """``GaussianNoise``'s stacked forward as each slab plus a new noise array."""
    out = np.empty(x.shape, dtype=np.float32)
    for index, (std, rng) in enumerate(zip(stds, rngs)):
        slab = x[index]
        if std <= 0.0 or rng is None:
            out[index] = slab
            continue
        scale = float(std)
        if relative:
            activation_std = float(slab.std())
            scale = float(std) * (activation_std if activation_std > 0 else 1.0)
        out[index] = slab + rng.normal(0.0, scale, size=slab.shape).astype(np.float32)
    return out


def special_gradient(rng, shape) -> np.ndarray:
    """A float32 gradient with zeros of both signs and a wide magnitude range."""
    grad = (rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape)).astype(np.float32)
    grad[rng.random(shape) < 0.05] = 0.0
    grad[rng.random(shape) < 0.05] = -0.0
    return grad


class TestInPlaceStepsBitIdentity:
    """The stacked training step's in-place kernels equal the expressions
    they replaced byte for byte."""

    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("shared_input", [True, False], ids=["shared", "stacked"])
    @pytest.mark.parametrize("channels", [1, 2, 8, 16])
    @pytest.mark.parametrize("variants", [1, 3, 11])
    def test_conv_bias_gradient_matches_serial(self, variants, channels, shared_input, layout):
        """Per variant, the stacked bias (and kernel) gradient equals a serial
        Conv2D's backward; 300 output rows per variant make a pairwise and a
        row-by-row sum differ."""
        rng = np.random.default_rng(100 * variants + channels)
        serial = [
            Conv2D(2, channels, kernel_size=3, padding=1, rng=rng) for _ in range(variants)
        ]
        template = Conv2D(2, channels, kernel_size=3, padding=1, rng=rng)
        template.load_stacked_state(
            stack_state_dicts([layer.state_dict() for layer in serial]), trainable=True
        )
        template.train()
        shape = (3, 2, 10, 10)
        x = rng.normal(size=shape if shared_input else (variants,) + shape).astype(np.float32)
        out = template(x)
        grad = special_gradient(rng, out.shape)
        if layout == "channels_last":
            grad = np.ascontiguousarray(grad.transpose(0, 1, 3, 4, 2)).transpose(0, 1, 4, 2, 3)
        template.backward(grad)
        for index, layer in enumerate(serial):
            layer.train()
            layer(x if shared_input else x[index])
            layer.backward(grad[index])
            assert layer.bias.grad.tobytes() == template.bias.stacked_grad[index].tobytes()
            assert layer.weight.grad.tobytes() == template.weight.stacked_grad[index].tobytes()

    @pytest.mark.parametrize(
        "stacked,decay",
        [(False, 0.0), (False, 1e-2), (True, 0.0), (True, 1e-2), (True, "per-variant")],
    )
    def test_adam_step_matches_reference_expressions(self, stacked, decay):
        """Over several steps, weights and both moments equal the reference's."""
        rng = np.random.default_rng(7)
        shapes = (("conv", (4, 2, 3, 3)), ("bias", (4,)), ("fc", (10, 36)), ("bias", (10,)))
        variants = 3
        if decay == "per-variant":
            decay = np.array([0.0, 1e-2, 5e-2], dtype=np.float32)

        def parameters():
            params = []
            for kind, shape in shapes:
                param = Parameter(np.random.default_rng(len(params)).normal(size=shape), kind=kind)
                if stacked:
                    param.stacked = np.stack(
                        [param.data * (1 + 0.1 * v) for v in range(variants)]
                    ).astype(np.float32)
                    param.stacked_grad = np.zeros_like(param.stacked)
                params.append(param)
            return params

        mine, reference = parameters(), parameters()
        optimizers = (Adam(mine, lr=2e-3, weight_decay=decay),
                      ReferenceAdam(reference, lr=2e-3, weight_decay=decay))
        for _ in range(5):
            for param, twin in zip(mine, reference):
                target = param.stacked_grad if stacked else param.grad
                grad = special_gradient(rng, target.shape)
                target[...] = grad
                (twin.stacked_grad if stacked else twin.grad)[...] = grad
            for optimizer in optimizers:
                optimizer.step()
            for index, (param, twin) in enumerate(zip(mine, reference)):
                values = param.stacked if stacked else param.data
                expected = twin.stacked if stacked else twin.data
                assert values.tobytes() == expected.tobytes()
                assert optimizers[0]._m[index].tobytes() == optimizers[1]._m[index].tobytes()
                assert optimizers[0]._v[index].tobytes() == optimizers[1]._v[index].tobytes()

    def test_weight_noise_matches_reference(self, rng):
        """Inside the context every noisy slab equals slab + its draw, from
        the same generators in the same order; on exit the weights return."""
        stds = np.array([0.0, 0.1, 0.5, 0.9])
        params = []
        for kind, shape in (("conv", (4, 2, 3, 3)), ("fc", (10, 36))):
            param = Parameter(rng.normal(size=shape), kind=kind)
            param.stacked = rng.normal(size=(len(stds),) + shape).astype(np.float32)
            params.append(param)
        original = [param.stacked.copy() for param in params]
        expected = [array.copy() for array in original]

        def rngs():
            return [None] + [np.random.default_rng(seed) for seed in (1, 2, 3)]

        reference_rngs, noise_rngs = rngs(), rngs()
        reference_weight_noise(expected, stds, reference_rngs)
        with _WeightNoise(params, stds, noise_rngs):
            for param, array in zip(params, expected):
                assert param.stacked.tobytes() == array.tobytes()
        for param, array in zip(params, original):
            assert param.stacked.tobytes() == array.tobytes()
        for mine, theirs in zip(noise_rngs[1:], reference_rngs[1:]):
            assert mine.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("relative", [True, False])
    def test_activation_noise_matches_reference(self, rng, relative):
        stds = np.array([0.0, 0.3, 0.9])
        x = rng.normal(size=(len(stds), 5, 2, 4, 4)).astype(np.float32)
        x[1] = 0.0  # a relative draw over an all-zero slab scales by std alone

        def rngs():
            return [np.random.default_rng(seed) for seed in (4, 5, 6)]

        layer = GaussianNoise(relative=relative)
        layer.stacked_std, layer.stacked_rngs = stds, rngs()
        layer.train()
        reference_rngs = rngs()
        expected = reference_activation_noise(x, stds, reference_rngs, relative)
        assert layer(x).tobytes() == expected.tobytes()
        for mine, theirs in zip(layer.stacked_rngs, reference_rngs):
            assert mine.bit_generator.state == theirs.bit_generator.state


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


class TestOneTestScorePerFit:
    """Both trainers score the test split once, after the last epoch."""

    CONFIG = dict(epochs=3, batch_size=16, lr=2e-3, seed=0)

    def _serial(self, split, test, **config):
        from repro.nn.models import build_model

        model = build_model("cnn_mnist", rng=0)
        trainer = Trainer(model, TrainingConfig(**self.CONFIG, **config))
        return model, trainer.fit(split.train, test)

    def _stacked(self, split, test, **config):
        from repro.nn.models import build_model

        model = build_model("cnn_mnist", rng=0)
        model.load_stacked_state(
            {name: np.stack([p.data, p.data]) for name, p in model.named_parameters()},
            trainable=True,
        )
        trainer = StackedTrainer(
            model, TrainingConfig(**self.CONFIG, **config), weight_decay=np.array([0.0, 1e-3])
        )
        return model, trainer.fit(split.train, test)

    @staticmethod
    def _assert_same_epochs(history, unscored):
        assert len(history.train_loss) == len(history.train_accuracy) == 3
        assert len(history.l2_penalty) == 3
        assert history.train_loss == unscored.train_loss
        assert history.train_accuracy == unscored.train_accuracy
        assert history.l2_penalty == unscored.l2_penalty
        assert unscored.test_accuracy == []

    def test_serial_fit_scores_the_trained_model_once(self, mnist_split):
        model, history = self._serial(mnist_split, mnist_split.test)
        reference, unscored = self._serial(mnist_split, None)
        self._assert_same_epochs(history, unscored)
        # The one score is the last epoch's: the trained model's accuracy.
        assert history.test_accuracy == [evaluate_accuracy(reference, mnist_split.test, 16)]
        assert history.final_test_accuracy == history.test_accuracy[0]
        state, expected = model.full_state_dict(), reference.full_state_dict()
        assert state.keys() == expected.keys()
        for name in state:
            assert state[name].tobytes() == expected[name].tobytes(), name

    def test_stacked_fit_scores_every_variant_once(self, mnist_split):
        model, histories = self._stacked(mnist_split, mnist_split.test)
        reference, unscored = self._stacked(mnist_split, None)
        expected = evaluate_accuracies(reference, mnist_split.test, 16)
        assert len(histories) == len(unscored) == 2
        for index, (history, plain) in enumerate(zip(histories, unscored)):
            self._assert_same_epochs(history, plain)
            assert history.test_accuracy == [float(expected[index])]
        for param, ref in zip(model.parameters(), reference.parameters()):
            assert param.stacked.tobytes() == ref.stacked.tobytes(), param.name

    def test_verbose_logs_a_test_score_on_the_last_epoch_only(self, mnist_split, capsys):
        self._serial(mnist_split, mnist_split.test, verbose=True)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert ["test_acc=" in line for line in lines] == [False, False, True]
        self._serial(mnist_split, None, verbose=True)
        self._stacked(mnist_split, mnist_split.test, verbose=True)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and not any("test_acc=" in line for line in lines)


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

    def test_load_cached_variant_reads_per_epoch_test_scores(self, tmp_path):
        """A checkpoint stored when every epoch scored the test split, one
        score per epoch in its history, still loads."""
        from repro.mitigation.robust_training import load_cached_variant
        from repro.nn.models import build_model

        cache = CheckpointCache(tmp_path)
        model = build_model("cnn_mnist", rng=0)
        history = {
            "train_loss": [1.9, 1.1, 0.7],
            "train_accuracy": [0.4, 0.7, 0.8],
            "test_accuracy": [0.5, 0.65, 0.75],
            "l2_penalty": [0.0, 0.0, 0.0],
        }
        key = {"model": "cnn_mnist"}
        cache.put(key, model.full_state_dict(), {
            "variant": "Original", "baseline_accuracy": 0.75,
            "history": history, "extras": {"training_steps": 30},
        })
        loaded = load_cached_variant(
            cache, key, "cnn_mnist", VariantSpec("Original"), TrainingConfig(epochs=3, seed=0)
        )
        assert loaded is not None
        assert loaded.history.to_dict() == history
        assert loaded.history.final_test_accuracy == loaded.baseline_accuracy == 0.75
        state = model.full_state_dict()
        for name, array in loaded.model.full_state_dict().items():
            assert array.tobytes() == state[name].tobytes(), name

    def test_entries_are_stored_uncompressed(self, tmp_path, rng):
        cache = CheckpointCache(tmp_path)
        cache.put(self._key(), {"w": rng.normal(size=(3, 4)).astype(np.float32)}, {})
        with zipfile.ZipFile(cache.path_for(self._key())) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}

    def test_compressed_entries_still_load(self, tmp_path):
        """An entry written as a compressed archive plus its sidecar, as the
        store wrote them before archives were stored uncompressed, loads
        equal arrays through ``get`` and ``load_cached_variant``."""
        from repro.mitigation.robust_training import load_cached_variant
        from repro.nn.models import build_model
        from repro.utils.serialization import save_json

        cache = CheckpointCache(tmp_path)
        state = build_model("cnn_mnist", rng=0).full_state_dict()
        key = {"model": "cnn_mnist"}
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **state)
        meta = {"variant": "Original", "baseline_accuracy": 0.75, "history": {},
                "extras": {"training_steps": 10}}
        save_json(cache.meta_path_for(key),
                  {**meta, "hits": 0, "key": key, "version": cache.version})
        with zipfile.ZipFile(path) as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_DEFLATED}

        loaded = cache.get(key)
        assert loaded is not None and loaded.meta["baseline_accuracy"] == 0.75
        assert sorted(loaded.arrays) == sorted(state)
        for name, array in state.items():
            assert loaded.arrays[name].tobytes() == array.tobytes(), name
        variant = load_cached_variant(
            cache, key, "cnn_mnist", VariantSpec("Original"), TrainingConfig(epochs=1, seed=0)
        )
        assert variant is not None and variant.baseline_accuracy == 0.75
        for name, array in variant.model.full_state_dict().items():
            assert array.tobytes() == state[name].tobytes(), name
        assert cache.hits == 2

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
