"""Layer-level tests: forward shapes and numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dropout,
    Flatten,
    GaussianNoise,
    GlobalAvgPool2D,
    LeakyReLU,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.module import Module


def numerical_gradient_check(module: Module, x: np.ndarray, param=None, eps: float = 1e-3,
                             atol: float = 2e-3) -> None:
    """Compare analytic and numerical gradients of ``sum(forward(x))``.

    When ``param`` is given the check is on that parameter, otherwise on the
    input gradient returned by ``backward``.
    """
    module.train()

    def loss() -> float:
        return float(module(x).sum())

    base_out = module(x)
    grad_in = module.backward(np.ones_like(base_out))

    if param is None:
        flat_index = tuple(np.unravel_index(np.argmax(np.abs(x)), x.shape))
        perturbed = x.copy()
        perturbed[flat_index] += eps
        plus = float(module(perturbed).sum())
        perturbed[flat_index] -= 2 * eps
        minus = float(module(perturbed).sum())
        numeric = (plus - minus) / (2 * eps)
        assert abs(numeric - grad_in[flat_index]) < atol
    else:
        flat_index = tuple(np.unravel_index(np.argmax(np.abs(param.data)), param.data.shape))
        original = param.data[flat_index]
        param.data[flat_index] = original + eps
        plus = loss()
        param.data[flat_index] = original - eps
        minus = loss()
        param.data[flat_index] = original
        numeric = (plus - minus) / (2 * eps)
        assert abs(numeric - param.grad[flat_index]) < atol


class TestLinear:
    def test_forward_shape_and_bias(self):
        layer = Linear(4, 3, rng=0)
        out = layer(np.ones((2, 4), dtype=np.float32))
        assert out.shape == (2, 3)

    def test_rejects_wrong_input_shape(self):
        layer = Linear(4, 3, rng=0)
        with pytest.raises(ValueError):
            layer(np.ones((2, 5), dtype=np.float32))

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Linear(5, 3, rng=1)
        x = rng.normal(size=(4, 5)).astype(np.float32)
        numerical_gradient_check(layer, x, param=layer.weight)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Linear(5, 3, rng=1)
        x = rng.normal(size=(4, 5)).astype(np.float32)
        numerical_gradient_check(layer, x)

    def test_parameter_kinds(self):
        layer = Linear(2, 2, rng=0)
        assert layer.weight.kind == "fc"
        assert layer.bias.kind == "bias"

    def test_no_bias_option(self):
        layer = Linear(2, 2, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1


class TestConv2D:
    def test_output_shape_with_padding_and_stride(self):
        layer = Conv2D(3, 8, kernel_size=3, stride=2, padding=1, rng=0)
        out = layer(np.zeros((2, 3, 8, 8), dtype=np.float32))
        assert out.shape == (2, 8, 4, 4)
        assert layer.output_shape((8, 8)) == (8, 4, 4)

    def test_matches_direct_convolution(self, rng):
        layer = Conv2D(1, 1, kernel_size=2, stride=1, padding=0, bias=False, rng=0)
        layer.weight.data = np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2)
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        out = layer(x)
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = float((x[0, 0, i : i + 2, j : j + 2] * layer.weight.data[0, 0]).sum())
        np.testing.assert_allclose(out[0, 0], expected, rtol=1e-5)

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Conv2D(2, 3, kernel_size=3, padding=1, rng=2)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        numerical_gradient_check(layer, x, param=layer.weight, atol=5e-3)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Conv2D(2, 3, kernel_size=3, padding=1, rng=2)
        x = rng.normal(size=(2, 2, 5, 5)).astype(np.float32)
        numerical_gradient_check(layer, x, atol=5e-3)

    def test_kernel_kind_is_conv(self):
        assert Conv2D(1, 1, rng=0).weight.kind == "conv"

    def test_rejects_wrong_channel_count(self):
        layer = Conv2D(3, 4, rng=0)
        with pytest.raises(ValueError):
            layer(np.zeros((1, 2, 6, 6), dtype=np.float32))


class TestPooling:
    def test_maxpool_selects_maximum(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = MaxPool2D(2)(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        layer = MaxPool2D(2)
        layer(x)
        grad = layer.backward(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert grad[0, 0, 1, 1] == 1.0 and grad[0, 0, 0, 0] == 0.0
        assert float(grad.sum()) == 4.0

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_maxpool_padding_never_wins(self, training, stacked):
        """Padding is -inf: border windows of all-negative inputs keep their maximum."""
        x = -np.arange(1, 17, dtype=np.float32).reshape(1, 1, 4, 4)
        expected = np.array([[-1.0, -2.0], [-5.0, -6.0]], dtype=np.float32)
        if stacked:
            x = np.stack([x, x])
        layer = MaxPool2D(3, stride=2, padding=1)
        layer.train(training)
        out = layer(x)
        assert out.shape == x.shape[:-2] + (2, 2)
        for pooled in out.reshape(-1, 2, 2):
            np.testing.assert_array_equal(pooled, expected)
        if not training:
            # Evaluation forwards, serial or stacked, keep no backward cache.
            with pytest.raises(RuntimeError, match="backward called before forward"):
                layer.backward(np.ones_like(out))
            return
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape
        # Every output routes its gradient to its real maximum, none to padding.
        for routed in grad.reshape(-1, 4, 4):
            assert float(routed.sum()) == 4.0
            np.testing.assert_array_equal(routed[:2, :2], np.ones((2, 2)))

    @pytest.mark.parametrize("training", [True, False])
    def test_maxpool_empty_batch(self, training):
        layer = MaxPool2D(2)
        layer.train(training)
        out = layer(np.zeros((0, 3, 8, 8), dtype=np.float32))
        assert out.shape == (0, 3, 4, 4)
        if not training:
            with pytest.raises(RuntimeError, match="backward called before forward"):
                layer.backward(out)
            return
        assert layer.backward(out).shape == (0, 3, 8, 8)

    @pytest.mark.parametrize("kernel,padding", [(2, 2), (3, 2), (1, 1)])
    def test_maxpool_rejects_padding_wider_than_half_window(self, kernel, padding):
        with pytest.raises(ValueError, match="padding"):
            MaxPool2D(kernel, padding=padding)

    def test_avgpool_value_and_backward(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        layer = AvgPool2D(2)
        out = layer(x)
        np.testing.assert_allclose(out, 1.0)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_allclose(grad, 0.25)

    def test_global_avg_pool(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        layer = GlobalAvgPool2D()
        out = layer(x)
        np.testing.assert_allclose(out, [[1.5, 5.5]])
        grad = layer.backward(np.ones((1, 2), dtype=np.float32))
        np.testing.assert_allclose(grad, 0.25)


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, LeakyReLU, Sigmoid, Tanh])
    def test_gradient_matches_numerical(self, layer_cls, rng):
        layer = layer_cls()
        x = rng.normal(size=(3, 4)).astype(np.float32) + 0.1
        numerical_gradient_check(layer, x)

    def test_relu_zeroes_negatives(self):
        out = ReLU()(np.array([[-1.0, 2.0]], dtype=np.float32))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_relu_eval_is_value_equal_to_training_formula(self, rng):
        """Evaluation's ``np.maximum(x, 0)`` equals training's ``x * (x > 0)``
        as values, signed zeros, NaN and +inf included; a negative input
        gives +0.0 there instead of -0.0."""
        specials = np.array([-0.0, 0.0, np.nan, np.inf, -1.5, 2.5], dtype=np.float32)
        x = np.concatenate([rng.normal(size=64).astype(np.float32), specials]).reshape(2, 35)
        layer = ReLU()
        trained = layer.train()(x)
        evaluated = layer.eval()(x)
        assert evaluated.dtype == np.float32 and evaluated.shape == x.shape
        np.testing.assert_array_equal(evaluated, trained)
        assert np.isnan(evaluated).sum() == 1 and np.isinf(evaluated).sum() == 1
        assert not np.signbit(evaluated[x < 0]).any()

    def test_relu_minus_inf_is_zero_in_eval_and_nan_in_training(self):
        """-inf is where the two formulas part: training's ``-inf * 0`` is NaN,
        evaluation's ``max(-inf, 0)`` is 0.  No workload's activations reach
        -inf, so no payload sees the difference."""
        x = np.array([[-np.inf, 1.0]], dtype=np.float32)
        layer = ReLU()
        with np.errstate(invalid="ignore"):
            assert np.isnan(layer.train()(x)[0, 0])
        np.testing.assert_array_equal(layer.eval()(x), [[0.0, 1.0]])

    def test_relu_eval_forward_keeps_no_mask(self):
        layer = ReLU()
        x = np.ones((2, 3), dtype=np.float32)
        layer(x)
        assert layer._mask is not None
        layer.eval()(x)
        assert layer._mask is None
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones_like(x))

    def test_relu_training_bytes_match_masked_product(self, rng):
        """Training keeps the ``x * (x > 0)`` bytes and the input's layout."""
        x = rng.normal(size=(4, 3, 5, 5)).astype(np.float32)
        x[rng.random(x.shape) < 0.2] = -0.0
        x[0, 0, 0, :3] = [np.nan, np.inf, -np.inf]
        grad = rng.normal(size=x.shape).astype(np.float32)
        channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        for data in (x, channels_last):
            layer = ReLU()
            with np.errstate(invalid="ignore"):  # -inf * 0
                out = layer(data)
                mask = data > 0
                reference = data * mask
            assert out.strides == reference.strides and out.tobytes() == reference.tobytes()
            assert layer.backward(grad).tobytes() == (grad * mask).tobytes()

    def test_leaky_relu_negative_slope(self):
        out = LeakyReLU(alpha=0.1)(np.array([[-2.0]], dtype=np.float32))
        np.testing.assert_allclose(out, [[-0.2]], rtol=1e-6)

    def test_sigmoid_range(self, rng):
        out = Sigmoid()(rng.normal(size=(10,)).astype(np.float32) * 50)
        assert np.all(out >= 0) and np.all(out <= 1)


class TestBatchNorm:
    def test_training_normalizes_batch(self, rng):
        layer = BatchNorm2D(3)
        x = rng.normal(2.0, 3.0, size=(8, 3, 4, 4)).astype(np.float32)
        out = layer(x)
        assert abs(float(out.mean())) < 1e-4
        assert abs(float(out.std()) - 1.0) < 1e-2

    def test_running_stats_used_in_eval(self, rng):
        layer = BatchNorm2D(2)
        x = rng.normal(1.0, 2.0, size=(16, 2, 4, 4)).astype(np.float32)
        for _ in range(30):
            layer(x)
        layer.eval()
        out = layer(x)
        assert abs(float(out.mean())) < 0.2

    def test_gamma_gradient_matches_numerical(self, rng):
        layer = BatchNorm2D(2)
        x = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        numerical_gradient_check(layer, x, param=layer.gamma, atol=5e-3)

    def test_input_gradient_matches_numerical(self, rng):
        layer = BatchNorm2D(2)
        x = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        numerical_gradient_check(layer, x, atol=5e-3)

    def test_rejects_wrong_channels(self):
        layer = BatchNorm2D(3)
        with pytest.raises(ValueError):
            layer(np.zeros((1, 2, 4, 4), dtype=np.float32))


class TestDropoutNoiseFlatten:
    def test_dropout_identity_in_eval(self, rng):
        layer = Dropout(0.5, rng=0)
        layer.eval()
        x = rng.random((4, 10)).astype(np.float32)
        np.testing.assert_array_equal(layer(x), x)

    def test_dropout_scales_survivors(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((2000,), dtype=np.float32)
        out = layer(x)
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 2.0)
        assert abs(out.mean() - 1.0) < 0.1

    def test_dropout_backward_uses_same_mask(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((100,), dtype=np.float32)
        out = layer(x)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_gaussian_noise_only_in_training(self, rng):
        layer = GaussianNoise(std=0.5, rng=0)
        x = rng.random((8, 8)).astype(np.float32)
        noisy = layer(x)
        assert not np.allclose(noisy, x)
        layer.eval()
        np.testing.assert_array_equal(layer(x), x)

    def test_gaussian_noise_zero_std_is_identity(self, rng):
        layer = GaussianNoise(std=0.0)
        x = rng.random((4, 4)).astype(np.float32)
        np.testing.assert_array_equal(layer(x), x)

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.random((2, 3, 4, 5)).astype(np.float32)
        out = layer(x)
        assert out.shape == (2, 60)
        grad = layer.backward(out)
        assert grad.shape == x.shape


class TestSequential:
    def test_forward_and_backward_chain(self, rng):
        model = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        x = rng.normal(size=(3, 4)).astype(np.float32)
        out = model(x)
        assert out.shape == (3, 2)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_indexing_and_append(self):
        model = Sequential(ReLU())
        model.append(Tanh())
        assert len(model) == 2
        assert isinstance(model[1], Tanh)
        assert [type(m).__name__ for m in model] == ["ReLU", "Tanh"]
