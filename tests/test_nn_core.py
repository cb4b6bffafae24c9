"""Tests for Module/Parameter plumbing, functional ops, losses and optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv2D,
    CrossEntropyLoss,
    Flatten,
    Linear,
    ReLU,
    SGD,
    Sequential,
    l2_penalty,
)
from repro.nn import functional as F
from repro.nn.init import he_normal, he_uniform, ones, xavier_normal, xavier_uniform, zeros
from repro.nn.tensor import Parameter


def untiled_im2col(x, kernel_h, kernel_w, stride, padding):
    """im2col in one pass over the whole batch: the reference for the tiles."""
    batch, channels, height, width = x.shape
    out_h = F.conv_output_size(height, kernel_h, stride, padding)
    out_w = F.conv_output_size(width, kernel_w, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((batch, channels, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            cols[:, :, ky, kx, :, :] = x[:, :, ky:y_end:stride, kx:x_end:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )
    return cols, out_h, out_w


def untiled_col2im(cols, input_shape, kernel_h, kernel_w, stride, padding):
    """col2im in one pass over the whole batch: the reference for the tiles."""
    batch, channels, height, width = input_shape
    out_h = F.conv_output_size(height, kernel_h, stride, padding)
    out_w = F.conv_output_size(width, kernel_w, stride, padding)
    cols = cols.reshape(batch, out_h, out_w, channels, kernel_h, kernel_w).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols[:, :, ky, kx, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class TestParameterAndModule:
    def test_parameter_copy_is_deep(self):
        param = Parameter(np.ones(3), name="w", kind="fc")
        clone = param.copy()
        clone.data[0] = 5.0
        assert param.data[0] == 1.0
        assert clone.name == "w" and clone.kind == "fc"

    def test_named_parameters_and_state_dict_roundtrip(self):
        model = Sequential(Conv2D(1, 2, 3, rng=0), ReLU(), Flatten(), Linear(2 * 4 * 4, 3, rng=1))
        names = [name for name, _ in model.named_parameters()]
        assert len(names) == len(set(names)) == 4
        state = model.state_dict()
        model.load_state_dict(state)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, state[name])

    def test_load_state_dict_rejects_missing_keys(self):
        model = Sequential(Linear(2, 2, rng=0))
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_shape_mismatch(self):
        model = Sequential(Linear(2, 2, rng=0))
        state = {name: np.zeros((5, 5)) for name in model.state_dict()}
        with pytest.raises((ValueError, KeyError)):
            model.load_state_dict(state)

    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2, rng=0), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_and_num_parameters(self):
        model = Sequential(Linear(3, 2, rng=0))
        model(np.ones((1, 3), dtype=np.float32))
        model.backward(np.ones((1, 2), dtype=np.float32))
        assert any(np.abs(p.grad).sum() > 0 for p in model.parameters())
        model.zero_grad()
        assert all(np.abs(p.grad).sum() == 0 for p in model.parameters())
        assert model.num_parameters() == 3 * 2 + 2


class TestFunctional:
    def test_conv_output_size(self):
        assert F.conv_output_size(28, 3, 1, 1) == 28
        assert F.conv_output_size(8, 2, 2, 0) == 4
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)

    def test_im2col_col2im_are_adjoint(self, rng):
        """col2im(im2col(x)) multiplies each pixel by its patch count."""
        x = rng.random((2, 3, 6, 6)).astype(np.float32)
        cols, out_h, out_w = F.im2col(x, 3, 3, 1, 1)
        assert cols.shape == (2 * out_h * out_w, 3 * 9)
        back = F.col2im(np.ones_like(cols), x.shape, 3, 3, 1, 1)
        assert back.shape == x.shape
        # Interior pixels are covered by 9 overlapping 3x3 patches.
        assert back[0, 0, 3, 3] == 9.0

    @staticmethod
    def _batch(kind: str, sample_bytes: int) -> int:
        """No sample, one, part of one tile, or several tiles plus a partial one.

        ``sample_bytes`` is the per-sample size the kernel under test sizes
        its batch tiles by."""
        per_tile = F.batch_tile(10**9, sample_bytes)
        return {"empty": 0, "one": 1, "part": max(1, per_tile // 2),
                "several": 2 * per_tile + per_tile // 2}[kind]

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("batch", ["empty", "one", "part", "several"])
    def test_tiled_unfold_and_fold_match_untiled_bytes(self, rng, kernel, stride, padding, batch):
        """Tiling over the batch changes no byte of im2col or col2im.

        im2col gathers each ``(ky, kx)`` plane as whole padded rows, whose
        columns past the valid ones reach into the next row or the spare
        rows under the plane; none of those may land in ``cols``.  The 8x7
        input keeps rows and columns apart, and channels-last inputs are
        gathered from the same tile buffer.  col2im's overlapping windows
        (3x3 and 5x5 kernels) sum several patches into one pixel, so this
        also pins the summation order.  im2col sizes its tiles by its
        padded-row patch buffer and col2im by its patches, so each kernel
        gets batch sizes that straddle its own tiles."""
        height, width = 8, 7
        out_h = F.conv_output_size(height, kernel, stride, padding)
        out_w = F.conv_output_size(width, kernel, stride, padding)
        for channels in (1, 3, 16):
            patch_row_bytes = channels * kernel * kernel * out_h * 4
            size = self._batch(batch, patch_row_bytes * (width + 2 * padding))
            x = rng.normal(size=(size, channels, height, width)).astype(np.float32)
            x[rng.random(x.shape) < 0.2] = -0.0
            x[rng.random(x.shape) < 0.01] = np.nan
            channels_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
            for data in (x, channels_last):
                cols, cols_h, cols_w = F.im2col(data, kernel, kernel, stride, padding)
                ref_cols, ref_h, ref_w = untiled_im2col(data, kernel, kernel, stride, padding)
                assert (cols_h, cols_w) == (ref_h, ref_w) == (out_h, out_w)
                assert cols.shape == ref_cols.shape and cols.tobytes() == ref_cols.tobytes()
            size = self._batch(batch, patch_row_bytes * out_w)
            shape = (size, channels, height, width)
            grad_cols = rng.normal(size=(size * out_h * out_w, channels * kernel * kernel))
            grad_cols = grad_cols.astype(np.float32)
            grad_cols[rng.random(grad_cols.shape) < 0.2] = -0.0
            folded = F.col2im(grad_cols, shape, kernel, kernel, stride, padding)
            reference = untiled_col2im(grad_cols, shape, kernel, kernel, stride, padding)
            # Same layout too: callers such as BatchNorm2D.backward reduce the
            # gradient in memory order.
            assert folded.shape == reference.shape and folded.strides == reference.strides
            assert folded.tobytes() == reference.tobytes()

    def test_softmax_rows_sum_to_one(self, rng):
        logits = rng.normal(size=(5, 7)).astype(np.float32) * 10
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
        assert np.all(probs >= 0)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = rng.normal(size=(3, 4)).astype(np.float64)
        np.testing.assert_allclose(
            F.log_softmax(logits), np.log(F.softmax(logits)), atol=1e-9
        )

    def test_sigmoid_extremes_are_stable(self):
        values = F.sigmoid(np.array([-1000.0, 1000.0], dtype=np.float32))
        np.testing.assert_allclose(values, [0.0, 1.0], atol=1e-6)

    def test_sigmoid_preserves_float_dtype(self):
        x = np.linspace(-30, 30, 61).astype(np.float32)
        out = F.sigmoid(x)
        assert out.dtype == np.float32
        expected = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)
        assert F.sigmoid(np.array([0, 1, 2])).dtype == np.float64

    def test_one_hot(self):
        np.testing.assert_array_equal(
            F.one_hot(np.array([1, 0]), 3), [[0, 1, 0], [1, 0, 0]]
        )


class TestInit:
    @pytest.mark.parametrize("fn", [he_normal, he_uniform, xavier_normal, xavier_uniform])
    def test_shapes_and_determinism(self, fn):
        a = fn((8, 4), rng=0)
        b = fn((8, 4), rng=0)
        assert a.shape == (8, 4) and a.dtype == np.float32
        np.testing.assert_array_equal(a, b)

    def test_he_normal_scale_tracks_fan_in(self):
        wide = he_normal((10, 1000), rng=0).std()
        narrow = he_normal((10, 10), rng=0).std()
        assert wide < narrow

    def test_zeros_and_ones(self):
        assert zeros((3,)).sum() == 0
        assert ones((3,)).sum() == 3


class TestLosses:
    def test_cross_entropy_perfect_prediction_is_small(self):
        loss_fn = CrossEntropyLoss()
        logits = np.array([[20.0, 0.0], [0.0, 20.0]], dtype=np.float32)
        assert loss_fn(logits, np.array([0, 1])) < 1e-6

    def test_cross_entropy_uniform_is_log_classes(self):
        loss_fn = CrossEntropyLoss()
        logits = np.zeros((4, 10), dtype=np.float32)
        assert abs(loss_fn(logits, np.zeros(4, dtype=int)) - np.log(10)) < 1e-5

    def test_gradient_matches_numerical(self, rng):
        loss_fn = CrossEntropyLoss()
        logits = rng.normal(size=(3, 4)).astype(np.float32)
        labels = np.array([0, 2, 3])
        loss_fn(logits, labels)
        grad = loss_fn.backward()
        eps = 1e-3
        perturbed = logits.copy()
        perturbed[1, 2] += eps
        plus = loss_fn(perturbed, labels)
        perturbed[1, 2] -= 2 * eps
        minus = loss_fn(perturbed, labels)
        assert abs((plus - minus) / (2 * eps) - grad[1, 2]) < 1e-3

    def test_label_smoothing_raises_loss_of_confident_predictions(self):
        logits = np.array([[30.0, 0.0]], dtype=np.float32)
        labels = np.array([0])
        plain = CrossEntropyLoss()(logits, labels)
        smoothed = CrossEntropyLoss(label_smoothing=0.2)(logits, labels)
        assert smoothed > plain

    def test_rejects_batch_mismatch(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss()(np.zeros((2, 3), dtype=np.float32), np.array([0]))

    def test_smoothed_targets_use_canonical_one_hot(self):
        from repro.nn.losses import _smoothed_targets

        labels = np.array([0, 2, 1])
        np.testing.assert_array_equal(
            _smoothed_targets((3, 3), labels, 0.0), F.one_hot(labels, 3)
        )
        smoothed = _smoothed_targets((3, 4), labels, 0.1)
        np.testing.assert_allclose(smoothed.sum(axis=1), 1.0, rtol=1e-6)
        assert smoothed.min() > 0

    def test_l2_penalty_only_counts_weight_kinds(self):
        params = [
            Parameter(np.ones(4), kind="fc"),
            Parameter(np.ones(4), kind="bias"),
            Parameter(np.ones((2, 2)), kind="conv"),
        ]
        penalty = l2_penalty(params, weight_decay=1.0, num_samples=1)
        assert penalty == pytest.approx((4 + 4) / 2.0)
        assert l2_penalty(params, weight_decay=0.0) == 0.0


class TestOptimizers:
    def _quadratic_params(self):
        return [Parameter(np.array([5.0, -3.0], dtype=np.float32), kind="fc")]

    def test_sgd_converges_on_quadratic(self):
        params = self._quadratic_params()
        opt = SGD(params, lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            params[0].grad += 2 * params[0].data
            opt.step()
        assert np.abs(params[0].data).max() < 1e-3

    def test_sgd_momentum_accelerates(self):
        plain = self._quadratic_params()
        momentum = self._quadratic_params()
        opt_plain = SGD(plain, lr=0.01)
        opt_momentum = SGD(momentum, lr=0.01, momentum=0.9)
        for _ in range(50):
            for params, opt in ((plain, opt_plain), (momentum, opt_momentum)):
                opt.zero_grad()
                params[0].grad += 2 * params[0].data
                opt.step()
        assert np.abs(momentum[0].data).max() < np.abs(plain[0].data).max()

    def test_adam_converges_on_quadratic(self):
        params = self._quadratic_params()
        opt = Adam(params, lr=0.2)
        for _ in range(300):
            opt.zero_grad()
            params[0].grad += 2 * params[0].data
            opt.step()
        assert np.abs(params[0].data).max() < 1e-2

    def test_weight_decay_shrinks_weights_without_gradient(self):
        params = [Parameter(np.ones(3, dtype=np.float32), kind="fc")]
        opt = SGD(params, lr=0.1, weight_decay=0.5)
        opt.step()  # gradient is zero, only decay acts
        assert np.all(params[0].data < 1.0)

    def test_weight_decay_skips_bias(self):
        params = [Parameter(np.ones(3, dtype=np.float32), kind="bias")]
        SGD(params, lr=0.1, weight_decay=0.5).step()
        np.testing.assert_array_equal(params[0].data, 1.0)

    def test_invalid_hyperparameters_raise(self):
        params = self._quadratic_params()
        with pytest.raises(ValueError):
            SGD(params, lr=-1.0)
        with pytest.raises(ValueError):
            SGD(params, lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            Adam(params, lr=0.1, betas=(1.5, 0.9))
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
