"""Tests for the convolution/dense/activation primitives, including
property-based checks of the extract/scatter patch adjoint pair, the
kernel-row patch copy against an element-wise reference, and numerical
gradient validation."""

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from repro.nn import functional as F


def naive_conv(x, w, b, stride):
    """Reference convolution with explicit loops."""
    n, c, h, width = x.shape
    o, i, k, _ = w.shape
    oh = (h - k) // stride + 1
    ow = (width - k) // stride + 1
    y = np.zeros((n, o, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(o):
            for r in range(oh):
                for col in range(ow):
                    patch = x[ni, :, r * stride:r * stride + k,
                              col * stride:col * stride + k]
                    y[ni, oi, r, col] = (patch * w[oi]).sum() + b[oi]
    return y.astype(np.float32)


def strided_patches(x, k, stride):
    """Reference patch rows: a strided view of every window, copied a
    value at a time by ``reshape``."""
    n, c, h, width = x.shape
    oh = (h - k) // stride + 1
    ow = (width - k) // stride + 1
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, oh, ow, c, k, k),
        strides=(sn, sh * stride, sw * stride, sc, sh, sw),
        writeable=False)
    return windows.reshape(n * oh * ow, -1)


def assert_same_patches(x, k, stride):
    """``extract_patches`` equals the reference byte for byte and owns a
    C-contiguous copy."""
    rows = F.extract_patches(x, k, stride)
    expected = strided_patches(x, k, stride)
    assert rows.dtype == x.dtype
    assert rows.shape == expected.shape
    assert rows.flags.c_contiguous
    assert not np.shares_memory(rows, x)
    assert rows.tobytes() == expected.tobytes()


small_conv = st.tuples(
    st.integers(1, 2),            # batch
    st.integers(1, 3),            # in channels
    st.integers(1, 4),            # out channels
    st.sampled_from([(5, 2, 1), (5, 2, 2), (7, 3, 2), (4, 3, 1)]),
)


class TestConvForward:
    def test_output_size(self):
        assert F.conv_output_size(84, 8, 4) == 20
        assert F.conv_output_size(20, 4, 2) == 9

    def test_output_size_too_small(self):
        with pytest.raises(ValueError):
            F.conv_output_size(3, 4, 1)

    def test_channel_mismatch_raises(self):
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        w = np.zeros((4, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            F.conv_forward(x, w, np.zeros(4, dtype=np.float32), 1)

    @hypothesis.given(small_conv, st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=25, deadline=None)
    def test_matches_naive_convolution(self, dims, seed):
        n, c, o, (size, k, stride) = dims
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        w = rng.standard_normal((o, c, k, k)).astype(np.float32)
        b = rng.standard_normal(o).astype(np.float32)
        y = F.conv_forward(x, w, b, stride)
        np.testing.assert_allclose(y, naive_conv(x, w, b, stride),
                                   rtol=1e-4, atol=1e-4)

    def test_a3c_conv1_shape(self):
        x = np.zeros((2, 4, 84, 84), dtype=np.float32)
        w = np.zeros((16, 4, 8, 8), dtype=np.float32)
        y = F.conv_forward(x, w, np.zeros(16, dtype=np.float32), 4)
        assert y.shape == (2, 16, 20, 20)
        assert F.extract_patches(x, 8, 4).shape == (2 * 400, 4 * 64)
        assert F.extract_patches(x, 8, 4, transpose=True).shape == \
            (4 * 64, 2 * 400)


class TestPatchAdjoint:
    @hypothesis.given(small_conv, st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=25, deadline=None)
    def test_scatter_is_adjoint_of_extract(self, dims, seed):
        """<extract(x), y> == <x, scatter(y)> — the defining property of
        the adjoint, which backward propagation relies on."""
        n, c, _o, (size, k, stride) = dims
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, size, size)).astype(np.float64)
        rows = F.extract_patches(x, k, stride)
        assert rows.tobytes() == strided_patches(x, k, stride).tobytes()
        y = rng.standard_normal(rows.shape)
        lhs = float((rows * y).sum())
        back = F.scatter_patches(y, x.shape, k, stride)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)
        np.testing.assert_array_equal(
            F.extract_patches(x, k, stride, transpose=True), rows.T)

    def test_scatter_accumulates_overlaps(self):
        rows = np.ones((4, 4), dtype=np.float32)  # k=2, 3x3 input, s=1
        out = F.scatter_patches(rows, (1, 1, 3, 3), 2, 1)
        # centre element overlaps all four windows
        assert out[0, 0, 1, 1] == 4.0
        assert out[0, 0, 0, 0] == 1.0


class TestPatchRowCopy:
    """``extract_patches`` moves each kernel row as one item; these pin
    its bytes to the element-wise strided copy."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,k,stride", [
        ((2, 3, 9, 11), 3, 2),     # K % S != 0, non-square input
        ((1, 2, 8, 8), 4, 4),      # windows tile the input
        ((3, 1, 6, 5), 1, 1),      # one-value kernel rows
        ((1, 1, 4, 4), 4, 2),      # one window: a reshape would alias x
    ])
    def test_dtypes(self, dtype, shape, k, stride):
        x = np.random.default_rng(0).standard_normal(shape).astype(dtype)
        assert_same_patches(x, k, stride)

    @pytest.mark.parametrize("n", [1, 5, 16, 80])
    @pytest.mark.parametrize("c,size,k,stride", [
        (4, 84, 8, 4),             # Table 1 Conv1
        (16, 20, 4, 2),            # Table 1 Conv2
    ])
    def test_table1_shapes(self, n, c, size, k, stride):
        x = np.random.default_rng(n).standard_normal(
            (n, c, size, size)).astype(np.float32)
        assert_same_patches(x, k, stride)

    def test_non_contiguous_input(self):
        nhwc = np.random.default_rng(1).standard_normal(
            (2, 12, 10, 3)).astype(np.float32)
        x = nhwc.transpose(0, 3, 1, 2)
        assert not x.flags.c_contiguous
        assert_same_patches(x, 4, 2)

    def test_contiguous_slice_at_an_offset(self):
        size = 2 * 3 * 11 * 11
        buffer = np.random.default_rng(2).standard_normal(
            3 * size).astype(np.float32)
        x = buffer[size + 5:2 * size + 5].reshape(2, 3, 11, 11)
        assert x.flags.c_contiguous and x.base is not None
        assert_same_patches(x, 3, 2)

    def test_read_only_input(self):
        x = np.random.default_rng(3).standard_normal(
            (2, 4, 20, 20)).astype(np.float32)
        x.flags.writeable = False
        assert_same_patches(x, 8, 4)


class TestGradients:
    def _conv_setup(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, 7, 7)).astype(np.float64)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float64)
        b = rng.standard_normal(4).astype(np.float64)
        return x, w, b

    def test_conv_backward_input_matches_numerical(self):
        x, w, b = self._conv_setup()
        target = np.random.default_rng(1).standard_normal((2, 4, 3, 3))

        def loss():
            y = F.conv_forward(x, w, b, 2)  # float64 throughout
            return float((y * target).sum())

        dx = F.conv_backward_input(target, w, 2, x.shape)
        from repro.nn.gradcheck import numerical_gradient
        numeric = numerical_gradient(loss, x, eps=1e-5)
        np.testing.assert_allclose(dx, numeric, rtol=1e-4, atol=1e-7)

    def test_conv_grad_params_matches_numerical(self):
        x, w, b = self._conv_setup()
        target = np.random.default_rng(1).standard_normal((2, 4, 3, 3))

        def loss():
            y = F.conv_forward(x, w, b, 2)  # float64 throughout
            return float((y * target).sum())

        dw, db = F.conv_grad_params(x, target, w.shape, 2)
        from repro.nn.gradcheck import numerical_gradient
        np.testing.assert_allclose(dw, numerical_gradient(loss, w, 1e-5),
                                   rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(db, numerical_gradient(loss, b, 1e-5),
                                   rtol=1e-4, atol=1e-7)

    def test_dense_gradients_match_numerical(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6)).astype(np.float64)
        w = rng.standard_normal((5, 6)).astype(np.float64)
        b = rng.standard_normal(5).astype(np.float64)
        target = rng.standard_normal((4, 5))

        def loss():
            return float((F.dense_forward(x, w, b) * target).sum())

        from repro.nn.gradcheck import numerical_gradient
        dw, db = F.dense_grad_params(x, target)
        dx = F.dense_backward_input(target, w)
        np.testing.assert_allclose(dw, numerical_gradient(loss, w, 1e-5),
                                   rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(db, numerical_gradient(loss, b, 1e-5),
                                   rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(dx, numerical_gradient(loss, x, 1e-5),
                                   rtol=1e-3, atol=1e-6)


class TestReLU:
    def test_forward_clamps_negatives(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(
            F.relu_forward(x), [0.0, 0.0, 0.0, 0.5, 2.0])

    def test_backward_masks_gradient(self):
        x = np.array([-1.0, 1.0], dtype=np.float32)
        dy = np.array([5.0, 5.0], dtype=np.float32)
        np.testing.assert_array_equal(F.relu_backward(dy, x), [0.0, 5.0])

    @hypothesis.given(st.integers(0, 2 ** 31 - 1))
    @hypothesis.settings(max_examples=20, deadline=None)
    def test_relu_gradient_zero_exactly_where_input_nonpositive(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(50).astype(np.float32)
        dy = rng.standard_normal(50).astype(np.float32)
        dx = F.relu_backward(dy, x)
        np.testing.assert_array_equal(dx[x <= 0], 0.0)
        np.testing.assert_array_equal(dx[x > 0], dy[x > 0])
