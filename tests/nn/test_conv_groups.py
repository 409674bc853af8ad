"""Grouped convolution: the one-unfold kernel against a per-group reference.

``Conv2d`` unfolds its whole input once and computes every group with one
stacked ``np.matmul``.  The reference below is the per-group loop it
replaced: slice the group's channels, unfold them on their own, contract
with ``np.einsum(..., optimize=True)``, and write the group's block of the
output.  Both compute the same sums, but not with the same floating-point
operations: numpy lowers ``einsum("oc,ncl->nol")`` to a ``(N*L, K) @ (K, O)``
product with its operands swapped and chooses a gemv or gemm kernel from
their layout, so the two can differ in the last bits.  The comparison
therefore uses a tolerance (``rtol=1e-10, atol=1e-12``, far below any
difference that moves a prediction) instead of bit equality.  The serving
goldens are what pins the reports byte for byte.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from repro.nn.functional import col2im, im2col, pad_nchw
from repro.nn.layers.conv import Conv2d

_TOL = {"rtol": 1e-10, "atol": 1e-12}


def _reference_forward(layer: Conv2d, x: np.ndarray) -> tuple[np.ndarray, list]:
    n = x.shape[0]
    _, _, out_h, out_w = layer.output_shape(x.shape)
    k = layer.kernel_size
    group_in = layer.in_channels // layer.groups
    group_out = layer.out_channels // layer.groups
    out = np.empty((n, layer.out_channels, out_h, out_w), dtype=np.float64)
    cols_per_group = []
    for g in range(layer.groups):
        x_g = x[:, g * group_in : (g + 1) * group_in]
        cols = im2col(x_g, k, k, layer.stride, layer.padding)
        cols_per_group.append(cols)
        w_g = layer.weight.value[g * group_out : (g + 1) * group_out]
        w_mat = w_g.reshape(group_out, group_in * k * k)
        out_g = np.einsum("oc,ncl->nol", w_mat, cols, optimize=True)
        out[:, g * group_out : (g + 1) * group_out] = out_g.reshape(
            n, group_out, out_h, out_w
        )
    if layer.has_bias:
        out += layer.bias.value.reshape(1, -1, 1, 1)
    return out, cols_per_group


def _reference_backward(
    layer: Conv2d, input_shape: tuple, cols_per_group: list, grad_output: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    n, _, out_h, out_w = grad_output.shape
    k = layer.kernel_size
    group_in = layer.in_channels // layer.groups
    group_out = layer.out_channels // layer.groups
    grad_bias = grad_output.sum(axis=(0, 2, 3)) if layer.has_bias else None
    grad_weight = np.zeros_like(layer.weight.value)
    grad_input = np.empty(input_shape, dtype=np.float64)
    for g in range(layer.groups):
        grad_out_g = grad_output[:, g * group_out : (g + 1) * group_out]
        grad_out_mat = grad_out_g.reshape(n, group_out, out_h * out_w)
        cols = cols_per_group[g]
        grad_w = np.einsum("nol,ncl->oc", grad_out_mat, cols, optimize=True)
        grad_weight[g * group_out : (g + 1) * group_out] = grad_w.reshape(
            group_out, group_in, k, k
        )
        w_g = layer.weight.value[g * group_out : (g + 1) * group_out]
        w_mat = w_g.reshape(group_out, group_in * k * k)
        grad_cols = np.einsum("oc,nol->ncl", w_mat, grad_out_mat, optimize=True)
        group_shape = (input_shape[0], group_in, input_shape[2], input_shape[3])
        grad_input[:, g * group_in : (g + 1) * group_in] = col2im(
            grad_cols, group_shape, k, k, layer.stride, layer.padding
        )
    return grad_input, grad_weight, grad_bias


@st.composite
def _conv_cases(draw):
    groups = draw(st.sampled_from([1, 2, 3]))
    channels_per_group = draw(st.integers(1, 3))
    in_channels = groups * channels_per_group
    # groups == in_channels is the depthwise case MobileNetV2 uses; a proper
    # divisor with more than one channel per group is the general case.
    if draw(st.booleans()):
        groups = in_channels
    out_channels = groups * draw(st.integers(1, 3))
    kernel = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1]))
    min_size = max(1, kernel - 2 * padding)
    height = draw(st.integers(min_size, 7))
    width = draw(st.integers(min_size, 7))
    batch = draw(st.integers(1, 5))
    bias = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return (in_channels, out_channels, kernel, stride, padding, groups,
            (batch, in_channels, height, width), bias, seed)


@given(_conv_cases())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_conv2d_matches_per_group_reference(case):
    in_c, out_c, k, stride, padding, groups, shape, bias, seed = case
    rng = np.random.default_rng(seed)
    layer = Conv2d(in_c, out_c, k, stride=stride, padding=padding, groups=groups,
                   bias=bias, rng=rng)
    if bias:
        layer.bias.value[...] = rng.normal(size=out_c)
    x = rng.normal(size=shape)

    out = layer.forward(x)
    ref_out, ref_cols = _reference_forward(layer, x)
    assert out.shape == ref_out.shape
    assert_allclose(out, ref_out, **_TOL)

    grad_output = rng.normal(size=out.shape)
    grad_input = layer.backward(grad_output)
    ref_input, ref_weight, ref_bias = _reference_backward(layer, x.shape, ref_cols, grad_output)
    assert_allclose(grad_input, ref_input, **_TOL)
    assert_allclose(layer.weight.grad, ref_weight, **_TOL)
    if bias:
        assert_allclose(layer.bias.grad, ref_bias, **_TOL)


@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)),
    padding=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_pad_nchw_is_bit_exact_with_np_pad(shape, padding, seed):
    x = np.random.default_rng(seed).normal(size=shape)
    expected = np.pad(
        x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
    )
    padded = pad_nchw(x, padding)
    assert padded.dtype == expected.dtype
    assert padded.shape == expected.shape
    assert padded.tobytes() == expected.tobytes()
