"""The fixed-point forward pass equals plain references bit for bit.

``Conv2D`` uses one ``np.matmul``, ``MaxPool2D`` a running
``np.maximum`` over strided slices, ``ActivationLUT.forward`` a single
rounding-and-gather pass, and ``Layer._activate`` skips the rounding an
``ActivationLUT`` in the layer's own format makes redundant.  On Q1.7.8
data each must give exactly what the straightforward formulation gives.
"""

import numpy as np
import pytest

from repro.fixedpoint import (
    Q_1_7_8, QFormat, from_float, quantize_float, to_float)
from repro.nn.activations import ActivationLUT, Identity, Sigmoid, Tanh
from repro.nn.layers import Conv2D, Dense, MaxPool2D


def build(layer, shape, seed=0):
    layer.build(shape, np.random.default_rng(seed))
    return layer


def q(rng, shape, scale):
    """Random values on the Q1.7.8 grid in ``[-scale, scale)``."""
    return quantize_float(rng.uniform(-scale, scale, shape), Q_1_7_8)


def direct_conv(x, weight, bias):
    """Valid stride-1 convolution as a loop over (channel, ky, kx)."""
    batch, channels, height, width = x.shape
    out_channels, _, kernel, _ = weight.shape
    out_h, out_w = height - kernel + 1, width - kernel + 1
    y = np.zeros((batch, out_channels, out_h, out_w))
    for c in range(channels):
        for ky in range(kernel):
            for kx in range(kernel):
                patch = x[:, None, c, ky:ky + out_h, kx:kx + out_w]
                y += weight[None, :, c, ky, kx, None, None] * patch
    return y + bias[None, :, None, None]


class TestConv:
    @pytest.mark.parametrize("batch", [1, 9])
    @pytest.mark.parametrize("kernel", [1, 3, 7])
    @pytest.mark.parametrize("channels", [1, 3, 16])
    def test_equals_direct_sum(self, rng, channels, kernel, batch):
        layer = build(Conv2D(5, kernel, activation=Identity()),
                      (channels, 11, 8))
        weight = q(rng, layer.params["weight"].shape, 2.0)
        bias = q(rng, (5,), 2.0)
        layer.params.update(weight=weight, bias=bias)
        x = q(rng, (batch, channels, 11, 8), 4.0)
        y = layer.forward(x)
        assert y.shape == (batch, 5, 12 - kernel, 9 - kernel)
        assert np.array_equal(y, direct_conv(x, weight, bias))


class TestMaxPool:
    @pytest.mark.parametrize("size", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(3, 12, 12), (2, 7, 11)],
                             ids=["even", "odd_cropped"])
    @pytest.mark.parametrize("negative", [False, True],
                             ids=["mixed", "all_negative"])
    def test_equals_tile_max(self, rng, size, shape, negative):
        layer = build(MaxPool2D(size), shape)
        x = q(rng, (4, *shape), 8.0)
        if negative:
            x = -np.abs(x) - Q_1_7_8.resolution
        reference = layer._tile(x).max(axis=(3, 5))
        assert np.array_equal(layer.forward(x), reference)
        assert np.array_equal(layer.forward(x, training=True), reference)


class TestActivationLUT:
    @pytest.mark.parametrize("base", [Tanh(), Sigmoid(), Identity()],
                             ids=lambda base: base.name)
    def test_equals_lookup_of_quantised_input(self, rng, base):
        lut = ActivationLUT(base)
        lsb = Q_1_7_8.resolution
        ties = (np.arange(-300, 300) + 0.5) * lsb
        y = np.concatenate([
            rng.uniform(-150.0, 150.0, 2000),
            ties,
            [np.inf, -np.inf, np.nan, 1e300, -1e300, 2.0 ** 70,
             Q_1_7_8.max_value + lsb / 2, Q_1_7_8.min_value - lsb / 2,
             Q_1_7_8.max_value, Q_1_7_8.min_value, 0.0, -0.0],
        ]).reshape(4, -1)
        expected = to_float(lut.lookup_raw(from_float(y, lut.fmt)), lut.fmt)
        assert np.array_equal(lut.forward(y), expected)

    def test_other_format(self, rng):
        fmt = QFormat(integer_bits=3, fraction_bits=4)
        lut = ActivationLUT(Tanh(), fmt)
        y = rng.uniform(-20.0, 20.0, (3, 50))
        expected = to_float(lut.lookup_raw(from_float(y, fmt)), fmt)
        assert np.array_equal(lut.forward(y), expected)


class TestActivateRounding:
    """Only a LUT in the layer's own format skips the rounding."""

    def _dense(self, activation, qformat, rng):
        layer = build(Dense(7, activation=activation, qformat=qformat),
                      (6,))
        x = q(rng, (5, 6), 3.0)
        pre = x @ layer.params["weight"].T + layer.params["bias"]
        return layer.forward(x), pre

    def test_non_lut_is_requantised(self, rng):
        out, pre = self._dense(Tanh(), Q_1_7_8, rng)
        assert not np.array_equal(np.tanh(pre), quantize_float(np.tanh(pre)))
        assert np.array_equal(out, quantize_float(np.tanh(pre)))

    def test_lut_in_another_format_is_requantised(self, rng):
        coarse = QFormat(integer_bits=7, fraction_bits=4)
        lut = ActivationLUT(Tanh())
        out, pre = self._dense(lut, coarse, rng)
        assert not np.array_equal(lut.forward(pre),
                                  quantize_float(lut.forward(pre), coarse))
        assert np.array_equal(out, quantize_float(lut.forward(pre), coarse))

    def test_same_format_lut_output_is_already_on_the_grid(self, rng):
        lut = ActivationLUT(Tanh())
        out, pre = self._dense(lut, Q_1_7_8, rng)
        assert np.array_equal(out, lut.forward(pre))
        assert np.array_equal(out, quantize_float(lut.forward(pre)))
