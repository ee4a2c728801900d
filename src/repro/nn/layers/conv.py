"""2D convolution (the paper's locally connected layer).

Implemented with an im2col lowering so forward and backward are dense
matrix products — fast enough in numpy to train the scene-labeling network
on synthetic data.  The forward pass is one ``np.matmul`` of the
``(O, C*k*k)`` weight matrix with the ``(B, C*k*k, OH*OW)`` columns, as
:class:`~repro.nn.layers.dense.Dense` does.  On Q1.7.8 operands every
product is a multiple of 2**-16 below 2**14 in magnitude, so float64
sums of up to 2**23 of them are exact in any order and the result does
not depend on how BLAS blocks them.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import ConfigurationError
from repro.nn import initializers
from repro.nn.activations import Activation
from repro.nn.layers.base import Layer


def im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """Lower ``(B, C, H, W)`` into ``(B, C*k*k, OH*OW)`` patch columns."""
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    batch, channels, out_h, out_w, _, _ = windows.shape
    cols = windows.transpose(0, 1, 4, 5, 2, 3)
    return cols.reshape(batch, channels * kernel * kernel, out_h * out_w)


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
           kernel: int) -> np.ndarray:
    """Scatter-add ``(B, C*k*k, OH*OW)`` columns back into an image.

    Inverse (adjoint) of :func:`im2col`; overlapping patches accumulate,
    which is exactly the gradient flow of convolution.
    """
    batch, channels, height, width = input_shape
    out_h = height - kernel + 1
    out_w = width - kernel + 1
    x = np.zeros(input_shape, dtype=cols.dtype)
    cols = cols.reshape(batch, channels, kernel, kernel, out_h, out_w)
    for ky in range(kernel):
        for kx in range(kernel):
            x[:, :, ky:ky + out_h, kx:kx + out_w] += cols[:, :, ky, kx]
    return x


class Conv2D(Layer):
    """Valid-padding, stride-1 2D convolution over ``(C, H, W)`` inputs.

    This is the paper's 2D convolutional layer: each output neuron connects
    to the ``kernel x kernel`` 2D neighbourhood of every input map (§II-A,
    Fig. 3c), so ``connections_per_neuron = in_channels * kernel**2``.

    Args:
        out_channels: number of output feature maps.
        kernel: square kernel side (7 for every conv in the paper's net).
        activation: non-linearity after the weighted sum.
    """

    connectivity = "local"

    def __init__(self, out_channels: int, kernel: int,
                 activation: Activation | None = None, **kwargs) -> None:
        if out_channels < 1:
            raise ConfigurationError(
                f"out_channels must be >= 1, got {out_channels}")
        if kernel < 1:
            raise ConfigurationError(f"kernel must be >= 1, got {kernel}")
        super().__init__(activation=activation, **kwargs)
        self.out_channels = out_channels
        self.kernel = kernel
        self._cols: np.ndarray | None = None

    def compute_output_shape(
            self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ConfigurationError(
                f"Conv2D expects (C, H, W) input, got {input_shape}")
        channels, height, width = input_shape
        if height < self.kernel or width < self.kernel:
            raise ConfigurationError(
                f"kernel {self.kernel} larger than input {height}x{width}")
        return (self.out_channels,
                height - self.kernel + 1,
                width - self.kernel + 1)

    def allocate(self, rng: np.random.Generator) -> None:
        in_channels = self.input_shape[0]
        fan_in = in_channels * self.kernel * self.kernel
        fan_out = self.out_channels * self.kernel * self.kernel
        self.params = {
            "weight": initializers.glorot_uniform(
                (self.out_channels, in_channels, self.kernel, self.kernel),
                fan_in, fan_out, rng),
            "bias": initializers.zeros((self.out_channels,)),
        }
        self.quantize_params()

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        cols = im2col(np.asarray(x, dtype=np.float64), self.kernel)
        if training:
            self._x = x
            self._cols = cols
        w = self.params["weight"].reshape(self.out_channels, -1)
        y = np.matmul(w, cols)
        y += self.params["bias"][None, :, None]
        _, out_h, out_w = self.output_shape
        y = y.reshape(x.shape[0], self.out_channels, out_h, out_w)
        return self._activate(y, training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None:
            raise ConfigurationError(
                f"backward() on {self.name!r} without forward(training=True)")
        grad_y = self._activation_grad(grad_out)
        batch = grad_y.shape[0]
        grad_flat = grad_y.reshape(batch, self.out_channels, -1)
        w = self.params["weight"].reshape(self.out_channels, -1)
        self.grads["weight"] = np.einsum(
            "bop,bcp->oc", grad_flat, self._cols,
            optimize=True).reshape(self.params["weight"].shape)
        self.grads["bias"] = grad_flat.sum(axis=(0, 2))
        grad_cols = np.einsum("oc,bop->bcp", w, grad_flat, optimize=True)
        return col2im(grad_cols, (batch, *self.input_shape), self.kernel)

    @property
    def connections_per_neuron(self) -> int:
        self._require_built()
        return self.input_shape[0] * self.kernel * self.kernel
