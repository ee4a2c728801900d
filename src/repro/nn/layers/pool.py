"""Pooling layers (the paper's subsampling layers between convolutions)."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers.base import Layer


class _Pool2D(Layer):
    """Shared machinery for non-overlapping square pooling.

    Inputs whose spatial size is not a multiple of the window are cropped
    at the bottom/right (floor semantics), matching how the paper's layer
    sizes shrink (e.g. 151x111 -> 75x55 under 2x2 pooling).
    """

    connectivity = "pool"

    def __init__(self, size: int = 2, **kwargs) -> None:
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        super().__init__(**kwargs)
        self.size = size

    def compute_output_shape(
            self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ConfigurationError(
                f"pooling expects (C, H, W) input, got {input_shape}")
        channels, height, width = input_shape
        if height < self.size or width < self.size:
            raise ConfigurationError(
                f"pool window {self.size} larger than input {height}x{width}")
        return (channels, height // self.size, width // self.size)

    def _tile(self, x: np.ndarray) -> np.ndarray:
        """Crop and reshape to ``(B, C, OH, s, OW, s)`` windows."""
        _, out_h, out_w = self.output_shape
        s = self.size
        cropped = x[:, :, :out_h * s, :out_w * s]
        batch, channels = x.shape[:2]
        return cropped.reshape(batch, channels, out_h, s, out_w, s)

    @property
    def connections_per_neuron(self) -> int:
        return self.size * self.size

    @property
    def weight_count(self) -> int:
        return 0


class MaxPool2D(_Pool2D):
    """Max pooling with a square non-overlapping window."""

    def _window_max(self, x: np.ndarray) -> np.ndarray:
        """Elementwise maximum of the ``s*s`` strided window slices.

        Equal to ``self._tile(x).max(axis=(3, 5))`` (``max`` is exact),
        but each step is one elementwise ``np.maximum`` into a 4-D
        array rather than a reduction over two axes of a 6-D view.
        """
        _, out_h, out_w = self.output_shape
        s = self.size
        y = x[:, :, :out_h * s:s, :out_w * s:s].copy()
        for dy in range(s):
            for dx in range(s):
                if dy or dx:
                    np.maximum(y, x[:, :, dy:out_h * s:s, dx:out_w * s:s],
                               out=y)
        return y

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        x = np.asarray(x, dtype=np.float64)
        y = self._window_max(x)
        if training:
            self._x = x
            # Mask of the winning elements; ties split gradient evenly.
            expanded = y[:, :, :, None, :, None]
            winners = (self._tile(x) == expanded).astype(np.float64)
            self._mask = winners / winners.sum(axis=(3, 5), keepdims=True)
        return self._activate(y, training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_y = self._activation_grad(grad_out)
        batch = grad_y.shape[0]
        grad_tiles = self._mask * grad_y[:, :, :, None, :, None]
        grad_in = np.zeros((batch, *self.input_shape), dtype=np.float64)
        _, out_h, out_w = self.output_shape
        s = self.size
        grad_in[:, :, :out_h * s, :out_w * s] = grad_tiles.reshape(
            batch, self.input_shape[0], out_h * s, out_w * s)
        return grad_in


class AvgPool2D(_Pool2D):
    """Average pooling with a square non-overlapping window."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        x = np.asarray(x, dtype=np.float64)
        y = self._tile(x).mean(axis=(3, 5))
        if training:
            self._x = x
        return self._activate(y, training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_y = self._activation_grad(grad_out)
        batch = grad_y.shape[0]
        s = self.size
        _, out_h, out_w = self.output_shape
        spread = np.repeat(np.repeat(grad_y, s, axis=2), s, axis=3)
        spread /= s * s
        grad_in = np.zeros((batch, *self.input_shape), dtype=np.float64)
        grad_in[:, :, :out_h * s, :out_w * s] = spread
        return grad_in
