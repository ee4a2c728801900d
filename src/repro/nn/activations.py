"""Activation functions, including the LUT-quantised variants of the paper.

The Neurocube implements the non-linear activate function ``N.L()`` of Eq. 2
as a look-up table inside each PNG (§IV-A).  :class:`ActivationLUT` models
that: it tabulates any activation over the Q1.7.8 input domain and evaluates
by table lookup, so the same object serves both the functional NN substrate
and the PNG hardware model.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.fixedpoint import Q_1_7_8, QFormat, from_float, to_float
from repro.fixedpoint.array import _rounded


class Activation:
    """Base class for differentiable activation functions."""

    #: short name used by the compiler and reports.
    name = "activation"

    def forward(self, y: np.ndarray) -> np.ndarray:
        """Apply the activation element-wise to pre-activations ``y``."""
        raise NotImplementedError

    def derivative(self, y: np.ndarray) -> np.ndarray:
        """d(activation)/dy evaluated at pre-activations ``y``."""
        raise NotImplementedError

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.forward(y)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Identity(Activation):
    """Pass-through activation (used by pooling and output layers)."""

    name = "identity"

    def forward(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        return np.ones_like(np.asarray(y, dtype=np.float64))


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, y: np.ndarray) -> np.ndarray:
        return np.maximum(y, 0.0)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y) > 0.0).astype(np.float64)


class Sigmoid(Activation):
    """Logistic sigmoid."""

    name = "sigmoid"

    def forward(self, y: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.asarray(y, dtype=np.float64)))

    def derivative(self, y: np.ndarray) -> np.ndarray:
        s = self.forward(y)
        return s * (1.0 - s)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, y: np.ndarray) -> np.ndarray:
        return np.tanh(y)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        t = np.tanh(y)
        return 1.0 - t * t


class PiecewiseLinear(Activation):
    """The cellular neural network output function [29].

    ``f(y) = 0.5 * (|y + 1| - |y - 1|)`` — identity on [-1, 1], clamped
    to +-1 outside.  Used when programming CeNN layers (paper §VI: a
    locally connected layer "like Cellular Neural Network" maps the same
    way as a 2D convolution, with this function in the LUT).
    """

    name = "piecewise_linear"

    def forward(self, y: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(y, dtype=np.float64), -1.0, 1.0)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        return ((y > -1.0) & (y < 1.0)).astype(np.float64)


class ActivationLUT(Activation):
    """A look-up-table realisation of an activation (paper §IV-A, Fig. 8a).

    The table is indexed by the raw fixed-point pre-activation value; it
    covers the full Q-format input domain, so lookup is exact for any
    representable input.  The PNG reprograms this table per layer, which is
    how the paper supports per-layer activations (e.g. LSTM gates, §VI).

    Args:
        base: the real-valued activation being tabulated.
        fmt: fixed-point format of inputs and outputs.
    """

    def __init__(self, base: Activation, fmt: QFormat = Q_1_7_8) -> None:
        if fmt.total_bits > 24:
            raise ConfigurationError(
                f"LUT over a {fmt.total_bits}-bit domain would need "
                f"{1 << fmt.total_bits} entries; refusing above 24 bits")
        self.base = base
        self.fmt = fmt
        self.name = f"lut({base.name})"
        raw_inputs = np.arange(fmt.min_raw, fmt.max_raw + 1, dtype=np.int64)
        outputs = base.forward(to_float(raw_inputs, fmt))
        self._table = from_float(outputs, fmt)
        self._offset = -fmt.min_raw

    @property
    def entries(self) -> int:
        """Number of table entries (``2 ** total_bits``)."""
        return len(self._table)

    def lookup_raw(self, raw: np.ndarray) -> np.ndarray:
        """Table lookup on raw fixed-point values (the hardware path)."""
        raw = np.asarray(raw, dtype=np.int64)
        clipped = np.clip(raw, self.fmt.min_raw, self.fmt.max_raw)
        return self._table[clipped + self._offset]

    def forward(self, y: np.ndarray) -> np.ndarray:
        """Quantise ``y`` to the LUT domain, look up, return real values.

        Equal to ``to_float(lookup_raw(from_float(y)))`` in one pass: the
        rounded raw values are already clipped to the table's domain, so
        they index it directly.
        """
        raw = _rounded(y, self.fmt)
        raw += self._offset
        return to_float(self._table[raw.astype(np.intp)], self.fmt)

    def derivative(self, y: np.ndarray) -> np.ndarray:
        """Derivative of the underlying smooth activation.

        Training through a LUT uses the smooth derivative (straight-through
        on the quantisation), the standard practice for fixed-point training.
        """
        return self.base.derivative(y)

    def max_abs_error(self) -> float:
        """Worst-case |LUT(y) - base(y)| over the representable domain."""
        raw_inputs = np.arange(self.fmt.min_raw, self.fmt.max_raw + 1,
                               dtype=np.int64)
        y = to_float(raw_inputs, self.fmt)
        return float(np.max(np.abs(to_float(self._table, self.fmt)
                                   - self.base.forward(y))))


_BUILTINS: dict[str, type[Activation]] = {
    "identity": Identity,
    "relu": ReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "piecewise_linear": PiecewiseLinear,
}


def by_name(name: str) -> Activation:
    """Instantiate a built-in activation by its short name."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown activation {name!r}; "
            f"known: {sorted(_BUILTINS)}") from None
