"""Layer base class.

A layer is both a differentiable function (``forward``/``backward``) and a
description the Neurocube compiler can map: every layer reports its neuron
count, connections per neuron, MAC count and connectivity class, which is
exactly the information the PNG's three-counter FSM is programmed with
(paper §IV-B).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.fixedpoint import QFormat, quantize_float
from repro.nn.activations import Activation, ActivationLUT, Identity

#: Connectivity classes recognised by the Neurocube compiler (paper §II-A):
#: ``local`` — 2D-neighbourhood connections (conv, cellular nets);
#: ``full``  — all-to-all connections (MLP / FC / RNN layers);
#: ``pool``  — local reduction without weights.
CONNECTIVITY_CLASSES = ("local", "full", "pool")


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`compute_output_shape`, :meth:`forward` and
    :meth:`backward`, and the mapping metadata properties.  Parameters and
    their gradients live in the ``params`` / ``grads`` dicts under matching
    keys so optimisers can walk them generically.

    Args:
        activation: the non-linearity applied to this layer's
            pre-activations (Eq. 2).  Defaults to identity.
        name: optional human-readable name used in reports.
        qformat: when set, weights and outputs are rounded to this
            fixed-point format after every forward pass, emulating the
            Q1.7.8 hardware datapath.
    """

    #: connectivity class used by the Neurocube compiler.
    connectivity = "full"

    def __init__(self, activation: Activation | None = None,
                 name: str | None = None,
                 qformat: QFormat | None = None) -> None:
        self.activation = activation if activation is not None else Identity()
        self.name = name or type(self).__name__.lower()
        self.qformat = qformat
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    # ------------------------------------------------------------------
    # shape plumbing
    # ------------------------------------------------------------------

    def build(self, input_shape: tuple[int, ...],
              rng: np.random.Generator) -> tuple[int, ...]:
        """Bind the layer to ``input_shape`` (sans batch) and allocate params.

        Returns the layer's output shape.  Calling ``build`` again with a
        different shape reallocates parameters.
        """
        self.input_shape = tuple(input_shape)
        self.output_shape = self.compute_output_shape(self.input_shape)
        self.allocate(rng)
        return self.output_shape

    def compute_output_shape(
            self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Output shape (sans batch) for the given input shape."""
        raise NotImplementedError

    def allocate(self, rng: np.random.Generator) -> None:
        """Allocate parameters; default is parameter-free."""

    def _require_built(self) -> None:
        if self.output_shape is None:
            raise ConfigurationError(
                f"layer {self.name!r} used before build(); add it to a "
                f"Network or call build() with an input shape")

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Forward pass on a batched input ``(B, *input_shape)``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backward pass.

        Receives d(loss)/d(output), fills ``self.grads`` and returns
        d(loss)/d(input).  Must be called after a ``forward`` with
        ``training=True``.
        """
        raise NotImplementedError

    def _activate(self, y: np.ndarray, training: bool) -> np.ndarray:
        """Apply activation (and fixed-point rounding) to pre-activations.

        An :class:`ActivationLUT` in the layer's own format already
        returns values on its grid, where rounding is the identity, so
        its output is not rounded again.
        """
        if training:
            self._y = y
        out = self.activation.forward(y)
        if self.qformat is not None and not (
                isinstance(self.activation, ActivationLUT)
                and self.activation.fmt == self.qformat):
            out = quantize_float(out, self.qformat)
        return out

    def _activation_grad(self, grad_out: np.ndarray) -> np.ndarray:
        """Chain grad_out through the activation derivative."""
        if self._y is None:
            raise ConfigurationError(
                f"backward() on layer {self.name!r} without a prior "
                f"forward(training=True)")
        return grad_out * self.activation.derivative(self._y)

    def quantize_params(self) -> None:
        """Round all parameters to the layer's Q-format, if one is set."""
        if self.qformat is None:
            return
        for key, value in self.params.items():
            self.params[key] = quantize_float(value, self.qformat)

    # ------------------------------------------------------------------
    # Neurocube mapping metadata
    # ------------------------------------------------------------------

    @property
    def neuron_count(self) -> int:
        """Number of output neurons — the PNG's outermost loop bound."""
        self._require_built()
        return int(np.prod(self.output_shape))

    @property
    def connections_per_neuron(self) -> int:
        """Inputs feeding one output neuron — the PNG's middle loop bound."""
        raise NotImplementedError

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of one forward pass (one sample)."""
        return self.neuron_count * self.connections_per_neuron

    @property
    def ops(self) -> int:
        """Arithmetic op count (2 per MAC: multiply + add), one sample."""
        return 2 * self.macs

    @property
    def weight_count(self) -> int:
        """Number of synaptic-weight parameters."""
        return sum(int(np.prod(p.shape)) for p in self.params.values())

    def __repr__(self) -> str:
        built = (f"{self.input_shape}->{self.output_shape}"
                 if self.output_shape is not None else "unbuilt")
        return f"{type(self).__name__}(name={self.name!r}, {built})"
