"""Multiply-accumulate unit (paper §III-B1).

The hardware MAC takes 16-bit fixed-point operands, keeps a wide internal
accumulator across the connection loop, and emits a 16-bit state when its
neuron is complete.  The wide accumulator is modelled with float64 (a
40-bit accumulator never overflows for the layer sizes involved, and
float64 represents the exact sums of Q1.7.8 products); the result is
quantised back to the storage format on read-out, exactly where the
hardware rounds.

The per-operation arithmetic runs in Python floats: ``raw / scale`` is
exact (a small integer over a power of two) and the product and sum are
the same IEEE-754 double operations numpy performs, so results are
bit-identical to :func:`repro.fixedpoint.to_float` — without building a
0-d array per operand — and the accumulator is always a plain ``float``.

A pass shared by several output maps (one PNG/NoC/vault run for maps
that stream the same input, :mod:`repro.core.parallel`) gives each MAC
lane one accumulator per map: :class:`MultiMapMAC` runs the identical
arithmetic on every accumulator, each with its own map's weight.
"""

from __future__ import annotations

from repro.fixedpoint import QFormat, Q_1_7_8


class MACUnit:
    """One MAC: multiply two raw fixed-point items, accumulate wide.

    Args:
        fmt: operand/result fixed-point format.
        mac_id: identifier used in packets and error messages.
    """

    #: Output maps the unit accumulates: one (see :class:`MultiMapMAC`).
    maps = 1

    def __init__(self, fmt: QFormat = Q_1_7_8, mac_id: int = 0) -> None:
        self.fmt = fmt
        self.mac_id = mac_id
        self._scale = fmt.scale
        self._min_raw = fmt.min_raw
        self._max_raw = fmt.max_raw
        self._acc = 0.0
        self.operations = 0

    def reset(self, bias: float = 0.0) -> None:
        """Clear the accumulator; a bias pre-loads it (the natural mapping
        of a layer bias onto the bias-free Eq. 1)."""
        self._acc = float(bias)

    def accumulate_raw(self, weight_raw: int, state_raw: int) -> None:
        """One MAC step on raw 16-bit operands."""
        scale = self._scale
        self._acc = float(self._acc
                          + (weight_raw / scale) * (state_raw / scale))
        self.operations += 1

    def max_raw(self, state_raw: int) -> None:
        """Max-reduction step (used when emulating max pooling)."""
        self._acc = max(self._acc, float(state_raw / self._scale))
        self.operations += 1

    @property
    def accumulator(self) -> float:
        """The wide accumulator's current real value."""
        return self._acc

    @property
    def result_raw(self) -> int:
        """Accumulator quantised to the storage format (the write-back).

        Equal to :func:`repro.fixedpoint.from_float`: Python's ``round``
        rounds half to even like ``np.rint``, and the result saturates
        to the format's raw range.
        """
        raw = round(self._acc * self._scale)
        if raw > self._max_raw:
            return self._max_raw
        if raw < self._min_raw:
            return self._min_raw
        return raw

    def state_dict(self) -> dict:
        """Picklable snapshot for checkpointing."""
        return {"acc": self._acc, "operations": self.operations}

    def load_state(self, state: dict) -> None:
        self._acc = float(state["acc"])  # older checkpoints hold np.float64
        self.operations = state["operations"]

    def __repr__(self) -> str:
        return f"MACUnit(id={self.mac_id}, acc={self._acc:.6f})"


class MultiMapMAC:
    """One MAC lane shared by the output maps of a batched pass.

    Every map's accumulator sees the lane's state operand; each map
    brings its own weight and bias.  Per accumulator the arithmetic is
    exactly :class:`MACUnit`'s, so map ``m``'s result equals what a
    :class:`MACUnit` fed map ``m``'s operands alone would write back.
    The interface mirrors :class:`MACUnit` with one value per map
    wherever a value is map-specific: :meth:`reset` takes the maps'
    biases, :meth:`accumulate_raw` the maps' weights for the operation,
    and :attr:`result_raw` is the tuple of per-map write-backs.

    Args:
        maps: output maps sharing the lane (accumulators held).
        fmt: operand/result fixed-point format.
        mac_id: identifier used in packets and error messages.
    """

    def __init__(self, maps: int, fmt: QFormat = Q_1_7_8,
                 mac_id: int = 0) -> None:
        self.maps = maps
        self.fmt = fmt
        self.mac_id = mac_id
        self._scale = fmt.scale
        self._min_raw = fmt.min_raw
        self._max_raw = fmt.max_raw
        self._accs = [0.0] * maps
        self.operations = 0

    def reset(self, bias: tuple[float, ...]) -> None:
        """Pre-load each map's accumulator with that map's bias (or its
        partial sum from the previous sub-pass)."""
        self._accs = [float(b) for b in bias]

    def accumulate_raw(self, weight_raw: tuple[int, ...],
                       state_raw: int) -> None:
        """One MAC step per map: map ``m`` multiplies ``weight_raw[m]``
        by the shared state."""
        scale = self._scale
        state = state_raw / scale
        self._accs = [acc + (weight / scale) * state
                      for acc, weight in zip(self._accs, weight_raw,
                                             strict=True)]
        self.operations += 1

    @property
    def accumulator(self) -> tuple[float, ...]:
        """Every map's wide accumulator value."""
        return tuple(self._accs)

    @property
    def result_raw(self) -> tuple[int, ...]:
        """Each map's accumulator quantised as :attr:`MACUnit.result_raw`
        quantises its one."""
        scale, low, high = self._scale, self._min_raw, self._max_raw
        return tuple(min(high, max(low, round(acc * scale)))
                     for acc in self._accs)

    def state_dict(self) -> dict:
        """Picklable snapshot for checkpointing."""
        return {"accs": list(self._accs), "operations": self.operations}

    def load_state(self, state: dict) -> None:
        self._accs = [float(acc) for acc in state["accs"]]
        self.operations = state["operations"]


def mac_lanes(fmt: QFormat, n_mac: int,
              maps: int = 1) -> list[MACUnit] | list[MultiMapMAC]:
    """A PE's ``n_mac`` MAC lanes, each holding one accumulator per map."""
    if maps == 1:
        return [MACUnit(fmt, mac_id=i) for i in range(n_mac)]
    return [MultiMapMAC(maps, fmt, mac_id=i) for i in range(n_mac)]
