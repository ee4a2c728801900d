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
"""

from __future__ import annotations

from repro.fixedpoint import QFormat, Q_1_7_8


class MACUnit:
    """One MAC: multiply two raw fixed-point items, accumulate wide.

    Args:
        fmt: operand/result fixed-point format.
        mac_id: identifier used in packets and error messages.
    """

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
