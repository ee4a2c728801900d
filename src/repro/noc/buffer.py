"""Fixed-capacity packet buffer with credit semantics.

Every router channel has a 16-deep packet buffer (§III-C).  Credit-based
flow control means an upstream agent may only send when the downstream
buffer has a free slot; this class is that slot accounting.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError, SimulationError
from repro.noc.packet import Packet

#: Paper §III-C: "a 16-depth packet buffer for each input and output
#: channel".
DEFAULT_DEPTH = 16


class CreditedBuffer:
    """A FIFO of packets with a hard capacity.

    Pushing into a full buffer raises :class:`SimulationError` — callers
    must check :attr:`has_space` first, which is exactly what a credit
    check is.  The per-cycle loops (router switch, link stage, PNG and
    PE edges) test :attr:`fifo` and :attr:`depth` directly instead of
    going through the properties: ``not fifo`` is :attr:`empty` and
    ``len(fifo) < depth`` is :attr:`has_space`.
    """

    def __init__(self, depth: int = DEFAULT_DEPTH, label: str = "") -> None:
        if depth < 1:
            raise ConfigurationError(f"buffer depth must be >= 1: {depth}")
        self.depth = depth
        self.label = label
        self.fifo: deque[Packet] = deque()

    @property
    def occupancy(self) -> int:
        return len(self.fifo)

    @property
    def has_space(self) -> bool:
        """True when one more packet fits (the "credit available" check)."""
        return len(self.fifo) < self.depth

    @property
    def empty(self) -> bool:
        return not self.fifo

    def push(self, packet: Packet) -> None:
        fifo = self.fifo
        if len(fifo) >= self.depth:
            raise SimulationError(
                f"push into full buffer {self.label or id(self)} "
                f"(depth {self.depth}); caller must check has_space")
        fifo.append(packet)

    def peek(self) -> Packet:
        if not self.fifo:
            raise SimulationError(
                f"peek on empty buffer {self.label or id(self)}")
        return self.fifo[0]

    def pop(self) -> Packet:
        if not self.fifo:
            raise SimulationError(
                f"pop on empty buffer {self.label or id(self)}")
        return self.fifo.popleft()

    def state_dict(self) -> dict:
        """Picklable snapshot (packets are never mutated once built)."""
        return {"fifo": tuple(self.fifo)}

    def load_state(self, state: dict) -> None:
        self.fifo.clear()
        self.fifo.extend(state["fifo"])

    def __len__(self) -> int:
        return len(self.fifo)

    def __repr__(self) -> str:
        return (f"CreditedBuffer({self.label!r}, "
                f"{self.occupancy}/{self.depth})")
