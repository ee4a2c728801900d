"""Rotating daisy-chain priority arbitration (paper §III-C).

"Input buffers use a rotating daisy chain priority scheme for arbitrating
between inputs requesting the same outputs.  Priorities are updated every
clock cycle."
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import ConfigurationError


class RotatingPriorityArbiter:
    """Grants one of N requesters; the priority head rotates each cycle.

    On a cycle where the head requester is idle, the grant daisy-chains to
    the next requesting input in rotation order.  Rotation happens every
    cycle regardless of grants, matching the paper's description, which
    guarantees starvation freedom.
    """

    def __init__(self, n_inputs: int) -> None:
        if n_inputs < 1:
            raise ConfigurationError(
                f"arbiter needs >= 1 input, got {n_inputs}")
        self.n_inputs = n_inputs
        self._head = 0
        self.grants = 0

    def rotate(self) -> None:
        """Advance the priority head; call once per clock cycle."""
        self._head = (self._head + 1) % self.n_inputs

    def advance(self, cycles: int) -> None:
        """Advance the head by ``cycles`` rotations at once.

        Used by the simulator's quiescence skip-ahead: the head after
        ``cycles`` idle cycles is the same as after ``cycles`` calls to
        :meth:`rotate`, so arbitration decisions stay bit-identical to a
        cycle-by-cycle run.
        """
        if cycles < 0:
            raise ConfigurationError(f"cannot advance by {cycles} cycles")
        self._head = (self._head + cycles) % self.n_inputs

    @property
    def head(self) -> int:
        """The input currently holding top priority."""
        return self._head

    def state_dict(self) -> dict:
        """Picklable snapshot for checkpointing."""
        return {"head": self._head, "grants": self.grants}

    def load_state(self, state: dict) -> None:
        self._head = state["head"]
        self.grants = state["grants"]

    def grant(self, requests: Iterable[int] | Sequence[bool]) -> int | None:
        """Pick the winning input for this cycle, or None if no requests.

        Args:
            requests: either an iterable of requesting input indices, or a
                boolean mask of length ``n_inputs``.
        """
        requests = list(requests)
        if requests and all(isinstance(r, bool) for r in requests):
            if len(requests) != self.n_inputs:
                raise ConfigurationError(
                    f"mask length {len(requests)} != n_inputs "
                    f"{self.n_inputs}")
            requests = [index for index, wants in enumerate(requests)
                        if wants]
        for index in requests:
            if not 0 <= index < self.n_inputs:
                raise ConfigurationError(
                    f"request index {index} out of range "
                    f"0..{self.n_inputs - 1}")
        return self.grant_sorted(sorted(set(requests)))

    def grant_sorted(self, requesters: list[int]) -> int | None:
        """:meth:`grant` for distinct, in-range, ascending indices.

        The router's switch stage builds its requester lists in input
        order, so it calls this directly.  Walking the daisy chain from
        the head wraps once: the winner is the first requester at or
        after the head, else the lowest-numbered one.
        """
        if not requesters:
            return None
        head = self._head
        for index in requesters:
            if index >= head:
                break
        else:
            index = requesters[0]
        self.grants += 1
        return index
