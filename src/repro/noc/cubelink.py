"""Inter-cube SerDes link timing model (the paper's §VII/§IX links).

Cubes in a multi-cube cluster are joined by their HMC external SerDes
links (four per cube at the HMC-Ext per-channel bandwidth of Table I).
This module models one cube's aggregate outbound link as the vault
channels model a vault: an integer serialization cost per transfer at
the reference clock, a fixed one-way latency, and a per-cube busy-cycle
occupancy ledger.

The model is deliberately conservative and stateless between transfers:
a frame's delivery time is ``serialization + latency`` regardless of
what other cubes are sending (each cube owns its own links, so outbound
transfers of different cubes never contend).  All arithmetic is integer
(``ceil`` at the reference clock), so the sharded executor's barrier
cycles are exact and bit-identical in any execution mode.

This module sits below :mod:`repro.core` in the layering, so it takes
plain numbers rather than a :class:`repro.core.multicube.MultiCubeConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CubeLinkStats:
    """Occupancy snapshot of a cluster's inter-cube links.

    Attributes:
        busy_cycles: per-cube link busy cycles (serialization time of
            every frame the cube sent, retransmissions included).
        bytes_sent: per-cube payload bytes offered to the links
            (first transmissions only; retries resend the same bytes).
        transfers: per-cube frame transmissions (retries counted).
    """

    busy_cycles: tuple[int, ...]
    bytes_sent: tuple[int, ...]
    transfers: tuple[int, ...]

    def occupancy(self, cube: int, total_cycles: int) -> float:
        """Fraction of ``total_cycles`` a cube's links were serializing."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles[cube] / total_cycles)


class CubeLinkModel:
    """One cluster's inter-cube SerDes links at the reference clock.

    Args:
        n_cubes: number of cubes in the cluster.
        links_per_cube: external SerDes links per cube (paper §VII:
            "4 links (SERDES)").
        link_bandwidth: per-link bandwidth in bytes/s (HMC-Ext channel).
        latency_s: one-way link latency in seconds.
        f_clk_hz: the reference clock the cycle counts are in.
    """

    def __init__(self, n_cubes: int, links_per_cube: int,
                 link_bandwidth: float, latency_s: float,
                 f_clk_hz: float) -> None:
        if n_cubes < 1:
            raise ConfigurationError(
                f"n_cubes must be >= 1, got {n_cubes}")
        if links_per_cube < 1:
            raise ConfigurationError("links_per_cube must be >= 1")
        if link_bandwidth <= 0:
            raise ConfigurationError("link_bandwidth must be positive")
        if latency_s < 0:
            raise ConfigurationError("latency_s must be >= 0")
        if f_clk_hz <= 0:
            raise ConfigurationError("f_clk_hz must be positive")
        self.n_cubes = n_cubes
        self.links_per_cube = links_per_cube
        self.link_bandwidth = link_bandwidth
        self.f_clk_hz = f_clk_hz
        #: One-way latency in whole reference cycles (conservative ceil).
        self.latency_cycles = math.ceil(latency_s * f_clk_hz)
        self._busy = [0] * n_cubes
        self._bytes = [0] * n_cubes
        self._transfers = [0] * n_cubes

    @property
    def cube_bandwidth(self) -> float:
        """Aggregate outbound bandwidth of one cube, bytes/s."""
        return self.link_bandwidth * self.links_per_cube

    def serialization_cycles(self, n_bytes: int) -> int:
        """Whole cycles to push ``n_bytes`` out of one cube's links."""
        if n_bytes <= 0:
            return 0
        return max(1, math.ceil(
            n_bytes * self.f_clk_hz / self.cube_bandwidth))

    def delivery_cycles(self, n_bytes: int) -> int:
        """Cycles from send start to remote arrival (0 for no payload)."""
        serialization = self.serialization_cycles(n_bytes)
        if serialization == 0:
            return 0
        return serialization + self.latency_cycles

    def barrier_cycles(self, sent_bytes) -> int:
        """Conservative barrier delay of one exchange, fault-free.

        The slowest cube's frame delivery over the per-cube payloads —
        the exact integer the sharded executor pays at each exchange
        rendezvous when no link fault fires: ``max`` over
        :meth:`delivery_cycles`, so it is permutation-invariant.
        """
        return max((self.delivery_cycles(n) for n in sent_bytes),
                   default=0)

    def record_send(self, cube: int, n_bytes: int,
                    transmissions: int = 1) -> None:
        """Charge one frame send (plus retransmissions) to a cube.

        ``transmissions`` counts how many times the frame crossed the
        link (1 + retries); each crossing occupies the links for the
        frame's serialization time.
        """
        if not 0 <= cube < self.n_cubes:
            raise ConfigurationError(
                f"cube {cube} out of range for {self.n_cubes} cube(s)")
        if n_bytes <= 0:
            return
        self._busy[cube] += (self.serialization_cycles(n_bytes)
                             * max(1, transmissions))
        self._bytes[cube] += n_bytes
        self._transfers[cube] += max(1, transmissions)

    def stats(self) -> CubeLinkStats:
        """Immutable occupancy snapshot (per-cube tuples)."""
        return CubeLinkStats(busy_cycles=tuple(self._busy),
                             bytes_sent=tuple(self._bytes),
                             transfers=tuple(self._transfers))
