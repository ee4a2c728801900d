"""A multi-channel memory system (the HMC's 16 vaults, or DDR3's 2 channels).

The Neurocube attaches one PE per channel; when a system has fewer channels
than PEs (the DDR3 comparison of Fig. 15a), several PEs share one channel
and the paper's concurrency argument plays out: fewer, faster channels lose
to many slower ones.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.memory.specs import HMC_INT, HMC_VAULT_IO_CLOCK_HZ, MemorySpec
from repro.memory.timing import (
    DEFAULT_BURST_LENGTH,
    DEFAULT_TCCD_GAP_CYCLES,
    ChannelTiming,
)
from repro.memory.vault import CompletedRead, VaultChannel


class MemorySystem:
    """A set of identical, independently steppable channels.

    Args:
        spec: the memory technology (a Table I row).
        channels: number of active channels; defaults to the spec maximum.
        io_clock_hz: override of the channel I/O clock.
        burst_length, tccd_gap_cycles: burst shape knobs.
        store_items: per-channel backing-store size in 16-bit items;
            0 means timing-only channels.
    """

    def __init__(self, spec: MemorySpec, channels: int | None = None,
                 io_clock_hz: float | None = None,
                 burst_length: int = DEFAULT_BURST_LENGTH,
                 tccd_gap_cycles: int = DEFAULT_TCCD_GAP_CYCLES,
                 store_items: int = 0) -> None:
        self.spec = spec
        self.channels = spec.max_channels if channels is None else channels
        if not 1 <= self.channels <= spec.max_channels:
            raise ConfigurationError(
                f"{spec.name} supports 1..{spec.max_channels} channels, "
                f"got {self.channels}")
        self.timing = ChannelTiming.from_spec(
            spec, io_clock_hz=io_clock_hz, burst_length=burst_length,
            tccd_gap_cycles=tccd_gap_cycles)
        self.vaults = [
            VaultChannel(
                self.timing, vault_id=i,
                data=(np.zeros(store_items, dtype=np.int64)
                      if store_items else None))
            for i in range(self.channels)
        ]

    @classmethod
    def hmc(cls, channels: int = 16, store_items: int = 0,
            tccd_gap_cycles: int = DEFAULT_TCCD_GAP_CYCLES) -> MemorySystem:
        """The paper's HMC-Internal configuration: 16 vaults at 5 GHz I/O."""
        return cls(HMC_INT, channels=channels,
                   io_clock_hz=HMC_VAULT_IO_CLOCK_HZ,
                   tccd_gap_cycles=tccd_gap_cycles, store_items=store_items)

    def step(self) -> list[Sequence[CompletedRead]]:
        """Step every channel one cycle; returns per-channel completions."""
        return [vault.step() for vault in self.vaults]

    @property
    def busy(self) -> bool:
        """True while any channel has queued or in-flight work."""
        return any(vault.busy for vault in self.vaults)

    @property
    def total_words_served(self) -> int:
        return sum(vault.words_served for vault in self.vaults)

    @property
    def sustained_bandwidth(self) -> float:
        """Aggregate sustained bandwidth across channels, bytes/s."""
        return self.timing.sustained_bandwidth * self.channels

    def access_energy(self, bits: float) -> float:
        """DRAM access energy in joules for moving ``bits`` (Table I)."""
        if self.spec.energy_per_bit is None:
            raise ConfigurationError(
                f"{self.spec.name} has no published energy/bit")
        return bits * self.spec.energy_per_bit
