"""Neurocube system configuration (paper §III notation).

The architecture is parameterised exactly as the paper's notation section:
number of channels/vaults ``n_ch``, PEs per channel ``n_pe_per_ch``, MACs
per PE ``n_mac``, and the clock relations ``f_pe = f_noc = f_dram_io`` and
``f_mac = f_pe / n_mac`` (Eq. 3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.fixedpoint import Q_1_7_8, QFormat
from repro.memory.specs import (
    DDR3,
    HMC_INT,
    HMC_VAULT_IO_CLOCK_HZ,
    MemorySpec,
)
from repro.memory.timing import (
    DEFAULT_BURST_LENGTH,
    DEFAULT_TCCD_GAP_CYCLES,
    ChannelTiming,
)
from repro.units import MHz

#: PE clock at the 28nm node (§VII: SRAM limits the PE to 300 MHz).
F_PE_28NM_HZ = MHz(300.0)
#: PE clock at the 15nm node (§VII: redesigned to reach 5 GHz).
F_PE_15NM_HZ = HMC_VAULT_IO_CLOCK_HZ

#: Environment variable overriding :attr:`NeurocubeConfig.sim_workers`,
#: so CI and batch sweeps can fan passes out without touching code.
SIM_WORKERS_ENV = "NEUROCUBE_SIM_WORKERS"


@dataclass(frozen=True)
class NeurocubeConfig:
    """Full static configuration of one Neurocube.

    Attributes:
        memory_spec: the DRAM technology (Table I row).
        n_channels: active memory channels (vaults).
        n_pe: number of processing elements (one per vault in the paper;
            with fewer channels than PEs — the DDR3 study — channels are
            shared round-robin).
        n_mac: MAC units per PE.
        f_pe_hz: PE/NoC/DRAM-I/O clock (the simulator reference clock).
        noc_topology: "mesh" (Fig. 6a) or "fully_connected" (Fig. 6b).
        noc_buffer_depth: packets per router channel buffer.
        burst_length: DRAM burst length in words.
        tccd_gap_cycles: idle cycles between DRAM bursts.
        cache_bytes: PE SRAM cache capacity (2.5 KB in the paper).
        cache_subbanks: cache sub-bank count (16).
        cache_entries_per_subbank: entries per sub-bank (64 = 2.5 KB /
            16 banks / 20 bits).
        weight_memory_bits: PE weight register capacity (3,600 bits,
            Table II) — bounds which kernels can be PE-resident.
        qformat: the fixed-point data format.
        technology: "28nm" or "15nm", used by the hardware models.
        sim_workers: host processes used to run independent simulator
            passes (conv output maps, pool maps) concurrently; 1 runs
            everything in-process.  Overridable via the
            ``NEUROCUBE_SIM_WORKERS`` environment variable — see
            :attr:`effective_sim_workers`.
        sim_skip_ahead: enable the simulator's event-horizon scheduler
            (jump the clock over stretches where no agent can act) and,
            in a pass folded by ``sim_memoize``, the steady-state jump
            over whole periods of a repeated timing state inside a
            neuron group (:mod:`repro.core.forward`).  Results are
            identical either way; the knob exists so equivalence tests
            can compare both jumps against the lock-step reference
            path.
        sim_memoize: share simulated passes between map tasks whose
            passes coincide (:mod:`repro.core.parallel`).  Structurally
            identical :class:`~repro.core.parallel.MapTask` units (conv
            output maps, pool maps in timing-only mode) are simulated
            once and the outcome replayed for the duplicates; in
            functional runs the maps of a conv or pooling layer run on
            the first map's pass (one per sub-pass), the other maps'
            write-backs evaluated from their own vault images, when
            the passes fold.  Within one duplicated pass
            whose traffic stays inside each node, the node slices
            (vault, PNG, router ports, PE) with equal timing
            signatures are simulated once per class
            (:meth:`~repro.core.scheduler.PassPlan.slice_classes`), and
            with ``sim_skip_ahead`` such a pass fast-forwards through
            its periodic steady states.
            Results are identical either way, and False keeps the
            per-map, per-slice reference.  It never applies to traced
            runs, nor to runs with active fault injection (each map's
            passes see their own fault salt); checkpointed runs never
            share a pass between several maps, and traced, faulted
            (rate 0 included) and checkpointed passes never fold.
    """

    memory_spec: MemorySpec = HMC_INT
    n_channels: int = 16
    n_pe: int = 16
    n_mac: int = 16
    f_pe_hz: float = F_PE_15NM_HZ
    noc_topology: str = "mesh"
    noc_buffer_depth: int = 16
    burst_length: int = DEFAULT_BURST_LENGTH
    tccd_gap_cycles: int = DEFAULT_TCCD_GAP_CYCLES
    cache_bytes: int = 2560
    cache_subbanks: int = 16
    cache_entries_per_subbank: int = 64
    weight_memory_bits: int = 3600
    qformat: QFormat = field(default=Q_1_7_8)
    technology: str = "15nm"
    sim_workers: int = 1
    sim_skip_ahead: bool = True
    sim_memoize: bool = True

    def __post_init__(self) -> None:
        if self.sim_workers < 1:
            raise ConfigurationError(
                f"sim_workers must be >= 1, got {self.sim_workers}")
        if self.n_channels < 1 or self.n_channels > self.memory_spec.max_channels:
            raise ConfigurationError(
                f"{self.memory_spec.name} supports up to "
                f"{self.memory_spec.max_channels} channels, got "
                f"{self.n_channels}")
        if self.n_pe < 1:
            raise ConfigurationError(f"n_pe must be >= 1, got {self.n_pe}")
        if self.n_channels > self.n_pe:
            raise ConfigurationError(
                f"more channels ({self.n_channels}) than PEs ({self.n_pe}) "
                f"is not a supported mapping")
        if self.n_mac < 1:
            raise ConfigurationError(f"n_mac must be >= 1, got {self.n_mac}")
        if self.f_pe_hz <= 0:
            raise ConfigurationError("f_pe_hz must be positive")
        if self.noc_topology not in ("mesh", "fully_connected"):
            raise ConfigurationError(
                f"unknown NoC topology {self.noc_topology!r}")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    @property
    def f_mac_hz(self) -> float:
        """MAC clock: ``f_pe / n_mac`` (Eq. 3)."""
        return self.f_pe_hz / self.n_mac

    @property
    def f_noc_hz(self) -> float:
        """NoC clock (== PE clock, §III-B1)."""
        return self.f_pe_hz

    @property
    def f_dram_io_hz(self) -> float:
        """DRAM I/O clock (== PE clock; the simulator reference clock)."""
        return self.f_pe_hz

    @property
    def total_macs(self) -> int:
        """MAC units across the whole cube."""
        return self.n_pe * self.n_mac

    @property
    def peak_gops(self) -> float:
        """Peak arithmetic throughput: 2 ops per MAC per MAC cycle."""
        return 2.0 * self.total_macs * self.f_mac_hz / 1e9

    @property
    def channel_timing(self) -> ChannelTiming:
        """Cycle-level timing of one memory channel at the reference clock.

        HMC vaults issue one word per reference cycle (§VI: "pushed at
        5 GHz"); other technologies issue at their native word rate, which
        is below the reference clock (e.g. DDR3's 64-bit word at
        1.6 GHz), modelled as a fractional issue rate.
        """
        hmc = self.memory_spec.name.startswith("HMC")
        native = (self.f_dram_io_hz if hmc
                  else self.memory_spec.io_clock_hz)
        return ChannelTiming.from_spec(
            self.memory_spec, io_clock_hz=native,
            reference_clock_hz=self.f_dram_io_hz,
            burst_length=self.burst_length,
            tccd_gap_cycles=self.tccd_gap_cycles)

    @property
    def items_per_word(self) -> int:
        """16-bit items per memory word (2 for HMC's 32-bit word)."""
        return self.memory_spec.word_bits // self.qformat.total_bits

    @property
    def weight_memory_items(self) -> int:
        """Weights that fit in the PE weight register."""
        return self.weight_memory_bits // self.qformat.total_bits

    @property
    def emission_window(self) -> int:
        """The emission-horizon window in operations.

        How many operations ahead of the slowest PE the neurosequence
        generators may run — bounded by what the PE cache can park: one
        op's packets (up to ``2 * n_mac`` items) must fit in its
        sub-bank, or head-of-line blocking can deadlock the mesh.  With
        the paper's 64-entry sub-banks this is the full 16 sub-banks;
        undersized caches degrade toward strict lock-step (window 0:
        only current-op packets in flight).  Shared by the simulator's
        run-pass horizon and :mod:`repro.analysis.nccheck`'s static
        sub-bank occupancy bound — one definition, two enforcement
        points.
        """
        items_per_op = 2 * self.n_mac
        ops_per_subbank = self.cache_entries_per_subbank // items_per_op
        return min(self.cache_subbanks,
                   ops_per_subbank * self.cache_subbanks)

    @property
    def effective_sim_workers(self) -> int:
        """The pass-executor worker count, after the env override.

        ``NEUROCUBE_SIM_WORKERS`` (when set and non-empty) wins over the
        :attr:`sim_workers` field, so a CI job or sweep driver can fan
        out without rebuilding configurations.
        """
        # Host-side worker-count override only; the value never reaches
        # the cycle model, so determinism of simulated results holds.
        # nclint: allow(NC106) host-side worker override
        raw = os.environ.get(SIM_WORKERS_ENV)
        if raw:
            try:
                value = int(raw)
            except ValueError as error:
                raise ConfigurationError(
                    f"{SIM_WORKERS_ENV}={raw!r} is not an integer"
                    ) from error
            if value < 1:
                raise ConfigurationError(
                    f"{SIM_WORKERS_ENV} must be >= 1, got {value}")
            return value
        return self.sim_workers

    def pe_of_channel(self, channel: int) -> int:
        """The PE co-located with a channel (identity mapping)."""
        if not 0 <= channel < self.n_channels:
            raise ConfigurationError(
                f"channel {channel} out of range 0..{self.n_channels - 1}")
        return channel

    def channel_of_pe(self, pe: int) -> int:
        """The channel feeding a PE (PEs share channels round-robin when
        there are fewer channels than PEs, the DDR3 case)."""
        if not 0 <= pe < self.n_pe:
            raise ConfigurationError(
                f"PE {pe} out of range 0..{self.n_pe - 1}")
        return pe % self.n_channels

    # ------------------------------------------------------------------
    # canonical configurations
    # ------------------------------------------------------------------

    @classmethod
    def hmc_15nm(cls, **overrides) -> NeurocubeConfig:
        """The paper's 15nm FinFET design point: 16 vaults at 5 GHz."""
        return cls(**{**dict(f_pe_hz=F_PE_15NM_HZ, technology="15nm"),
                      **overrides})

    @classmethod
    def hmc_28nm(cls, **overrides) -> NeurocubeConfig:
        """The paper's 28nm design point: 16 vaults at 300 MHz."""
        return cls(**{**dict(f_pe_hz=F_PE_28NM_HZ, technology="28nm"),
                      **overrides})

    @classmethod
    def ddr3(cls, n_channels: int = 2, **overrides) -> NeurocubeConfig:
        """The Fig. 15a comparison point: DDR3 channels feeding 16 PEs."""
        return cls(**{**dict(memory_spec=DDR3, n_channels=n_channels,
                             f_pe_hz=F_PE_15NM_HZ, technology="15nm"),
                      **overrides})

    def with_(self, **overrides) -> NeurocubeConfig:
        """A copy with the given fields replaced."""
        return replace(self, **overrides)
