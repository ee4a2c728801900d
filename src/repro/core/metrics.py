"""Result dataclasses shared by the cycle simulator and analytic model."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.units import giga_ops_per_second


@dataclass(frozen=True)
class LayerStats:
    """Performance and memory accounting for one descriptor.

    Attributes:
        name: descriptor name.
        kind: "conv" / "fc" / "pool".
        phase: training phase name.
        duplicate: layout strategy.
        neurons, connections, macs, ops: work counts.
        cycles: reference-clock cycles the descriptor took.
        bound: the binding resource — "compute", "memory" or "noc".
        packets: NoC packets injected.
        lateral_fraction: fraction of packets that crossed the mesh.
        state_bytes, weight_bytes, duplicated_bytes: DRAM footprint.
        mean_packet_latency: mean inject-to-eject packet latency in
            cycles (0.0 for analytic rows, which don't model it).
        pe_busy_cycles: PE cycles spent computing, summed over PEs
            (0 for analytic rows, which don't measure it).
        pe_idle_cycles: PE cycles stalled waiting for operands.
        search_stall_cycles: cycles lost to cache sub-bank searches.
        inject_stall_cycles: PNG cycles blocked by NoC backpressure.
    """

    name: str
    kind: str
    phase: str
    duplicate: bool
    neurons: int
    connections: int
    macs: int
    ops: int
    cycles: float
    bound: str
    packets: float
    lateral_fraction: float
    state_bytes: int
    weight_bytes: int
    duplicated_bytes: int
    mean_packet_latency: float = 0.0
    pe_busy_cycles: int = 0
    pe_idle_cycles: int = 0
    search_stall_cycles: int = 0
    inject_stall_cycles: int = 0

    @property
    def total_bytes(self) -> int:
        return self.state_bytes + self.weight_bytes + self.duplicated_bytes

    def throughput_gops(self, f_clk_hz: float) -> float:
        """Layer throughput at clock ``f_clk_hz`` in GOPs/s."""
        return giga_ops_per_second(self.ops, self.cycles, f_clk_hz)


@dataclass
class RunReport:
    """A full-network evaluation result.

    Attributes:
        network_name: source network.
        f_clk_hz: the reference clock the cycle counts are in.
        peak_gops: configuration's arithmetic peak, for utilisation.
        layers: per-descriptor stats in execution order.
        source: "cycle" or "analytic".
        host_seconds: wall-clock host time the simulation took (0.0 for
            analytic reports, which are effectively instantaneous).
        degraded: :class:`repro.faults.DegradedResult` records from all
            simulated layers, in execution order — non-empty only when
            fault injection forced graceful degradation (lost packets,
            watchdog force-fires, forgiven write-backs); the affected
            outputs are approximate, and the report says so instead of
            silently presenting them as exact.
        memo: folded :class:`repro.memo.MemoStats` counters when a
            persistent memo store served this run, else None.  Kept
            duck-typed (``as_dict``/``any``/``format``) so this module
            stays below :mod:`repro.memo` in the layering.
        attribution: per-layer bottleneck verdicts
            (:class:`repro.obs.attribution.LayerAttribution`) when the
            run was traced, else empty.  Duck-typed
            (``format``/``to_dict``) for the same layering reason as
            ``memo``.
    """

    network_name: str
    f_clk_hz: float
    peak_gops: float
    layers: list[LayerStats] = field(default_factory=list)
    source: str = "analytic"
    host_seconds: float = 0.0
    degraded: list = field(default_factory=list)
    memo: object | None = None
    attribution: list = field(default_factory=list)

    def add(self, run) -> None:
        """Fold in one descriptor run (a
        :class:`~repro.core.simulator.LayerRun`): its row, host seconds,
        degraded records and memo counters."""
        self.layers.append(run.to_stats())
        self.host_seconds += run.host_seconds
        self.degraded.extend(run.degraded)
        if run.memo_stats is not None:
            if self.memo is None:
                self.memo = run.memo_stats.copy()
            else:
                self.memo.merge(run.memo_stats)

    @property
    def total_ops(self) -> int:
        return sum(layer.ops for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_cycles(self) -> float:
        return sum(layer.cycles for layer in self.layers)

    @property
    def throughput_gops(self) -> float:
        """Whole-run throughput in GOPs/s."""
        if not self.layers:
            raise ConfigurationError("report has no layers")
        if self.total_cycles == 0:
            raise ConfigurationError(
                f"report for {self.network_name!r} has zero total cycles; "
                "throughput is undefined (no layers simulated yet?)")
        return giga_ops_per_second(self.total_ops, self.total_cycles,
                                   self.f_clk_hz)

    @property
    def utilization(self) -> float:
        """Achieved fraction of the arithmetic peak."""
        return self.throughput_gops / self.peak_gops

    @property
    def seconds(self) -> float:
        """Wall-clock seconds for one input (frame/epoch-sample)."""
        return self.total_cycles / self.f_clk_hz

    @property
    def frames_per_second(self) -> float:
        """Inputs processed per second at this clock."""
        if self.total_cycles == 0:
            raise ConfigurationError(
                f"report for {self.network_name!r} has zero total cycles; "
                "frames/s is undefined (no layers simulated yet?)")
        return 1.0 / self.seconds

    @property
    def simulated_cycles_per_second(self) -> float:
        """Simulation rate: reference cycles per host wall-clock second.

        Raises :class:`ConfigurationError` when no host time was
        recorded (analytic reports), mirroring
        :attr:`frames_per_second`'s handling of zero cycles — a silent
        0.0 reads like an infinitely slow simulator in benchmark output.
        """
        if self.host_seconds <= 0.0:
            raise ConfigurationError(
                f"report for {self.network_name!r} has no recorded host "
                "time; simulation rate is undefined (analytic source?)")
        return self.total_cycles / self.host_seconds

    @property
    def state_bytes(self) -> int:
        return sum(layer.state_bytes for layer in self.layers
                   if layer.phase == "forward")

    @property
    def weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers
                   if layer.phase == "forward")

    @property
    def duplicated_bytes(self) -> int:
        return sum(layer.duplicated_bytes for layer in self.layers
                   if layer.phase == "forward")

    @property
    def total_bytes(self) -> int:
        return self.state_bytes + self.weight_bytes + self.duplicated_bytes

    @property
    def memory_overhead(self) -> float:
        base = self.state_bytes + self.weight_bytes
        return self.duplicated_bytes / base if base else 0.0

    @property
    def lateral_fraction(self) -> float:
        """Packet-weighted lateral traffic fraction across layers."""
        packets = sum(layer.packets for layer in self.layers)
        if not packets:
            return 0.0
        lateral = sum(layer.packets * layer.lateral_fraction
                      for layer in self.layers)
        return lateral / packets

    def layer(self, name: str) -> LayerStats:
        """Find a layer's stats by descriptor name."""
        for stats in self.layers:
            if stats.name == name:
                return stats
        raise ConfigurationError(
            f"no layer {name!r} in report; have "
            f"{[layer.name for layer in self.layers]}")

    def to_table(self) -> str:
        """Render the per-layer stats as an aligned text table."""
        header = (f"{'layer':<22}{'kind':<6}{'MOPs':>9}{'Mcycles':>10}"
                  f"{'GOPs/s':>9}{'bound':>9}{'lat%':>7}{'pktlat':>8}"
                  f"{'MB':>9}")
        rows = [f"{self.network_name} ({self.source}, "
                f"{self.f_clk_hz / 1e9:.2f} GHz clock)", header,
                "-" * len(header)]
        for layer in self.layers:
            rows.append(
                f"{layer.name:<22}{layer.kind:<6}"
                f"{layer.ops / 1e6:>9.1f}{layer.cycles / 1e6:>10.3f}"
                f"{layer.throughput_gops(self.f_clk_hz):>9.1f}"
                f"{layer.bound:>9}"
                f"{100 * layer.lateral_fraction:>7.1f}"
                f"{layer.mean_packet_latency:>8.1f}"
                f"{layer.total_bytes / 1e6:>9.2f}")
        rows.append(
            f"TOTAL: {self.total_ops / 1e9:.3f} GOPs in "
            f"{self.total_cycles / 1e6:.2f} Mcycles -> "
            f"{self.throughput_gops:.1f} GOPs/s "
            f"({100 * self.utilization:.1f}% of peak), "
            f"{self.frames_per_second:.2f} frames/s, "
            f"{self.total_bytes / 1e6:.1f} MB "
            f"(+{100 * self.memory_overhead:.1f}% duplication)")
        if self.degraded:
            kinds: dict[str, int] = {}
            for record in self.degraded:
                kinds[record.kind] = kinds.get(record.kind, 0) + 1
            summary = ", ".join(f"{kind}={count}"
                                for kind, count in sorted(kinds.items()))
            rows.append(
                f"DEGRADED: {len(self.degraded)} fault-degraded results "
                f"({summary}); affected outputs are approximate")
        if self.memo is not None and self.memo.any:
            rows.append(f"MEMO: {self.memo.format()}")
        for verdict in self.attribution:
            rows.append(f"ATTRIBUTION: {verdict.format()}")
        return "\n".join(rows)


@dataclass
class StreamReport:
    """Result of a streaming run: timing compiled once, frames replayed.

    A streaming run splits inference into a *cold* phase — cycle-
    simulate timing once per distinct layer shape, memoized (and, with
    a memo store, persisted) — and a *warm* phase that pushes a stream
    of frames through the functional fixed-point path only, reusing the
    cold phase's cycle counts for every frame.  The split is sound
    because layer timing is data-independent (pinned by the timing-vs-
    functional equivalence tests) and the functional path is bit-exact
    against the simulator's assembled outputs.

    Attributes:
        network_name: source network.
        f_clk_hz: reference clock of the cold phase's cycle counts.
        frames: number of frames streamed in the warm phase.
        cold: the cold phase's :class:`RunReport` (cycle source); its
            per-frame cycle counts apply to every streamed frame.
        cold_host_seconds: wall-clock host time of the cold phase
            (compile + timing simulation).
        warm_host_seconds: wall-clock host time of the warm phase (all
            frames through the functional path, in chunks).
        memo: folded :class:`repro.memo.MemoStats` counters when a
            persistent memo store served the cold phase, else None.
        outputs: the ``(frames, *output_shape)`` float64 block of
            every frame's output, in stream order (None until a run
            sets it).  The warm phase runs the frames through
            ``Network.forward`` in chunks and writes them into this one
            block; ``outputs[i]`` is frame ``i``'s output, and ``len``,
            iteration and ``zip`` walk the frames.
        outputs_sha256: SHA-256 of that block's float64 bytes: every
            output value, in stream order, in one string a JSON report
            can compare exactly.
    """

    network_name: str
    f_clk_hz: float
    frames: int
    cold: RunReport
    cold_host_seconds: float = 0.0
    warm_host_seconds: float = 0.0
    memo: object | None = None
    outputs: object | None = None
    outputs_sha256: str = ""

    @property
    def cycles_per_frame(self) -> float:
        """Simulated cycles for one frame (the cold phase's total)."""
        return self.cold.total_cycles

    @property
    def total_cycles(self) -> float:
        """Simulated cycles across the whole stream."""
        return self.frames * self.cycles_per_frame

    @property
    def modeled_frames_per_second(self) -> float:
        """Frames/s the simulated hardware would sustain."""
        return self.cold.frames_per_second

    @property
    def warm_frames_per_second(self) -> float:
        """Host-side streaming throughput of the warm phase.

        Raises :class:`ConfigurationError` when no warm host time was
        recorded, mirroring :attr:`RunReport.frames_per_second` — a
        silent 0.0 reads like an infinitely slow pipeline.
        """
        if self.warm_host_seconds <= 0.0:
            raise ConfigurationError(
                f"stream of {self.network_name!r} has no recorded warm "
                "host time; throughput is undefined")
        return self.frames / self.warm_host_seconds

    @property
    def warm_speedup(self) -> float:
        """Warm per-frame host time vs the cold phase's."""
        if self.warm_host_seconds <= 0.0 or self.frames == 0:
            raise ConfigurationError(
                f"stream of {self.network_name!r} has no recorded warm "
                "host time; speedup is undefined")
        return self.cold_host_seconds / (self.warm_host_seconds
                                         / self.frames)

    def to_table(self) -> str:
        """Cold-phase table plus the streaming summary lines."""
        rows = [self.cold.to_table()]
        rows.append(
            f"STREAM: {self.frames} frames at "
            f"{self.cycles_per_frame / 1e6:.3f} Mcycles/frame "
            f"({self.modeled_frames_per_second:.2f} modeled frames/s); "
            f"cold {self.cold_host_seconds:.3f}s host, warm "
            f"{self.warm_frames_per_second:.1f} frames/s host "
            f"({self.warm_speedup:.1f}x per-frame speedup)")
        if self.memo is not None and self.memo.any:
            rows.append(f"MEMO: {self.memo.format()}")
        return "\n".join(rows)
