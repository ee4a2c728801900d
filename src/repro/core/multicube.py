"""Multi-cube scaling (the paper's §IX next step).

"Next steps involve scaling this implementation across multiple cubes to
support much larger networks than can be feasibly supported today."

This module models that extension analytically.  Cubes are joined by
their HMC external SerDes links (four per cube, at the HMC-Ext
per-channel bandwidth of Table I).  A network is partitioned across
cubes the same way a layer is partitioned across vaults, one level up:

* **locally connected layers** split the image by rows; neighbouring
  cubes exchange a kernel halo per layer;
* **fully connected layers** split output neurons; the input vector is
  all-gathered across cubes before the layer runs.

Per layer the model takes ``max(compute_share, comm_time)`` — the PNGs
can prefetch the next slice while links move halos — plus a per-layer
link latency.  The result quantifies when a workload stops scaling:
conv-heavy networks scale nearly linearly; FC-heavy ones saturate on the
all-gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.analytic import AnalyticModel
from repro.core.compiler import compile_inference, compile_training
from repro.core.config import NeurocubeConfig
from repro.errors import ConfigurationError
from repro.memory.specs import HMC_EXT
from repro.nn.network import Network
from repro.noc.cubelink import CubeLinkModel

#: SerDes links per cube (§VII: "4 links (SERDES)").
LINKS_PER_CUBE = 4
#: One-way link latency charged per layer exchange, in seconds.
LINK_LATENCY_S = 50e-9


@dataclass(frozen=True)
class MultiCubeConfig:
    """A cluster of Neurocubes.

    Attributes:
        cube: the per-cube configuration.
        n_cubes: number of cubes.
        links_per_cube: external SerDes links per cube, at most the
            paper's :data:`LINKS_PER_CUBE`.
        link_bandwidth: per-link bandwidth, bytes/s, at most the
            Table-I HMC-Ext channel figure.
        cube_capacity_bytes: per-cube vault DRAM capacity budget in
            bytes, or None for unlimited.  When set, the sharded
            partitioner (:func:`repro.core.shard.shard_network`) refuses
            any plan whose per-cube footprint exceeds it — the mechanism
            behind "this workload only fits when sharded".
    """

    cube: NeurocubeConfig
    n_cubes: int
    links_per_cube: int = LINKS_PER_CUBE
    link_bandwidth: float = HMC_EXT.peak_bandwidth
    cube_capacity_bytes: float | None = None

    def __post_init__(self) -> None:
        if self.n_cubes < 1:
            raise ConfigurationError(
                f"n_cubes must be >= 1, got {self.n_cubes}")
        if not 1 <= self.links_per_cube <= LINKS_PER_CUBE:
            raise ConfigurationError(
                f"links_per_cube must be in [1, {LINKS_PER_CUBE}] "
                f"(§VII: '4 links (SERDES)'), got {self.links_per_cube}")
        if not 0 < self.link_bandwidth <= HMC_EXT.peak_bandwidth:
            raise ConfigurationError(
                f"link_bandwidth must be positive and at most the "
                f"Table-I HMC-Ext channel figure "
                f"({HMC_EXT.peak_bandwidth / 1e9:.1f} GB/s), got "
                f"{self.link_bandwidth / 1e9:.1f} GB/s")
        if (self.cube_capacity_bytes is not None
                and self.cube_capacity_bytes <= 0):
            raise ConfigurationError(
                "cube_capacity_bytes must be positive when set, got "
                f"{self.cube_capacity_bytes}")

    @property
    def total_peak_gops(self) -> float:
        return self.cube.peak_gops * self.n_cubes

    @property
    def cube_link_bandwidth(self) -> float:
        """Aggregate outbound bandwidth of one cube, bytes/s."""
        return self.link_bandwidth * self.links_per_cube

    def link_model(self) -> CubeLinkModel:
        """A fresh inter-cube link model (empty ledger) for this cluster."""
        return CubeLinkModel(
            n_cubes=self.n_cubes, links_per_cube=self.links_per_cube,
            link_bandwidth=self.link_bandwidth, latency_s=LINK_LATENCY_S,
            f_clk_hz=self.cube.f_pe_hz)


@dataclass
class MultiCubeLayer:
    """Per-layer scaling accounting.

    Attributes:
        name, kind: from the descriptor.
        compute_cycles: per-cube compute share (reference cycles).
        comm_cycles: inter-cube exchange time (reference cycles).
        cycles: the layer's contribution to the critical path.
    """

    name: str
    kind: str
    compute_cycles: float
    comm_cycles: float

    @property
    def cycles(self) -> float:
        return max(self.compute_cycles, self.comm_cycles)

    @property
    def comm_bound(self) -> bool:
        return self.comm_cycles > self.compute_cycles


@dataclass
class MultiCubeReport:
    """Result of a multi-cube evaluation."""

    network_name: str
    n_cubes: int
    f_clk_hz: float
    total_ops: int
    single_cube_cycles: float
    layers: list[MultiCubeLayer] = field(default_factory=list)

    @property
    def total_cycles(self) -> float:
        return sum(layer.cycles for layer in self.layers)

    @property
    def throughput_gops(self) -> float:
        return self.total_ops / (self.total_cycles / self.f_clk_hz) / 1e9

    @property
    def speedup(self) -> float:
        """Over the single-cube run of the same network."""
        return self.single_cube_cycles / self.total_cycles

    @property
    def parallel_efficiency(self) -> float:
        """Speedup divided by cube count."""
        return self.speedup / self.n_cubes

    @property
    def comm_fraction(self) -> float:
        """Share of the critical path spent communication-bound."""
        total = self.total_cycles
        comm = sum(layer.cycles for layer in self.layers if layer.comm_bound)
        return comm / total if total else 0.0

    def to_table(self) -> str:
        header = (f"{'layer':<22}{'kind':<6}{'compute Mc':>12}"
                  f"{'comm Mc':>10}{'bound':>8}")
        lines = [f"{self.network_name} on {self.n_cubes} cube(s)",
                 header, "-" * len(header)]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<22}{layer.kind:<6}"
                f"{layer.compute_cycles / 1e6:>12.3f}"
                f"{layer.comm_cycles / 1e6:>10.3f}"
                f"{'comm' if layer.comm_bound else 'compute':>8}")
        lines.append(
            f"speedup {self.speedup:.2f}x on {self.n_cubes} cubes "
            f"(efficiency {100 * self.parallel_efficiency:.0f}%), "
            f"{self.throughput_gops:.1f} GOPs/s")
        return "\n".join(lines)


class MultiCubeModel:
    """Analytic scaling model over a single-cube :class:`AnalyticModel`."""

    def __init__(self, config: MultiCubeConfig) -> None:
        self.config = config
        self._cube_model = AnalyticModel(config.cube)

    def comm_bytes(self, desc) -> float:
        """Bytes each cube must exchange for one descriptor.

        The sharded partitioner (:func:`repro.core.shard.shard_network`)
        uses the same semantics for its per-cube exchange bytes.
        """
        n = self.config.n_cubes
        if n == 1:
            return 0.0
        item_bytes = self.config.cube.qformat.total_bits // 8
        if desc.kind in ("conv", "pool"):
            # Row-partitioned image: each cube sends/receives a halo of
            # (kernel-1) rows to each of up to two neighbours, for every
            # input map (passes share the same stored input).
            halo_rows = max(0, desc.kernel - 1)
            in_maps = max(1, desc.connections // max(1, desc.kernel ** 2))
            return 2 * halo_rows * desc.in_width * in_maps * item_bytes
        # Fully connected: all-gather the input vector — each cube sends
        # its 1/n shard to the other n-1 cubes.
        inputs = desc.connections
        return inputs * item_bytes * (n - 1) / n

    def _comm_cycles(self, desc) -> float:
        bytes_out = self.comm_bytes(desc)
        if bytes_out == 0.0:
            return 0.0
        seconds = (bytes_out / self.config.cube_link_bandwidth
                   + LINK_LATENCY_S)
        return seconds * self.config.cube.f_pe_hz

    def evaluate_network(self, network: Network, duplicate: bool = True,
                         training: bool = False) -> MultiCubeReport:
        """Model the network on the cluster."""
        compiler = compile_training if training else compile_inference
        program = compiler(network, self.config.cube, duplicate)
        return self.evaluate_program(program)

    def evaluate_program(self, program,
                         single_cycles=None) -> MultiCubeReport:
        """Model an already-compiled program on the cluster.

        ``single_cycles`` (per-descriptor single-cube cycle counts, in
        descriptor order) lets :meth:`scaling_curve` evaluate them once
        and reuse them for every cluster size; when None they are
        computed here.
        """
        if single_cycles is None:
            single_cycles = [
                self._cube_model.evaluate_descriptor(d).cycles
                for d in program.descriptors]
        n = self.config.n_cubes
        report = MultiCubeReport(
            network_name=program.network_name, n_cubes=n,
            f_clk_hz=self.config.cube.f_pe_hz,
            total_ops=program.total_ops,
            single_cube_cycles=sum(single_cycles))
        for desc, single in zip(program.descriptors, single_cycles,
                                strict=True):
            # Per-cube share: work divides by n; the per-pass overhead
            # (PNG programming) does not.
            overhead = (self._cube_model.factors.pass_overhead_cycles
                        * desc.passes)
            compute = max((single - overhead) / n + overhead, overhead)
            report.layers.append(MultiCubeLayer(
                name=desc.name, kind=desc.kind,
                compute_cycles=compute,
                comm_cycles=self._comm_cycles(desc)))
        return report

    def scaling_curve(self, network: Network, cube_counts,
                      duplicate: bool = True,
                      training: bool = False) -> list[MultiCubeReport]:
        """Evaluate the network across a range of cluster sizes.

        The network is compiled once and the per-descriptor single-cube
        cycles evaluated once; every cluster size reuses both (they do
        not depend on ``n_cubes``).
        """
        compiler = compile_training if training else compile_inference
        program = compiler(network, self.config.cube, duplicate)
        single_cycles = [self._cube_model.evaluate_descriptor(d).cycles
                         for d in program.descriptors]
        reports = []
        for n in cube_counts:
            model = MultiCubeModel(replace(self.config, n_cubes=n))
            reports.append(model.evaluate_program(program, single_cycles))
        return reports
