"""Cycle-accurate multi-cube sharded execution (the paper's §IX).

:mod:`repro.core.multicube` models multi-cube scaling analytically; this
module *executes* it.  A compiled network is partitioned across cubes
the same way the analytic model assumes — locally connected layers split
the image by rows (neighbouring cubes exchange a kernel halo per layer),
fully connected layers split output neurons (the input vector is
all-gathered before the layer runs) — and each cube's shard runs on the
unmodified single-cube cycle simulator.

Three pieces:

* :func:`shard_network` — the compiler-level partitioner.  Every
  descriptor becomes one per-cube :class:`LayerDescriptor` (same PNG
  vocabulary, reduced geometry, freshly derived vault layout) plus, for
  every descriptor after the first, a :class:`CubeLinkExchange` record
  whose per-cube byte counts mirror ``MultiCubeModel.comm_bytes``
  semantics exactly.  When ``MultiCubeConfig.cube_capacity_bytes`` is
  set, plans whose per-cube footprint exceeds it are refused — a
  workload can *require* sharding.
* the inter-cube SerDes link model
  (:class:`repro.noc.cubelink.CubeLinkModel`) — integer serialization
  and latency cycles, per-cube occupancy ledger.
* :class:`ShardedSimulator` — the executor.  Cubes simulate
  independently between exchanges (one :func:`run_cube_job` per cube,
  dispatched through :class:`repro.core.parallel.ParallelPassExecutor`)
  and rendezvous at **conservative barrier cycles**: a layer's cluster
  cycle count is ``exchange_delivery + max(cube compute cycles)``,
  where the exchange delivery time is the slowest cube's frame
  serialization + link latency (+ fault retransmissions).  All barrier
  arithmetic is parent-side integer math over per-cube outcomes folded
  in cube order, so a sharded run is bit-identical — outputs, cycles,
  per-cube stats, fault counters — to the same shards run serially in
  one process (``workers=1``), structurally, not accidentally.

Inter-cube link faults (``FaultConfig.intercube_*`` rates) run the same
CRC/retransmit protocol as mesh links, at frame granularity, salted by
:func:`repro.faults.rng.pass_salt` of the (exchange, cube) identity —
never by execution order — so injections stay identical serial vs
sharded, and rate 0 is pinned bit-identical to no injector at all.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.compiler import compile_inference
from repro.core.config import NeurocubeConfig
from repro.core.context import RunContext, resolve
from repro.core.layerdesc import LayerDescriptor
from repro.core.metrics import LayerStats, RunReport
from repro.core.multicube import MultiCubeConfig
from repro.core.parallel import ParallelPassExecutor
from repro.errors import ConfigurationError, MappingError
from repro.faults.checkpoint import CheckpointSpec
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector, FaultStats, _flip_bits
from repro.faults.rng import pass_salt
from repro.fixedpoint import from_float, quantize_float, to_float
from repro.memory.layout import conv_layout, fc_layout
from repro.nn.layers import Dense, Flatten
from repro.nn.network import Network
from repro.noc.cubelink import CubeLinkModel, CubeLinkStats

if TYPE_CHECKING:
    from repro.core.simulator import LayerRun


# ----------------------------------------------------------------------
# the shard plan (compiler output)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CubeSlice:
    """One cube's share of one layer.

    Attributes:
        cube: cube index.
        out_lo, out_hi: owned output range — image rows for conv/pool,
            output neurons for fc (``[lo, hi)``).
        in_lo, in_hi: input range the cube streams — image rows
            including the kernel halo for conv, pooled rows for pool,
            the full ``[0, inputs)`` vector for fc (all-gather).
    """

    cube: int
    out_lo: int
    out_hi: int
    in_lo: int
    in_hi: int


@dataclass(frozen=True)
class CubeLinkExchange:
    """One inter-cube exchange, scheduled before its consuming layer.

    Attributes:
        index: exchange ordinal in the plan — the logical identity
            inter-cube fault draws are salted by.
        layer: name of the consuming descriptor.
        kind: "halo" (conv/pool row refresh) or "all_gather" (fc).
        sent_bytes: per-cube outbound payload, mirroring
            ``MultiCubeModel.comm_bytes`` semantics — halo rows to each
            neighbour for conv/pool, the owned input shard to every
            other cube for fc.
    """

    index: int
    layer: str
    kind: str
    sent_bytes: tuple[int, ...]


@dataclass(frozen=True)
class ShardedLayer:
    """One descriptor's partition across the cluster.

    Attributes:
        index: position in the plan (descriptor order).
        layer_index: source ``repro.nn`` layer index.
        name, kind: from the base descriptor.
        base: the unsharded descriptor the shards were derived from.
        descriptors: one per-cube descriptor, in cube order (the base
            descriptor itself, unrenamed, when ``n_cubes == 1``).
        slices: one :class:`CubeSlice` per cube.
        exchange: the :class:`CubeLinkExchange` delivering this layer's
            inputs, or None (first layer, single cube, or a zero-byte
            halo such as a 1x1 kernel).
    """

    index: int
    layer_index: int
    name: str
    kind: str
    base: LayerDescriptor
    descriptors: tuple[LayerDescriptor, ...]
    slices: tuple[CubeSlice, ...]
    exchange: CubeLinkExchange | None


@dataclass(frozen=True)
class ShardPlan:
    """A network partitioned across a cube cluster."""

    network_name: str
    n_cubes: int
    duplicate: bool
    layers: tuple[ShardedLayer, ...]
    per_cube_bytes: tuple[int, ...]

    @property
    def exchanges(self) -> tuple[CubeLinkExchange, ...]:
        return tuple(entry.exchange for entry in self.layers
                     if entry.exchange is not None)

    def cube_descriptors(self, cube: int) -> tuple[LayerDescriptor, ...]:
        """One cube's full descriptor sequence, in execution order."""
        return tuple(entry.descriptors[cube] for entry in self.layers)


def _row_splits(total: int, n: int, what: str,
                name: str) -> list[tuple[int, int]]:
    """Split ``total`` units into n contiguous ``[lo, hi)`` shares."""
    if total < n:
        raise MappingError(
            f"{name}: cannot shard {total} {what} across {n} cubes; "
            f"every cube needs at least one")
    return [(int(part[0]), int(part[-1]) + 1)
            for part in np.array_split(np.arange(total), n)]


def _mirror_layout(base, fresh):
    """Re-apply the compiler's per-kind layout overrides to a reshard.

    The partitioner rebuilds each cube's layout from its reduced
    geometry; the base descriptor records which overrides the compiler
    applied on top of the generic builders (streamed weights use two
    packets per connection, pooling and the LSTM cell update carry no
    weight bytes, vault-local passes no remote traffic) and they carry
    over unchanged.
    """
    fresh = dataclasses.replace(
        fresh, packets_per_connection=base.packets_per_connection)
    if base.weight_bytes == 0:
        fresh = dataclasses.replace(fresh, weight_bytes=0)
    if base.remote_state_fraction == 0.0:
        fresh = dataclasses.replace(fresh, remote_state_fraction=0.0)
    return fresh


def _cube_layout(desc: LayerDescriptor, cube: int, builder):
    """Build one cube's layout, naming the cube on mapping failures."""
    try:
        return _mirror_layout(desc.layout, builder())
    except MappingError as error:
        raise MappingError(
            f"{desc.name}: cube {cube}'s shard cannot be laid out "
            f"across {desc.layout.vaults} vaults ({error}); use fewer "
            f"cubes or a larger layer") from error


def _shard_descriptor(desc: LayerDescriptor, n: int) -> tuple[
        tuple[LayerDescriptor, ...], tuple[CubeSlice, ...], list[int]]:
    """Partition one descriptor; returns (descriptors, slices, owned).

    ``owned`` is each cube's output item count — the share it must send
    during a following fc all-gather.
    """
    if n == 1:
        if desc.kind == "pool":
            out_items = desc.passes * desc.neurons_per_pass
        elif desc.kind == "conv":
            out_items = (desc.passes // desc.sub_passes
                         * desc.neurons_per_pass)
        else:
            out_items = desc.neurons_per_pass
        full = CubeSlice(cube=0, out_lo=0, out_hi=out_items, in_lo=0,
                         in_hi=desc.in_height)
        return (desc,), (full,), [out_items]
    vaults = desc.layout.vaults
    duplicate = desc.layout.duplicate
    descriptors: list[LayerDescriptor] = []
    slices: list[CubeSlice] = []
    owned: list[int] = []
    if desc.kind == "conv":
        out_h = desc.in_height - desc.kernel + 1
        out_w = desc.in_width - desc.kernel + 1
        out_maps = desc.passes // desc.sub_passes
        in_maps = (max(1, desc.connections // max(1, desc.kernel ** 2))
                   * desc.sub_passes)
        for cube, (lo, hi) in enumerate(
                _row_splits(out_h, n, "output rows", desc.name)):
            rows = hi - lo
            in_lo, in_hi = lo, hi + desc.kernel - 1
            layout = _cube_layout(
                desc, cube, lambda: conv_layout(
                    in_hi - in_lo, desc.in_width, desc.kernel, in_maps,
                    out_maps, vaults, duplicate))
            descriptors.append(dataclasses.replace(
                desc, name=f"{desc.name}.cube{cube}",
                neurons_per_pass=rows * out_w, in_height=in_hi - in_lo,
                layout=layout))
            slices.append(CubeSlice(cube=cube, out_lo=lo, out_hi=hi,
                                    in_lo=in_lo, in_hi=in_hi))
            owned.append(out_maps * rows * out_w)
    elif desc.kind == "pool":
        out_h = desc.in_height // desc.kernel
        out_w = desc.in_width // desc.kernel
        maps = desc.passes
        for cube, (lo, hi) in enumerate(
                _row_splits(out_h, n, "pooled rows", desc.name)):
            rows = hi - lo
            in_lo, in_hi = lo * desc.kernel, hi * desc.kernel
            layout = _cube_layout(
                desc, cube, lambda: conv_layout(
                    in_hi - in_lo, desc.in_width, desc.kernel, maps,
                    maps, vaults, duplicate))
            descriptors.append(dataclasses.replace(
                desc, name=f"{desc.name}.cube{cube}",
                neurons_per_pass=rows * out_w, in_height=in_hi - in_lo,
                layout=layout))
            slices.append(CubeSlice(cube=cube, out_lo=lo, out_hi=hi,
                                    in_lo=in_lo, in_hi=in_hi))
            owned.append(maps * rows * out_w)
    else:
        for cube, (lo, hi) in enumerate(
                _row_splits(desc.neurons_per_pass, n, "output neurons",
                            desc.name)):
            share = hi - lo
            layout = _cube_layout(
                desc, cube, lambda: fc_layout(
                    desc.connections, share, vaults, duplicate))
            descriptors.append(dataclasses.replace(
                desc, name=f"{desc.name}.cube{cube}",
                neurons_per_pass=share, layout=layout))
            slices.append(CubeSlice(cube=cube, out_lo=lo, out_hi=hi,
                                    in_lo=0, in_hi=desc.connections))
            owned.append(share)
    return tuple(descriptors), tuple(slices), owned


def _exchange_bytes(desc: LayerDescriptor, n: int,
                    prev_owned: list[int] | None,
                    item_bytes: int) -> tuple[str, list[int]]:
    """Per-cube outbound bytes for the exchange feeding ``desc``.

    Mirrors ``MultiCubeModel.comm_bytes``: conv/pool cubes refresh a
    ``kernel - 1``-row halo with each neighbour (edge cubes have one
    neighbour, interior cubes two — the analytic model charges every
    cube the interior rate); fc cubes all-gather, each sending its
    owned share of the input vector to the other ``n - 1`` cubes.
    """
    if desc.kind in ("conv", "pool"):
        halo_rows = max(0, desc.kernel - 1)
        in_maps = max(1, desc.connections // max(1, desc.kernel ** 2))
        band = halo_rows * desc.in_width * in_maps * item_bytes
        sent = [band * (1 if cube in (0, n - 1) else 2)
                for cube in range(n)]
        return "halo", sent
    inputs = desc.connections
    if prev_owned is not None and sum(prev_owned) == inputs:
        shares = list(prev_owned)
    else:
        # The previous descriptor's output is not this input vector
        # (e.g. LSTM gates reading [x, h]); fall back to an even split.
        shares = [int(part.size)
                  for part in np.array_split(np.arange(inputs), n)]
    return "all_gather", [share * (n - 1) * item_bytes
                          for share in shares]


def _check_capacity(plan: ShardPlan, config: MultiCubeConfig) -> None:
    """Refuse a plan whose cube footprint exceeds ``cube_capacity_bytes``.

    The message names the first cube over budget, the bytes over, and
    the heaviest layer on that cube — the one to shard further.
    """
    capacity = config.cube_capacity_bytes
    if capacity is None:
        return
    for cube, total in enumerate(plan.per_cube_bytes):
        if total <= capacity:
            continue
        heaviest = max(
            plan.layers,
            key=lambda entry: entry.descriptors[cube].layout.total_bytes)
        heaviest_bytes = heaviest.descriptors[cube].layout.total_bytes
        raise MappingError(
            f"network {plan.network_name!r} does not fit: cube {cube} "
            f"needs {total / 1e6:.2f} MB against a capacity of "
            f"{capacity / 1e6:.2f} MB on {plan.n_cubes} cube(s) — "
            f"{(total - capacity) / 1e6:.2f} MB over budget; heaviest "
            f"layer {heaviest.name!r} holds {heaviest_bytes / 1e6:.2f} "
            f"MB; shard across more cubes")


def shard_network(network: Network, config: MultiCubeConfig,
                  duplicate: bool = True,
                  validate: bool | None = None) -> ShardPlan:
    """Partition a network across the cluster (compiler level).

    Compiles the network for one cube, then rewrites every descriptor
    into per-cube shards with freshly derived vault layouts, and emits
    one :class:`CubeLinkExchange` per descriptor after the first (the
    analytic model charges communication once per descriptor, so the
    executor does too).  Raises :class:`repro.errors.MappingError` when
    a layer is too small for the cube count or — with
    ``cube_capacity_bytes`` set — when any cube's DRAM footprint
    exceeds its capacity (the message names the violating cube, its
    heaviest layer, and the bytes over budget).

    Args:
        network: a built :class:`repro.nn.Network`.
        config: the target cluster.
        duplicate: passed through to the single-cube compiler.
        validate: statically verify the base program's pass plans with
            :mod:`repro.analysis.nccheck` while compiling it; None (the
            default) follows the ambient run context's ``validate``.
    """
    n = config.n_cubes
    program = compile_inference(network, config.cube, duplicate,
                                validate=validate)
    item_bytes = config.cube.qformat.total_bits // 8
    entries: list[ShardedLayer] = []
    prev_owned: list[int] | None = None
    exchange_count = 0
    for position, desc in enumerate(program.descriptors):
        descriptors, slices, owned = _shard_descriptor(desc, n)
        exchange = None
        if n > 1 and position > 0:
            kind, sent = _exchange_bytes(desc, n, prev_owned, item_bytes)
            if any(sent):
                exchange = CubeLinkExchange(
                    index=exchange_count, layer=desc.name, kind=kind,
                    sent_bytes=tuple(sent))
                exchange_count += 1
        entries.append(ShardedLayer(
            index=position, layer_index=desc.layer_index, name=desc.name,
            kind=desc.kind, base=desc, descriptors=descriptors,
            slices=slices, exchange=exchange))
        prev_owned = owned
    per_cube = tuple(
        sum(entry.descriptors[cube].layout.total_bytes
            for entry in entries)
        for cube in range(n))
    plan = ShardPlan(network_name=network.name, n_cubes=n,
                     duplicate=duplicate, layers=tuple(entries),
                     per_cube_bytes=per_cube)
    _check_capacity(plan, config)
    return plan


# ----------------------------------------------------------------------
# the sharded executor
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _FcShare:
    """Picklable stand-in for one cube's output slice of a Dense layer.

    The simulator's fc path reads exactly two attributes of the layer —
    ``params`` ("weight"/"bias") and ``activation`` — so a cube's shard
    ships only its weight rows instead of the whole layer object.
    """

    params: dict
    activation: object


@dataclass(frozen=True)
class CubeJob:
    """One cube's work for one layer (picklable worker input)."""

    descriptor: LayerDescriptor
    layer: object | None
    input_tensor: np.ndarray | None


def run_cube_job(config: NeurocubeConfig, job: CubeJob,
                 ctx: RunContext) -> LayerRun:
    """Simulate one cube's shard of one layer (worker entry point).

    Builds a fresh single-cube simulator per job — cubes share no
    architectural state — and runs the shard through the unmodified
    :meth:`~repro.core.simulator.NeurocubeSimulator.run_descriptor`
    path under ``ctx``, the run's worker-safe context (the same at
    every worker count).  Fault salts and checkpoint labels derive from
    the shard descriptor's name (``....cubeN``), so every cube owns a
    disjoint checkpoint namespace and serial/parallel runs inject
    identically.  The run travels back, output included, instead of
    staying in the worker's log; the parent records it into the run's
    context.
    """
    # Imported here, not at module top: the simulator imports core
    # modules that would otherwise cycle through this one.
    from repro.core.simulator import NeurocubeSimulator

    return NeurocubeSimulator(config).run_descriptor(
        job.descriptor, job.layer, job.input_tensor, ctx=ctx)


@dataclass
class ExchangeOutcome:
    """Timing (and fault) result of one executed exchange.

    Attributes:
        exchange: the plan record this executes.
        cycles: the barrier delay the cluster paid — the slowest cube's
            delivery time (serialization + latency + retransmissions).
        per_cube_cycles: each cube's frame delivery time.
        lost_cubes: cubes whose inbound frame exhausted its retry
            budget (their received region was zeroed and recorded as a
            degraded result).
        corrupted_cubes: cubes that received a silently corrupted frame
            (CRC off).
    """

    exchange: CubeLinkExchange
    cycles: int
    per_cube_cycles: tuple[int, ...]
    lost_cubes: tuple[int, ...] = ()
    corrupted_cubes: tuple[int, ...] = ()


@dataclass
class ShardRunReport:
    """Result of one sharded run.

    ``report`` is the cluster-level :class:`RunReport` — per-layer
    folded stats (``exchange + max(cube compute)`` cycles, summed
    counters, summed footprints) exactly as ``parallel`` folds per-map
    outcomes, so everything downstream of :class:`RunReport` works
    unchanged.  The sharding-specific detail rides alongside.
    """

    plan: ShardPlan
    report: RunReport
    cube_layers: list = field(default_factory=list)
    exchanges: list = field(default_factory=list)
    fault_stats: FaultStats | None = None
    link: CubeLinkStats | None = None

    @property
    def total_cycles(self) -> float:
        return self.report.total_cycles

    @property
    def comm_cycles(self) -> int:
        """Cycles the cluster spent at exchange barriers."""
        return sum(outcome.cycles for outcome in self.exchanges)

    def link_occupancy(self, cube: int) -> float:
        """Fraction of the run a cube's SerDes links were serializing."""
        if self.link is None:
            return 0.0
        return self.link.occupancy(cube, int(self.total_cycles))

    def to_table(self) -> str:
        rows = [self.report.to_table()]
        occupancy = ", ".join(
            f"cube{cube}={100 * self.link_occupancy(cube):.1f}%"
            for cube in range(self.plan.n_cubes))
        rows.append(
            f"SHARD: {self.plan.n_cubes} cube(s), "
            f"{len(self.exchanges)} exchange(s), "
            f"{self.comm_cycles / 1e6:.3f} Mcycles at barriers "
            f"({100 * self.comm_cycles / self.total_cycles:.1f}% of "
            f"total); link occupancy {occupancy}")
        if self.fault_stats is not None and self.fault_stats.any_injected:
            nonzero = ", ".join(
                f"{name}={value}"
                for name, value in self.fault_stats.as_dict().items()
                if value)
            rows.append(f"SHARD FAULTS: {nonzero}")
        return "\n".join(rows)


@dataclass
class _RunState:
    """Mutable parent-side state threaded through one sharded run."""

    plan: ShardPlan
    report: RunReport
    links: CubeLinkModel
    executor: ParallelPassExecutor
    ctx: RunContext
    injector: FaultInjector | None
    cube_layers: list = field(default_factory=list)
    exchanges: list = field(default_factory=list)
    fault_stats: FaultStats | None = None
    cluster_cycle: int = 0
    positions: list | None = None
    drained_degraded: int = 0


def _slice_coords(kind: str, slice_: CubeSlice, shape,
                  flat: np.ndarray):
    """Map flat input-tensor positions to a cube's local slice coords."""
    if kind == "fc":
        return (flat,)
    _, height, width = shape
    maps_index = flat // (height * width)
    remainder = flat % (height * width)
    return (maps_index, remainder // width - slice_.in_lo,
            remainder % width)


class ShardedSimulator:
    """Cycle-accurate execution of a network sharded across cubes.

    Args:
        config: the cluster (per-cube config, cube count, link model
            parameters, optional per-cube capacity).
        workers: process-pool width for cube dispatch; defaults to
            ``config.n_cubes``.  ``workers=1`` runs every cube in-process
            through the identical code path (the serial reference the
            equivalence suite pins the parallel mode against).
        faults: explicit :class:`FaultConfig`; beats the ambient run
            context.
        checkpoint: explicit :class:`CheckpointSpec`; beats the ambient
            run context.

    Each run resolves its context once, on entry, and ships the same
    worker-safe form of it to every cube job at every worker count; the
    parent records each cube's run into the context in cube order.
    """

    def __init__(self, config: MultiCubeConfig,
                 workers: int | None = None,
                 faults: FaultConfig | None = None,
                 checkpoint: CheckpointSpec | None = None) -> None:
        if config.n_cubes < 1:
            raise ConfigurationError(
                f"n_cubes must be >= 1, got {config.n_cubes}")
        self.config = config
        self.workers = (config.n_cubes if workers is None
                        else max(1, int(workers)))
        self.faults = faults
        self.checkpoint = checkpoint
        # Each cube worker simulates its passes serially: the cluster's
        # parallelism is one process per cube, not nested pools.
        self._cube_config = dataclasses.replace(config.cube,
                                                sim_workers=1)

    # -- run entry points ----------------------------------------------

    def run_network(self, network: Network, x: np.ndarray,
                    duplicate: bool = True,
                    validate: bool | None = None) -> tuple[np.ndarray,
                                                           ShardRunReport]:
        """Simulate a full network, functionally, sharded across cubes.

        Functional sharding needs one descriptor per compute layer
        (LSTMs lower to five — use :meth:`run_timing` for those) and,
        for fc layers, a :class:`~repro.nn.layers.Dense` instance
        (other fc-kind layers are timing-only here too).  ``validate``
        statically verifies the base program's pass plans while
        compiling it; None follows the run context.
        """
        # Host wall-clock only; never feeds any simulated result.
        # nclint: allow(NC101) host-side timing
        started = time.perf_counter()
        ctx = self._resolve()
        plan = shard_network(network, self.config, duplicate,
                             validate=validate)
        by_layer: dict[int, ShardedLayer] = {}
        for entry in plan.layers:
            if entry.layer_index in by_layer:
                raise MappingError(
                    f"{network.name!r}: layer {entry.name!r} lowers to "
                    f"multiple descriptors; functional sharded "
                    f"execution needs one descriptor per layer — use "
                    f"run_timing for timing-only sharding")
            by_layer[entry.layer_index] = entry
        state = self._begin_run(plan, network.name, ctx)
        current = quantize_float(np.asarray(x, dtype=np.float64),
                                 self.config.cube.qformat)
        for index, layer in enumerate(network.layers):
            if isinstance(layer, Flatten):
                current = current.reshape(-1)
                continue
            entry = by_layer.get(index)
            if entry is None:
                raise MappingError(
                    f"layer {layer.name!r} missing from shard plan")
            inputs = self._cube_inputs(entry, current)
            exchange_cycles = self._run_exchange(state, entry, current,
                                                 inputs)
            jobs = [CubeJob(descriptor=entry.descriptors[cube],
                            layer=self._cube_layer(entry, layer, cube),
                            input_tensor=inputs[cube])
                    for cube in range(plan.n_cubes)]
            runs = self._dispatch(state, jobs)
            current = self._stitch(entry, runs)
            state.positions = self._owned_positions(entry, current)
            self._fold_layer(state, entry, runs, exchange_cycles)
        # nclint: allow(NC101) host-side timing
        state.report.host_seconds = time.perf_counter() - started
        return current, self._finalize(state)

    def run_timing(self, network: Network,
                   duplicate: bool = True,
                   validate: bool | None = None) -> ShardRunReport:
        """Simulate timing only, sharded — every descriptor, no tensors.

        Iterates the plan's descriptor order directly, so multi-
        descriptor layers (LSTM gates + cell update) shard too; link
        faults still run their retry protocol (drops and corruptions
        cost cycles; lost frames are recorded as degraded results).
        """
        # nclint: allow(NC101) host-side timing
        started = time.perf_counter()
        ctx = self._resolve()
        plan = shard_network(network, self.config, duplicate,
                             validate=validate)
        state = self._begin_run(plan, network.name, ctx)
        for entry in plan.layers:
            exchange_cycles = self._run_exchange(state, entry, None,
                                                 None)
            jobs = [CubeJob(descriptor=entry.descriptors[cube],
                            layer=None, input_tensor=None)
                    for cube in range(plan.n_cubes)]
            runs = self._dispatch(state, jobs)
            self._fold_layer(state, entry, runs, exchange_cycles)
        # nclint: allow(NC101) host-side timing
        state.report.host_seconds = time.perf_counter() - started
        return self._finalize(state)

    # -- internals ------------------------------------------------------

    def _resolve(self) -> RunContext:
        return resolve(self.config.cube, faults=self.faults,
                       checkpoint=self.checkpoint)

    def _begin_run(self, plan: ShardPlan, network_name: str,
                   ctx: RunContext) -> _RunState:
        faults = ctx.faults
        injector = None
        if faults is not None and faults.intercube_active:
            # One parent-side injector for the whole run: inter-cube
            # draws are keyed by (exchange, cube, attempt) identity, so
            # a run-level salt of 0 is stable across execution modes.
            injector = FaultInjector(faults, salt=0)
        report = RunReport(network_name=network_name,
                           f_clk_hz=self.config.cube.f_pe_hz,
                           peak_gops=self.config.total_peak_gops,
                           source="cycle")
        return _RunState(plan=plan, report=report,
                         links=self.config.link_model(),
                         executor=ParallelPassExecutor(self.workers),
                         ctx=ctx, injector=injector)

    def _dispatch(self, state: _RunState,
                  jobs: list[CubeJob]) -> list[LayerRun]:
        from functools import partial

        worker = partial(run_cube_job, self._cube_config,
                         ctx=state.ctx.for_worker())
        # Cube jobs bill their own, discarded phases; the parent's
        # wait for them is its simulate time.
        with state.ctx.phase("simulate"):
            runs = state.executor.map(worker, jobs)
        state.ctx.runs.extend(dataclasses.replace(run, output=None)
                              for run in runs)
        return runs

    def _cube_layer(self, entry: ShardedLayer, layer, cube: int):
        """The layer object one cube's job ships (or a Dense slice)."""
        if entry.kind != "fc":
            return layer
        if not isinstance(layer, Dense):
            raise MappingError(
                f"{entry.name}: functional fc sharding supports Dense "
                f"layers only (got {type(layer).__name__}); use "
                f"run_timing")
        lo, hi = entry.slices[cube].out_lo, entry.slices[cube].out_hi
        return _FcShare(
            params={"weight": layer.params["weight"][lo:hi],
                    "bias": layer.params["bias"][lo:hi]},
            activation=layer.activation)

    def _cube_inputs(self, entry: ShardedLayer,
                     current: np.ndarray) -> list[np.ndarray | None]:
        """Each cube's input slice of the stitched layer input.

        Slices are views unless inter-cube faults are live — a
        corrupted or lost frame mutates one cube's copy only.
        """
        mutable = entry.exchange is not None
        inputs: list[np.ndarray | None] = []
        for slice_ in entry.slices:
            if entry.kind == "fc":
                piece = current.reshape(-1)
            else:
                piece = current[:, slice_.in_lo:slice_.in_hi, :]
            inputs.append(piece.copy() if mutable else piece)
        return inputs

    def _owned_positions(self, entry: ShardedLayer,
                         output: np.ndarray) -> list[np.ndarray]:
        """Flat output positions each cube produced (C-order).

        Tracked across layers so an fc all-gather knows which inbound
        items each cube actually *received* (everything it did not own)
        — the region link faults corrupt or zero.
        """
        positions = []
        if entry.kind == "fc":
            for slice_ in entry.slices:
                positions.append(np.arange(slice_.out_lo, slice_.out_hi,
                                           dtype=np.int64))
            return positions
        maps, height, width = output.shape
        for slice_ in entry.slices:
            rows = np.arange(slice_.out_lo, slice_.out_hi,
                             dtype=np.int64)
            grid = (np.arange(maps, dtype=np.int64)[:, None, None]
                    * (height * width)
                    + rows[None, :, None] * width
                    + np.arange(width, dtype=np.int64)[None, None, :])
            positions.append(grid.reshape(-1))
        return positions

    @staticmethod
    def _received_positions(entry: ShardedLayer, cube: int, shape,
                            owned: list | None) -> np.ndarray:
        """Flat positions of cube ``cube``'s inbound frame contents:
        what it needs minus what it produced itself in the previous
        layer (``owned``, that layer's ownership map, None before the
        first layer)."""
        slice_ = entry.slices[cube]
        if entry.kind == "fc":
            needed = np.arange(int(np.prod(shape)), dtype=np.int64)
        else:
            maps, height, width = shape
            rows = np.arange(slice_.in_lo, slice_.in_hi, dtype=np.int64)
            needed = (np.arange(maps, dtype=np.int64)[:, None, None]
                      * (height * width)
                      + rows[None, :, None] * width
                      + np.arange(width, dtype=np.int64)[None, None, :]
                      ).reshape(-1)
        if owned is None:
            return needed
        return np.setdiff1d(needed, owned[cube])

    def _run_exchange(self, state: _RunState, entry: ShardedLayer,
                      current: np.ndarray | None,
                      inputs: list[np.ndarray | None] | None) -> int:
        """Execute one exchange: timing, occupancy, faults, data effects.

        Conservative sync: the cluster resumes when the slowest cube's
        frame has been delivered — ``max`` over per-cube serialization +
        latency + retransmission backoffs.  Returns that barrier delay
        (0 when the entry has no exchange).
        """
        exchange = entry.exchange
        if exchange is None:
            return 0
        injector = state.injector
        per_cube: list[int] = []
        lost: list[int] = []
        corrupted: list[int] = []
        for cube, sent in enumerate(exchange.sent_bytes):
            if sent <= 0:
                per_cube.append(0)
                continue
            serialization = state.links.serialization_cycles(sent)
            delivery = state.links.delivery_cycles(sent)
            extra = 0
            retransmissions = 0
            outcome = None
            if injector is not None:
                # The frame's logical identity — never execution order.
                salt = pass_salt(exchange.index, cube)
                extra, retransmissions, outcome = (
                    injector.intercube_transfer(salt, cube,
                                                serialization))
            state.links.record_send(cube, sent,
                                    transmissions=1 + retransmissions)
            per_cube.append(delivery + extra)
            if outcome == "lost":
                lost.append(cube)
                injector.record_degraded(
                    "intercube_frame_lost", state.cluster_cycle,
                    f"{entry.name}: cube {cube} inbound frame lost "
                    f"after {injector.config.max_retries} "
                    f"retransmissions")
                if inputs is not None:
                    self._zero_received(state, entry, cube, current,
                                        inputs)
            elif outcome == "corrupt":
                corrupted.append(cube)
                if inputs is not None:
                    self._corrupt_received(state, entry, cube, current,
                                           inputs)
        cycles = max(per_cube) if per_cube else 0
        state.exchanges.append(ExchangeOutcome(
            exchange=exchange, cycles=cycles,
            per_cube_cycles=tuple(per_cube), lost_cubes=tuple(lost),
            corrupted_cubes=tuple(corrupted)))
        if injector is not None:
            fresh = injector.degraded[state.drained_degraded:]
            state.report.degraded.extend(fresh)
            state.drained_degraded = len(injector.degraded)
        return cycles

    def _zero_received(self, state: _RunState, entry: ShardedLayer,
                       cube: int, current: np.ndarray,
                       inputs: list[np.ndarray | None]) -> None:
        """Graceful degradation: a lost frame's region reads as zeros."""
        received = self._received_positions(entry, cube, current.shape,
                                            state.positions)
        if received.size == 0:
            return
        coords = _slice_coords(entry.kind, entry.slices[cube],
                               current.shape, received)
        inputs[cube][coords] = 0.0

    def _corrupt_received(self, state: _RunState, entry: ShardedLayer,
                          cube: int, current: np.ndarray,
                          inputs: list[np.ndarray | None]) -> None:
        """Silent (CRC-off) corruption: flip one bit of one item."""
        received = self._received_positions(entry, cube, current.shape,
                                            state.positions)
        if received.size == 0:
            return
        salt = pass_salt(entry.exchange.index, cube)
        item, bit = state.injector.intercube_corrupt_site(
            salt, cube, int(received.size))
        flat = received[item % received.size]
        coords = _slice_coords(entry.kind, entry.slices[cube],
                               current.shape, np.asarray([flat]))
        qformat = self.config.cube.qformat
        raw = int(from_float(inputs[cube][coords], qformat)[0])
        inputs[cube][coords] = to_float(
            np.asarray([_flip_bits(raw, (bit,))]), qformat)

    def _stitch(self, entry: ShardedLayer,
                runs: list[LayerRun]) -> np.ndarray:
        """Reassemble the cubes' outputs into the full layer output."""
        parts = [run.output for run in runs]
        if entry.kind == "fc":
            return np.concatenate(parts)
        return np.concatenate(parts, axis=1)

    def _fold_layer(self, state: _RunState, entry: ShardedLayer,
                    runs: list[LayerRun],
                    exchange_cycles: int) -> None:
        """Fold per-cube runs into one cluster layer row.

        The conservative barrier: every cube has finished its shard by
        ``max(cube cycles)``, and the next layer's inputs were delivered
        ``exchange_cycles`` before the shards started — so the layer
        costs their sum on the cluster clock.  Counters fold in cube
        order, exactly as ``parallel`` folds map outcomes.
        """
        base = entry.base
        compute = max(run.cycles for run in runs)
        cycles = exchange_cycles + compute
        packets = sum(run.packets for run in runs)
        lateral = sum(round(run.packets * run.lateral_fraction)
                      for run in runs)
        latency = sum(run.packets * run.mean_packet_latency
                      for run in runs)
        stats = LayerStats(
            name=base.name, kind=base.kind, phase=base.phase.value,
            duplicate=base.duplicate, neurons=base.neurons,
            connections=base.connections, macs=base.macs, ops=base.ops,
            cycles=cycles, bound="measured", packets=packets,
            lateral_fraction=lateral / packets if packets else 0.0,
            state_bytes=sum(d.layout.state_bytes
                            for d in entry.descriptors),
            weight_bytes=sum(d.layout.weight_bytes
                             for d in entry.descriptors),
            duplicated_bytes=sum(d.layout.duplicated_bytes
                                 for d in entry.descriptors),
            mean_packet_latency=latency / packets if packets else 0.0,
            pe_busy_cycles=sum(run.pe_busy_cycles for run in runs),
            pe_idle_cycles=sum(run.pe_idle_cycles for run in runs),
            search_stall_cycles=sum(run.search_stall_cycles
                                    for run in runs),
            inject_stall_cycles=sum(run.inject_stall_cycles
                                    for run in runs))
        state.report.layers.append(stats)
        state.cube_layers.append(tuple(run.to_stats() for run in runs))
        state.cluster_cycle += cycles
        for run in runs:
            state.report.degraded.extend(run.degraded)
            if run.fault_stats is not None:
                if state.fault_stats is None:
                    state.fault_stats = FaultStats()
                state.fault_stats.merge(run.fault_stats)
        if exchange_cycles >= compute:
            # Imported here: repro.obs.attribution builds on
            # repro.core.analytic.
            from repro.obs.attribution import intercube_attribution

            state.report.attribution.append(intercube_attribution(
                base.name, base.kind, exchange_cycles, compute))

    def _finalize(self, state: _RunState) -> ShardRunReport:
        if state.injector is not None:
            if state.fault_stats is None:
                state.fault_stats = FaultStats()
            state.fault_stats.merge(state.injector.stats)
        return ShardRunReport(
            plan=state.plan, report=state.report,
            cube_layers=state.cube_layers, exchanges=state.exchanges,
            fault_stats=state.fault_stats, link=state.links.stats())
