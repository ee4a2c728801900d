"""The cycle-level Neurocube system simulator (paper §VI).

Assembles vaults, PNGs, the NoC and PEs per the configuration and runs
compiled layer descriptors cycle by cycle at the reference clock
(``f_pe = f_noc = f_dram_io``).  In functional mode it moves real
fixed-point data end to end — vault reads, packets, MAC accumulation, LUT
activation, write-back — so layer outputs can be checked exactly against
the :mod:`repro.nn` reference.  In timing mode (no tensors) it moves
zero payloads through the identical control paths.

Three mechanisms keep multi-pass runs fast without changing a single
result (see ``docs/simulator_internals.md``):

* independent passes — conv output maps, pool maps — fan out over the
  :mod:`repro.core.parallel` process pool (``config.sim_workers``);
* within one pass, the event-horizon scheduler jumps the clock across
  stretches where no agent can act (every PE counting down, every vault
  mid-latency, the NoC empty), and a folded pass (below) also jumps
  whole periods of a steady state inside its neuron groups
  (:mod:`repro.core.forward`); every other cycle steps every agent;
* passes that coincide are simulated once and their outcomes replayed
  (:mod:`repro.core.parallel` memoization, ``config.sim_memoize``): in
  timing-only mode every conv/pool map of a layer is structurally
  identical, and in functional mode the maps of a conv or pooling
  layer share the first map's passes, the others' write-backs
  evaluated from their own vault images; within a
  duplicated pass whose packets never leave their node, one node slice
  per timing class is simulated
  (:meth:`~repro.core.scheduler.PassPlan.slice_classes`) and the
  others' write-backs are copied or evaluated from their own vault
  images (:mod:`repro.core.fold`).

Paper-scale layers are far too large to simulate flit by flit in Python;
the companion :mod:`repro.core.analytic` model is calibrated against this
simulator on scaled-down layers (see :mod:`repro.core.calibration`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro.core.compiler import compile_inference
from repro.core.config import NeurocubeConfig
from repro.core.context import RunContext, resolve
from repro.core.fold import unfold
from repro.core.forward import SteadyState
from repro.core.layerdesc import LayerDescriptor
from repro.core.metrics import LayerStats, RunReport, StreamReport
from repro.core.parallel import (
    MapOutcome,
    MapTask,
    ParallelPassExecutor,
    SubPassSpec,
)
from repro.core.pe import ProcessingElement
from repro.core.png import NeurosequenceGenerator
from repro.core.scheduler import PassPlan, build_fc_pass
from repro.errors import ConfigurationError, MappingError, SimulationError
from repro.faults.checkpoint import CheckpointSpec, CheckpointStore
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector, FaultStats
from repro.fixedpoint import to_float
from repro.memory.vault import VaultChannel
from repro.nn.activations import ActivationLUT
from repro.nn.layers import Flatten, MaxPool2D
from repro.nn.network import Network
from repro.noc.interconnect import FoldedInterconnect, Interconnect, NocStats
from repro.noc.topology import FullyConnected, Mesh2D
from repro.obs.tracer import Trace, TraceOptions, Tracer


@dataclass
class PassResult:
    """One simulated pass: the one record of a pass, whether it was
    simulated here, in a worker process or loaded from a memo store.

    Attributes:
        cycles: reference cycles to layer-done.
        outputs: neuron tag -> activated raw value (functional mode);
            None in a pass kept after its output was assembled.
        noc: the interconnect's :class:`~repro.noc.interconnect.NocStats`
            at layer-done.  In a pass folded to one node slice per
            timing class they are the full fabric's.
        pe_stats: per-PE statistics (fires, stalls, cache peaks).
        png_stats: per-PNG statistics (injections, stalls).
        trace: the pass's :class:`repro.obs.Trace` (local clock starting
            at 0) when tracing was on.
        fault_stats: :class:`repro.faults.FaultStats` when a fault
            injector was active (even at all-zero rates), else None.
        degraded: :class:`repro.faults.DegradedResult` records for
            outputs the retry/watchdog protocols had to degrade.
        forwarded: cycles crossed by steady-state jumps
            (:mod:`repro.core.forward`) instead of being stepped.
    """

    cycles: int
    outputs: dict | None
    noc: NocStats
    pe_stats: list
    png_stats: list
    trace: Trace | None = None
    fault_stats: FaultStats | None = None
    degraded: tuple = ()
    forwarded: int = 0


def _build_sampler(pes, vaults, interconnect):
    """Build one pass's time-series counter closure.

    Called by the :class:`repro.obs.Tracer` at every sample point; all
    reads are side-effect-free probes of live agent state.  Emits:

    * ``pe{i}.mac_util`` — fraction of cycles since the previous sample
      the PE's MAC array spent computing (delta of busy cycles);
    * ``pe{i}.cache_fill`` — instantaneous cache occupancy in items;
    * ``vault{v}.bw_words`` — words served per cycle since the previous
      sample (delta of the channel's served-word counter);
    * ``link.{src}->{dst}.occupancy`` — packets resident in each mesh
      link's endpoint buffers;
    * ``noc.in_fabric`` — packets in flight anywhere in the NoC.
    """
    prev_busy = [0] * len(pes)
    prev_words = [0] * len(vaults)
    prev_cycle = [0]

    def sample(cycle):
        span = max(1, cycle - prev_cycle[0])
        prev_cycle[0] = cycle
        out = []
        for i, pe in enumerate(pes):
            busy = pe.stats.busy_cycles
            out.append((f"pe{pe.pe_id}.mac_util",
                        (busy - prev_busy[i]) / span))
            prev_busy[i] = busy
            out.append((f"pe{pe.pe_id}.cache_fill", pe.cache_fill))
        for v, vault in enumerate(vaults):
            words = vault.words_served
            out.append((f"vault{vault.vault_id}.bw_words",
                        (words - prev_words[v]) / span))
            prev_words[v] = words
        for label, occupancy in interconnect.link_occupancies():
            out.append((f"link.{label}.occupancy", occupancy))
        out.append(("noc.in_fabric", interconnect.in_fabric))
        return out

    return sample


@dataclass
class LayerRun:
    """Result of simulating one descriptor: the one record of a run,
    returned to the caller and, without its output, kept in the run
    context's log.

    Attributes:
        descriptor: what was run.
        cycles: reference-clock cycles across all passes.
        output: assembled output tensor (functional mode) or None; None
            in the run log, which never pins a layer output.
        packets: NoC packets delivered.
        lateral_fraction: measured lateral (cross-node) packet fraction.
        mean_packet_latency: mean inject-to-eject latency in cycles.
        macs_fired: MAC operations executed across PEs and passes.
        pe_busy_cycles: PE cycles spent computing (summed over PEs).
        pe_idle_cycles: PE cycles stalled waiting for operands.
        search_stall_cycles: extra cycles lost to cache sub-bank
            searches beyond the overlapped MAC time (§V-B).
        cache_peak: deepest total cache occupancy any PE reached.
        inject_stall_cycles: PNG cycles blocked by NoC backpressure.
        host_seconds: wall-clock host time the simulation took.
        trace: merged run trace (all passes on one clock) when tracing
            was enabled, else None.
        fault_stats: folded :class:`repro.faults.FaultStats` across all
            passes when fault injection was active, else None.
        degraded: all passes' :class:`repro.faults.DegradedResult`
            records, in serial fold order.
        memo_stats: :class:`repro.memo.MemoStats` counters this run
            accumulated against its persistent memo store, else None.
        config: the single-cube configuration it ran on.
    """

    descriptor: LayerDescriptor
    cycles: int
    output: np.ndarray | None
    packets: int
    lateral_fraction: float
    mean_packet_latency: float
    macs_fired: int = 0
    pe_busy_cycles: int = 0
    pe_idle_cycles: int = 0
    search_stall_cycles: int = 0
    cache_peak: int = 0
    inject_stall_cycles: int = 0
    host_seconds: float = 0.0
    trace: Trace | None = None
    fault_stats: FaultStats | None = None
    degraded: tuple = ()
    memo_stats: object | None = None
    config: NeurocubeConfig | None = None

    @property
    def simulated_cycles_per_second(self) -> float:
        """Simulation rate: reference cycles per host wall-clock second.

        Raises :class:`ConfigurationError` when no host time was
        recorded, mirroring
        :attr:`RunReport.frames_per_second`'s handling of zero cycles —
        a silent 0.0 reads like an infinitely slow simulator in
        benchmark output.
        """
        if self.host_seconds <= 0.0:
            raise ConfigurationError(
                f"run of {self.descriptor.name!r} has no recorded host "
                "time; simulation rate is undefined")
        return self.cycles / self.host_seconds

    def to_stats(self) -> LayerStats:
        """Convert to the report row format."""
        desc = self.descriptor
        return LayerStats(
            name=desc.name, kind=desc.kind, phase=desc.phase.value,
            duplicate=desc.duplicate, neurons=desc.neurons,
            connections=desc.connections, macs=desc.macs, ops=desc.ops,
            cycles=self.cycles, bound="measured", packets=self.packets,
            lateral_fraction=self.lateral_fraction,
            state_bytes=desc.layout.state_bytes,
            weight_bytes=desc.layout.weight_bytes,
            duplicated_bytes=desc.layout.duplicated_bytes,
            mean_packet_latency=self.mean_packet_latency,
            pe_busy_cycles=self.pe_busy_cycles,
            pe_idle_cycles=self.pe_idle_cycles,
            search_stall_cycles=self.search_stall_cycles,
            inject_stall_cycles=self.inject_stall_cycles)


class _EventHorizonScheduler:
    """Event-horizon clock jump for one pass (the skip-ahead path).

    Every agent exposes the same two-method contract:

    * ``next_event_delta()`` — 0 when the agent can act on the current
      cycle, ``n >= 1`` when its next visible event fires on the n-th
      step from now (``1`` means it must be stepped *this* cycle), and
      None when it is passive until some other agent acts;
    * ``skip(n)`` — replicate exactly what ``n`` provably event-free
      cycles of stepping would do (clocks, countdowns, statistics).

    At the top of a cycle the minimum delta over all agents is the
    event horizon: when it exceeds one, the clock jumps to one cycle
    before the earliest event — even while vault reads are parked
    mid-access-latency.  Every cycle that is not jumped is stepped in
    full, each agent in the lock-step phase order; by the contract a
    ``step()`` on an event-free cycle is exactly ``skip(1)``, so
    stepping an idle agent costs host time but never changes a bit.

    A PNG and its vault form one agent: ``png.step()`` advances the
    vault internally, and a PNG whose delta exceeds one has no per-cycle
    state of its own, so ``png.skip`` fast-forwards the pair by
    skipping the vault.
    """

    def __init__(self, pngs, pes, interconnect: Interconnect) -> None:
        self._pngs = pngs
        self._pes = pes
        self._interconnect = interconnect

    def next_event_delta(self) -> int | None:
        """Cycles until any agent next acts, or None on deadlock.

        Exits early with 0/1 as soon as any agent can act on the current
        cycle (the common case while packets are in flight); otherwise
        returns the minimum countdown, or None when every agent is
        passive — nothing will ever happen again.  The PNGs are scanned
        first: at the top of a cycle the PEs are usually counting down
        while the first PNG can issue.  A PNG's scan may park its next
        emission record in the held slot, which is where its ``step``
        would put it, so the scan order changes nothing ``step`` reads.
        """
        if self._interconnect.in_fabric:
            return 1
        horizon: int | None = None
        for agents in (self._pngs, self._pes):
            for agent in agents:
                delta = agent.next_event_delta()
                if delta is not None:
                    if delta <= 1:
                        return delta
                    if horizon is None or delta < horizon:
                        horizon = delta
        return horizon

    def skip(self, cycles: int) -> None:
        """Fast-forward every agent across ``cycles`` event-free cycles."""
        for png in self._pngs:
            png.skip(cycles)
        self._interconnect.skip(cycles)
        for pe in self._pes:
            pe.skip(cycles)


def _label(desc: LayerDescriptor) -> str:
    """Checkpoint label base: LSTM gates and training steps name their
    descriptors ``layer/part``, and labels cannot hold a ``/``."""
    return desc.name.replace("/", ".")


#: Bytes of float64 input frames that :meth:`NeurocubeSimulator.run_stream`
#: stacks into one ``Network.forward`` call.  Small on purpose: every
#: layer's intermediates grow with the stack (the paper-scale conv1's
#: im2col is 86 MB for one 1.8 MB 320x240x3 frame), so such a frame
#: still goes alone while a 24x24x3 one goes nine at a time.
STREAM_CHUNK_BYTES = 128 * 1024


def stream_chunk(frame_shape: tuple[int, ...]) -> int:
    """Frames of ``frame_shape`` per warm-phase ``forward`` call: as
    many float64 frames as fit in :data:`STREAM_CHUNK_BYTES`, at least
    one."""
    frame_bytes = np.dtype(np.float64).itemsize * int(np.prod(frame_shape))
    return max(1, STREAM_CHUNK_BYTES // frame_bytes)


class NeurocubeSimulator:
    """Flit-accurate simulator for one :class:`NeurocubeConfig`.

    The hook arguments below take precedence over an ambient
    :class:`~repro.core.context.RunContext`; each run resolves them
    once, on entry (:func:`repro.core.context.resolve`).

    Args:
        config: the architecture to simulate.
        trace: :class:`repro.obs.TraceOptions` to trace every pass of
            every descriptor run.  Tracing never changes simulated
            results: cycle counts and outputs are bit-identical either
            way.
        faults: :class:`repro.faults.FaultConfig` enabling deterministic
            fault injection on every pass.  None everywhere runs
            entirely injector-free (the seed-baseline fast path).
        checkpoint: :class:`repro.faults.CheckpointSpec` enabling
            periodic per-pass snapshots and/or resume.
        memo: :class:`repro.memo.MemoStore` making timing-pass
            memoization persistent — memoized outcomes are loaded from
            and stored to disk, surviving across runs.  None everywhere
            keeps memoization in-process only.  Bit-identity holds
            either way: a loaded entry's recorded plan hashes must
            equal those of the plans the run would build now (the
            key⇒hash invariant the in-run replay is built on), or it
            is rejected and re-simulated.
    """

    def __init__(self, config: NeurocubeConfig,
                 trace: TraceOptions | None = None,
                 faults: FaultConfig | None = None,
                 checkpoint: CheckpointSpec | None = None,
                 memo=None) -> None:
        self.config = config
        self.trace_options = trace
        self.faults = faults
        self.checkpoint = checkpoint
        self.memo = memo

    def _resolve(self) -> RunContext:
        return resolve(self.config, trace=self.trace_options,
                       faults=self.faults, checkpoint=self.checkpoint,
                       memo=self.memo)

    def _topology(self):
        if self.config.noc_topology == "fully_connected":
            return FullyConnected(self.config.n_pe)
        return Mesh2D.for_nodes(self.config.n_pe)

    # ------------------------------------------------------------------
    # single-pass engine
    # ------------------------------------------------------------------

    def run_pass(self, plan: PassPlan,
                 max_cycles: int | None = None,
                 stall_limit: int = 1_000_000,
                 validate: bool = False,
                 ctx: RunContext | None = None,
                 fault_salt: int = 0,
                 pass_label: str = "pass") -> PassResult:
        """Run one PNG pass to layer-done.

        With ``config.sim_memoize`` on and no trace, fault injector or
        checkpoint, a pass whose node slices fall into timing classes
        (:meth:`PassPlan.slice_classes`) simulates one slice per class
        and gives the others its timing and statistics, and their own
        write-back values (:func:`repro.core.fold.unfold`).  With
        ``config.sim_skip_ahead`` too, such a pass jumps whole periods
        of a repeated timing state inside its neuron groups
        (:class:`repro.core.forward.SteadyState`).  A folded run that
        stalls or hits its ceiling is re-run in full, so every error
        comes from the full run.

        Args:
            plan: the scheduled pass.
            max_cycles: absolute cycle ceiling (defaults to a generous
                bound derived from the plan's work).
            stall_limit: cycles without progress — a new write-back,
                a PE's OP-counter advancing, or a PE finishing — before
                the run is declared deadlocked.  A pass whose PEs keep
                advancing never trips it, however long its neurons take
                to write back (fc1 of the paper-scale scene net).
            validate: statically verify the plan first
                (:func:`repro.analysis.nccheck.check_plan`); a
                malformed plan raises
                :class:`repro.errors.PlanCheckError` before any cycle
                is simulated instead of deadlocking mid-run.
            ctx: the run's resolved hooks; None runs hook-free.  With
                ``ctx.trace`` a fresh :class:`repro.obs.Tracer` is wired
                into every agent and the frozen trace rides back on the
                result.  With ``ctx.faults`` a fresh
                :class:`repro.faults.FaultInjector` is threaded through
                every agent — even at all-zero rates, so the rate-0
                machinery path can be tested for bit-identity against
                the injector-free path.  With ``ctx.checkpoint``
                snapshots are saved every ``every`` cycles under
                ``pass_label``, and with ``resume`` the newest snapshot
                is restored before cycling.  The hook-free path stays
                hook-free: each instrumentation site is one ``is not
                None`` test.
            fault_salt: pass-identity salt for the injector's transient
                fault keys (see :func:`repro.faults.pass_salt`).
            pass_label: stable label for this pass's checkpoints; must
                identify the pass across execution modes.
        """
        config = self.config
        if ctx is None:
            ctx = RunContext()
        if validate:
            # Imported lazily: repro.analysis depends on the core plan
            # types, so a module-level import would be circular.
            from repro.analysis.nccheck import check_plan

            check_plan(plan, config, label="pass plan")
        classes = (plan.slice_classes(config)
                   if (config.sim_memoize and ctx.trace is None
                       and ctx.faults is None and ctx.checkpoint is None)
                   else None)
        if classes is not None:
            try:
                return self._simulate(plan, max_cycles, stall_limit, ctx,
                                      fault_salt, pass_label, classes)
            except SimulationError:
                # A folded pass never reports an error of its own: the
                # full run below raises the diagnosis every mode gives.
                pass
        return self._simulate(plan, max_cycles, stall_limit, ctx,
                              fault_salt, pass_label, None)

    def _simulate(self, plan: PassPlan, max_cycles: int | None,
                  stall_limit: int, ctx: RunContext, fault_salt: int,
                  pass_label: str,
                  classes: list[list[int]] | None) -> PassResult:
        """Run one pass: every node slice, or with ``classes`` (from
        :meth:`PassPlan.slice_classes`) the first slice of each class,
        whose results :func:`~repro.core.fold.unfold` then extends to
        the others."""
        config = self.config
        tracer = Tracer(ctx.trace) if ctx.trace is not None else None
        injector = (FaultInjector(ctx.faults, salt=fault_salt,
                                  tracer=tracer)
                    if ctx.faults is not None else None)
        if classes is None:
            channels = range(config.n_channels)
            pe_ids = range(config.n_pe)
            interconnect = Interconnect(
                self._topology(), buffer_depth=config.noc_buffer_depth,
                local_rate=config.items_per_word, tracer=tracer,
                injector=injector)
        else:
            channels = pe_ids = [members[0] for members in classes]
            weights = [0] * config.n_pe
            for members in classes:
                weights[members[0]] = len(members)
            interconnect = FoldedInterconnect(
                self._topology(), weights,
                buffer_depth=config.noc_buffer_depth,
                local_rate=config.items_per_word)
        vaults = [VaultChannel(config.channel_timing, vault_id=v,
                               data=plan.vault_data[v], tracer=tracer,
                               injector=injector)
                  for v in channels]
        outputs: dict = {}

        def make_sink(vault: VaultChannel):
            vault_index = vault.vault_id

            def sink(packet, activated_raw: int) -> None:
                channel, address = plan.out_addresses[packet.neuron]
                if channel != vault_index:
                    raise SimulationError(
                        f"write-back for {packet.neuron} landed at vault "
                        f"{vault_index}, home is {channel}")
                vault.write_items(address, [activated_raw])
                outputs[packet.neuron] = activated_raw
            return sink

        pes: list[ProcessingElement] = []

        # Emission-horizon window: how many operations ahead of the
        # slowest PE the generators may run.  The geometry lives on the
        # config (one definition) because nccheck's static sub-bank
        # occupancy bound (NC203) enforces the same window.
        window = config.emission_window
        # Lock-step bound: no PNG emits ops more than ``window`` ahead of
        # the slowest PE (the hardware equivalent is that all PNGs walk
        # the same FSM schedule).  PE op counters and done flags change
        # only inside ProcessingElement.step/program/load_state, and
        # every cycle runs its PNG phase before its PE phase, so the
        # bound is computed once per cycle — after programming or
        # resume, then after each PE phase — and every PNG call in a
        # cycle reads that exact value.  The same scan yields the PEs'
        # progress mark: the OP-counters of the unfinished PEs only grow,
        # so their sum and count move exactly when some PE advances an
        # operation or finishes.
        bound = [float("inf")]
        pe_mark = [(0, 0)]

        def refresh_horizon() -> None:
            active = [pe.op_counter for pe in pes if not pe.done]
            bound[0] = min(active) + window if active else float("inf")
            pe_mark[0] = (sum(active), len(active))

        def horizon() -> float:
            return bound[0]

        pngs = []
        for v, vault in zip(channels, vaults, strict=True):
            png = NeurosequenceGenerator(
                vault, node=config.pe_of_channel(v),
                interconnect=interconnect, horizon=horizon,
                tracer=tracer, injector=injector)
            png.program(plan.vault_emissions[v],
                        plan.expected_writebacks[v], lut=plan.lut,
                        writeback_sink=make_sink(vault))
            pngs.append(png)
        for p in pe_ids:
            pe = ProcessingElement(p, config, interconnect,
                                   tracer=tracer, injector=injector)
            pe.program(plan.pe_groups[p])
            pes.append(pe)
        if tracer is not None and tracer.options.counters:
            tracer.bind_sampler(_build_sampler(pes, vaults, interconnect))

        if max_cycles is None:
            # Generous ceiling: every item serialised through one channel
            # with full search stalls would still finish well inside this.
            work = max(1, plan.stream_items)
            max_cycles = 200 * work + 500_000
        scheduler = (_EventHorizonScheduler(pngs, pes, interconnect)
                     if config.sim_skip_ahead else None)
        # A folded pass runs hook-free; with skip-ahead it also jumps
        # whole periods of a steady state inside neuron groups.
        forward = (SteadyState(pngs, pes, interconnect)
                   if classes is not None and scheduler is not None
                   else None)
        cycles = 0
        last_progress = 0
        progress_mark = -1
        store: CheckpointStore | None = None
        every = 0
        checkpoint = ctx.checkpoint
        if checkpoint is not None:
            # A worker's context bills its own phases, which stay in
            # the worker: phases time the parent process only.
            store = CheckpointStore(checkpoint.directory,
                                    timer=ctx.phase_factory("checkpoint"),
                                    keep_last=checkpoint.keep_last)
            every = checkpoint.every
            if checkpoint.resume:
                resume_cycle = store.latest(pass_label)
                if resume_cycle is not None:
                    state = store.load(pass_label, resume_cycle)
                    self._restore_pass(state, interconnect, vaults, pngs,
                                       pes, injector, outputs)
                    cycles = state["cycles"]
                    last_progress = state["last_progress"]
                    progress_mark = state["progress_mark"]
                    if tracer is not None:
                        tracer.sim_checkpoint(cycles, "resume", pass_label)
        refresh_horizon()
        op_mark = pe_mark[0]
        while True:
            if all(png.done for png in pngs) and all(pe.done for pe in pes):
                break
            if scheduler is not None:
                delta = scheduler.next_event_delta()
                if delta is None:
                    # No agent will ever act again: a genuine deadlock.
                    # Jump straight to the stall/ceiling boundary — the
                    # skipped cycles are provably event-free, so the
                    # detector fires on the same cycle with the same
                    # per-agent state as cycle-by-cycle stepping.
                    jump = min(last_progress + stall_limit - cycles,
                               max_cycles - cycles)
                elif delta > 1:
                    # Stop one cycle short of the earliest event and
                    # never overshoot the stall/ceiling checks, so error
                    # timing is identical to cycle-by-cycle stepping.
                    jump = min(delta - 1,
                               last_progress + stall_limit - cycles,
                               max_cycles - cycles)
                else:
                    jump = 0
                if jump > 0 and every:
                    # Never jump across a checkpoint boundary: land one
                    # cycle short so the boundary cycle is *stepped* and
                    # saved exactly like lock-step would.  Skip-ahead is
                    # bit-identical to stepping, so the clamp only adds
                    # stepped cycles, never changes results.
                    jump = min(jump,
                               (cycles // every + 1) * every - cycles - 1)
                if jump > 0 and tracer is not None:
                    # Same convention for counter samples: land one
                    # cycle short of the next sample boundary so the
                    # sample is taken on a stepped cycle — positions and
                    # delta spans match lock-step sampling exactly.
                    limit = tracer.sample_jump_limit(cycles)
                    if limit is not None:
                        jump = min(jump, limit)
                if jump > 0:
                    if tracer is not None:
                        tracer.skip_ahead(cycles, jump)
                    scheduler.skip(jump)
                    cycles += jump
            for png in pngs:
                png.step()
            interconnect.step()
            for pe in pes:
                pe.step()
            refresh_horizon()
            cycles += 1
            if tracer is not None:
                tracer.on_cycle(cycles)
            done_now = len(outputs)
            if done_now != progress_mark or pe_mark[0] != op_mark:
                advanced = pe_mark[0] != op_mark
                progress_mark = done_now
                op_mark = pe_mark[0]
                last_progress = cycles
                if advanced and forward is not None:
                    # A jump lands on the cycle that repeats this one:
                    # an OP-counter advances there too.
                    jump = forward.observe(cycles, max_cycles)
                    if jump:
                        cycles += jump
                        refresh_horizon()
                        op_mark = pe_mark[0]
                        last_progress = cycles
            if store is not None and every and cycles % every == 0:
                store.save(pass_label, cycles, self._pass_state(
                    cycles, last_progress, progress_mark, interconnect,
                    vaults, pngs, pes, injector, outputs))
                if tracer is not None:
                    tracer.sim_checkpoint(cycles, "save", pass_label)
            if cycles - last_progress > stall_limit or cycles > max_cycles:
                raise SimulationError(
                    f"pass stalled: {done_now}/{plan.total_neurons} "
                    f"neurons after {cycles} cycles "
                    f"(occupancy {interconnect.occupancy})\n"
                    + self._stall_detail(interconnect, pngs, vaults, pes))
        pe_stats = [pe.stats for pe in pes]
        png_stats = [png.stats for png in pngs]
        forwarded = forward.forwarded if forward is not None else 0
        if classes is not None:
            pe_stats, png_stats = unfold(plan, classes, pe_stats,
                                         png_stats, outputs, config.qformat,
                                         forwarded=bool(forwarded))
        return PassResult(cycles=cycles, outputs=outputs,
                          noc=interconnect.stats,
                          pe_stats=pe_stats, png_stats=png_stats,
                          trace=(tracer.finish(cycles)
                                 if tracer is not None else None),
                          fault_stats=(injector.stats
                                       if injector is not None else None),
                          degraded=(tuple(injector.degraded)
                                    if injector is not None else ()),
                          forwarded=forwarded)

    @staticmethod
    def _pass_state(cycles: int, last_progress: int, progress_mark: int,
                    interconnect, vaults, pngs, pes, injector,
                    outputs: dict) -> dict:
        """Assemble one pass's picklable checkpoint snapshot."""
        return {
            "cycles": cycles,
            "last_progress": last_progress,
            "progress_mark": progress_mark,
            "interconnect": interconnect.state_dict(),
            "vaults": [vault.state_dict() for vault in vaults],
            "pngs": [png.state_dict() for png in pngs],
            "pes": [pe.state_dict() for pe in pes],
            "injector": (injector.state_dict()
                         if injector is not None else None),
            "outputs": dict(outputs),
        }

    @staticmethod
    def _restore_pass(state: dict, interconnect, vaults, pngs, pes,
                      injector, outputs: dict) -> None:
        """Restore a snapshot onto freshly built (programmed) agents.

        Mutable state captured by closures — the shared ``outputs``
        dict, each vault's data array — is restored *in place* so the
        live object graph matches the uninterrupted run's at this cycle.
        """
        interconnect.load_state(state["interconnect"])
        for vault, payload in zip(vaults, state["vaults"], strict=True):
            vault.load_state(payload)
        for png, payload in zip(pngs, state["pngs"], strict=True):
            png.load_state(payload)
        for pe, payload in zip(pes, state["pes"], strict=True):
            pe.load_state(payload)
        if injector is not None and state["injector"] is not None:
            injector.load_state(state["injector"])
        outputs.clear()
        outputs.update(state["outputs"])

    @staticmethod
    def _stall_detail(interconnect: Interconnect, pngs, vaults,
                      pes) -> str:
        """Per-agent diagnostic block appended to stall errors.

        Gives CI logs enough to localise a wedged pass without a
        debugger: which PEs stopped advancing their OP-counters (and how
        long each has been waiting against its watchdog), which PNGs are
        blocked on backpressure, the horizon, or missing write-backs,
        and — under fault injection — any pending link retry/backoff
        state or recorded permanent packet losses.
        """
        lines = [f"  noc: injected={interconnect.stats.injected} "
                 f"delivered={interconnect.stats.delivered} "
                 f"rejected={interconnect.stats.rejected_injections}"]
        for pe in pes:
            cache = sum(len(bank) for bank in pe._cache)
            lines.append(
                f"  PE {pe.pe_id}: op={pe.op_counter} "
                f"group={pe._group_idx}/{len(pe._groups)} "
                f"busy={pe._busy} macs={pe.stats.macs_fired} "
                f"idle={pe.stats.idle_cycles} "
                f"writebacks_queued={len(pe._writebacks)} "
                f"cached={cache} done={pe.done} "
                f"waiting={pe._waiting_cycles}")
        for png, vault in zip(pngs, vaults, strict=True):
            held = png._held.op_id if png._held is not None else None
            lines.append(
                f"  PNG @node {png.node}: "
                f"injected={png.stats.packets_injected} "
                f"inject_stalls={png.stats.inject_stall_cycles} "
                f"ready={len(png._ready)} vault_pending={vault.pending} "
                f"held_op={held} "
                f"exhausted={png._emissions_exhausted} "
                f"awaiting_writebacks={png._expected_writebacks}")
        retry = interconnect.retry_diagnostics()
        if retry:
            lines.append("  pending retry/timeout state:")
            lines.extend("    " + line for line in retry)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # descriptor-level runs
    # ------------------------------------------------------------------

    def run_descriptor(self, desc: LayerDescriptor, layer=None,
                       input_tensor: np.ndarray | None = None,
                       ctx: RunContext | None = None) -> LayerRun:
        """Simulate all passes of one descriptor.

        Conv output maps and pool maps are independent; they are built
        into :class:`MapTask` units and dispatched through the pass
        executor — in-process when ``config.effective_sim_workers`` is 1,
        over a process pool otherwise.  Outcomes are folded in task
        order, so the parallel path is bit-identical to the serial one.
        The finished run is recorded in the context's run log without
        its output.

        Args:
            desc: the compiled descriptor (forward phase).
            layer: the source ``repro.nn`` layer (for weights/biases and
                the activation); None runs timing-only.
            input_tensor: the layer input, unbatched; None -> timing-only.
            ctx: an already-resolved context, used as is; None resolves
                this simulator's hooks against the ambient context.
        """
        if ctx is None:
            ctx = self._resolve()
        with ctx.phase("simulate"):
            return self._run_descriptor(desc, layer, input_tensor, ctx)

    def _run_descriptor(self, desc: LayerDescriptor, layer,
                        input_tensor: np.ndarray | None,
                        ctx: RunContext) -> LayerRun:
        # Host wall-clock only (LayerRun.host_seconds); never feeds any
        # simulated result.  nclint: allow(NC101) host-side timing
        started = time.perf_counter()
        functional = layer is not None and input_tensor is not None
        # Degraded mode: with nonzero fault rates some neurons may never
        # write back (exhausted retries on their write-back path);
        # assemble_output zero-fills them instead of raising, and the
        # losses show up as DegradedResult records on the run.
        degraded_ok = ctx.faults is not None and ctx.faults.any_rate
        lut = None
        if layer is not None:
            act = layer.activation
            lut = act if isinstance(act, ActivationLUT) else ActivationLUT(act)
        memo = ctx.memo
        if memo is not None:
            # Bill the store's disk I/O to the memo_io phase.
            # Parent-side only: the executor calls load/store in this
            # process, the store object is never shipped to workers.
            memo.timer = ctx.phase_factory("memo_io")
        memo_before = memo.stats.copy() if memo is not None else None
        if desc.kind == "fc":
            plan = self._fc_plan(desc, layer, input_tensor, lut)
            result = self.run_pass(plan, ctx=ctx, fault_salt=0,
                                   pass_label=f"{_label(desc)}.fc")
            passes = [result]
            output = (self.assemble_output(desc, plan, result.outputs,
                                           missing_ok=degraded_ok)
                      if functional else None)
        else:
            if desc.kind == "pool":
                tasks = self._pool_tasks(desc, layer, input_tensor)
            else:
                tasks = self._conv_tasks(desc, layer, input_tensor)
            outcomes = self._run_tasks(desc, lut, functional, tasks, ctx)
            passes = [result for outcome in outcomes
                      for result in outcome.passes]
            output = (np.stack([o.output for o in outcomes], axis=0)
                      if functional else None)
        # Passes fold in serial order, so serial and parallel runs give
        # identical statistics.  Per-pass traces carry local clocks
        # starting at 0; each is offset by the cycles of the passes
        # before it, so both merge to identical run-global traces.
        cycles = 0
        trace_parts: list[tuple[int, Trace]] = []
        fault_stats: FaultStats | None = None
        for result in passes:
            if result.trace is not None:
                trace_parts.append((cycles, result.trace))
            cycles += result.cycles
            if result.fault_stats is not None:
                if fault_stats is None:
                    fault_stats = FaultStats()
                fault_stats.merge(result.fault_stats)
        pe_stats = [stats for result in passes for stats in result.pe_stats]
        packets = sum(result.noc.delivered for result in passes)
        run = LayerRun(
            descriptor=desc, cycles=cycles, output=output, packets=packets,
            lateral_fraction=(sum(result.noc.lateral for result in passes)
                              / packets if packets else 0.0),
            mean_packet_latency=(sum(result.noc.total_latency
                                     for result in passes)
                                 / packets if packets else 0.0),
            macs_fired=sum(stats.macs_fired for stats in pe_stats),
            pe_busy_cycles=sum(stats.busy_cycles for stats in pe_stats),
            pe_idle_cycles=sum(stats.idle_cycles for stats in pe_stats),
            search_stall_cycles=sum(stats.search_stall_cycles
                                    for stats in pe_stats),
            cache_peak=max((stats.cache_peak for stats in pe_stats),
                           default=0),
            inject_stall_cycles=sum(stats.inject_stall_cycles
                                    for result in passes
                                    for stats in result.png_stats),
            # nclint: allow(NC101) host-side timing
            host_seconds=time.perf_counter() - started,
            trace=(Trace.merged(trace_parts) if trace_parts else None),
            fault_stats=fault_stats,
            degraded=tuple(record for result in passes
                           for record in result.degraded),
            memo_stats=(memo.stats.delta(memo_before)
                        if memo is not None else None),
            config=self.config)
        if run.trace is not None:
            # Self-describing traces: exported files carry the run's
            # memo/fault/degradation counters without their manifest.
            meta: dict = {"layer": desc.name, "kind": desc.kind}
            if run.memo_stats is not None and run.memo_stats.any:
                meta["memo"] = run.memo_stats.as_dict()
            if run.fault_stats is not None:
                meta["faults"] = {
                    name: value for name, value
                    in vars(run.fault_stats).items() if value}
            if run.degraded:
                meta["degraded_results"] = len(run.degraded)
            run.trace.meta.update(meta)
        ctx.runs.append(dataclasses.replace(run, output=None))
        return run

    def _run_tasks(self, desc: LayerDescriptor, lut, functional: bool,
                   tasks: list[MapTask],
                   ctx: RunContext) -> list[MapOutcome]:
        executor = ParallelPassExecutor(self.config.effective_sim_workers)
        # Memoization shares simulated passes between tasks: it replays
        # one representative outcome per structural equivalence class
        # (in timing-only runs, every map of a layer), and runs the maps
        # of a conv or pooling layer, which run one program on their
        # own data, on the first map's passes when they fold.
        # Traced runs must emit every pass's events, so they disable
        # it — as do nonzero fault rates, where the passes of different
        # maps carry different fault salts and therefore see different
        # fault patterns.
        memoize = (self.config.sim_memoize and ctx.trace is None
                   and (ctx.faults is None or not ctx.faults.any_rate))
        # The persistent store only ever serves timing-only memoizable
        # runs (functional outcomes carry per-input outputs, which the
        # store does not key), never checkpointed ones (a replayed
        # pass writes no snapshots, so a checkpointed run must actually
        # simulate to keep its resume contract), and never faulted
        # ones: a rate-0 injector attaches zeroed fault counters to its
        # passes, which the store's key does not cover either.
        if ctx.memo is not None and (not memoize or functional
                                     or ctx.checkpoint is not None
                                     or ctx.faults is not None):
            ctx = dataclasses.replace(ctx, memo=None)
        return executor.run(self.config, desc, lut, functional, tasks,
                            ctx=ctx, memoize=memoize,
                            label_base=_label(desc))

    def _pool_tasks(self, desc, layer, input_tensor) -> list[MapTask]:
        """One task per pooled map; every map is a single final pass."""
        mode = "max" if isinstance(layer, MaxPool2D) else "mac"
        tasks = []
        for pass_index in range(desc.passes):
            per_map = (input_tensor[pass_index:pass_index + 1]
                       if input_tensor is not None else None)
            spec = SubPassSpec(kernel=None, input_tensor=per_map,
                               bias=0.0, final=True)
            tasks.append(MapTask(index=pass_index, mode=mode,
                                 sub_passes=(spec,)))
        return tasks

    def _conv_tasks(self, desc, layer, input_tensor) -> list[MapTask]:
        """One task per output map, carrying its sub-pass chain.

        Sub-passes carry per-neuron partial sums: sub-pass 0 preloads the
        layer bias, later sub-passes preload the stored partials (inside
        the worker), and only the final sub-pass goes through the
        activation LUT.
        """
        out_maps = desc.passes // desc.sub_passes
        tasks = []
        for out_map in range(out_maps):
            specs = []
            for j in range(desc.sub_passes):
                kernel = None
                bias = 0.0
                block_input = input_tensor
                if layer is not None and layer.params:
                    in_maps = layer.input_shape[0]
                    block = in_maps // desc.sub_passes
                    lo, hi = j * block, (j + 1) * block
                    kernel = layer.params["weight"][out_map, lo:hi]
                    if input_tensor is not None:
                        block_input = input_tensor[lo:hi]
                    if j == 0:
                        bias = float(layer.params["bias"][out_map])
                specs.append(SubPassSpec(
                    kernel=kernel, input_tensor=block_input, bias=bias,
                    final=(j == desc.sub_passes - 1)))
            tasks.append(MapTask(index=out_map, mode="mac",
                                 sub_passes=tuple(specs)))
        return tasks

    def _fc_plan(self, desc, layer, input_tensor, lut):
        weights = biases = None
        if layer is not None and layer.params:
            weights = layer.params["weight"]
            biases = layer.params["bias"]
        vector = (np.asarray(input_tensor).ravel()
                  if input_tensor is not None else None)
        return build_fc_pass(desc, self.config, vector, weights, biases,
                             lut)

    def assemble_output(self, desc, plan: PassPlan, outputs: dict,
                        missing_ok: bool = False) -> np.ndarray:
        """Collect write-backs into a flat/2D output array (real values).

        With ``missing_ok`` (degraded fault-injection runs) neurons that
        never wrote back stay zero instead of raising — their loss is
        already recorded as a :class:`repro.faults.DegradedResult`.
        """
        missing = plan.total_neurons - len(outputs)
        if missing and not missing_ok:
            raise SimulationError(
                f"{desc.name}: {missing} neurons never wrote back")
        flat = np.zeros(plan.total_neurons, dtype=np.int64)
        for (_, index), raw in outputs.items():
            flat[index] = raw
        values = to_float(flat, self.config.qformat)
        if desc.kind == "fc":
            return values
        if desc.kind == "pool":
            out_h, out_w = (desc.in_height // desc.kernel,
                            desc.in_width // desc.kernel)
        else:
            out_h = desc.in_height - desc.kernel + 1
            out_w = desc.in_width - desc.kernel + 1
        return values.reshape(out_h, out_w)

    # ------------------------------------------------------------------
    # whole-network runs (small networks only)
    # ------------------------------------------------------------------

    def run_network(self, network: Network, x: np.ndarray,
                    duplicate: bool = True,
                    cubes: int = 1,
                    validate: bool | None = None) -> tuple[np.ndarray,
                                                           RunReport]:
        """Simulate a full network on one input sample, layer by layer.

        ``x`` is quantised on entry; each layer's simulated output feeds
        the next, with ``Flatten`` applied as a host-side reshape.  Only
        practical for small networks — use the analytic model for
        paper-scale ones.  With ``cubes > 1`` the network is sharded
        across a multi-cube cluster (:mod:`repro.core.shard`) and the
        returned report is the cluster-level fold; the full
        :class:`~repro.core.shard.ShardRunReport` is available through
        :class:`~repro.core.shard.ShardedSimulator` directly.
        ``validate`` statically verifies the compiled program (on every
        cube count); None follows the run context's ``validate``.
        Functional runs need one descriptor per layer: a layer that
        lowers to several (an LSTM) raises
        :class:`~repro.errors.MappingError` — run its descriptors
        timing-only with :meth:`run_descriptor` or :meth:`run_stream`.
        """
        from repro.fixedpoint import quantize_float

        if cubes > 1:
            from repro.core.multicube import MultiCubeConfig
            from repro.core.shard import ShardedSimulator

            # This simulator's own hooks become the ambient context of
            # the sharded run.
            sharded = ShardedSimulator(
                MultiCubeConfig(cube=self.config, n_cubes=cubes))
            with self._resolve():
                output, shard_report = sharded.run_network(
                    network, x, duplicate, validate=validate)
            return output, shard_report.report

        ctx = self._resolve()
        with ctx.phase("compile"):
            program = compile_inference(network, self.config, duplicate,
                                        validate=validate)
        descriptors: dict[int, LayerDescriptor] = {}
        for desc in program.descriptors:
            if desc.layer_index in descriptors:
                raise MappingError(
                    f"{network.name!r}: layer "
                    f"{network.layers[desc.layer_index].name!r} lowers "
                    f"to multiple descriptors; functional execution "
                    f"needs one descriptor per layer — run them "
                    f"timing-only with run_descriptor or run_stream")
            descriptors[desc.layer_index] = desc
        current = quantize_float(np.asarray(x, dtype=np.float64),
                                 self.config.qformat)
        report = RunReport(network_name=network.name,
                           f_clk_hz=self.config.f_pe_hz,
                           peak_gops=self.config.peak_gops, source="cycle")
        for index, layer in enumerate(network.layers):
            if isinstance(layer, Flatten):
                current = current.reshape(-1)
                continue
            desc = descriptors.get(index)
            if desc is None:
                raise MappingError(
                    f"layer {layer.name!r} missing from program")
            run = self.run_descriptor(desc, layer, current, ctx=ctx)
            report.add(run)
            current = run.output
        if ctx.trace is not None:
            # Traced runs get the post-run bottleneck verdicts; the
            # bare path skips the analysis entirely (results are
            # identical either way, attribution only *reads* the
            # report).  Imported here: repro.obs.attribution builds on
            # repro.core.analytic.
            from repro.obs.attribution import attribute_layers

            report.attribution = attribute_layers(
                report.layers, program.descriptors, self.config)
        return current, report

    def run_stream(self, network: Network, frames,
                   duplicate: bool = True) -> StreamReport:
        """Simulate a stream of frames: timing once, data per frame.

        The *cold* phase compiles the network and cycle-simulates every
        compiled descriptor timing-only, in program order (a layer that
        lowers to several, like an LSTM's four gates and cell update,
        runs all of them) — memoized, and persisted when a memo
        store is resolved, so a later stream over the same shapes
        replays timing from disk.  The *warm* phase then pushes the
        frames through the functional fixed-point path only, which is
        bit-exact against the simulator's assembled outputs (pinned by
        the integration equivalence tests) — so every streamed frame
        gets real outputs plus the cold phase's exact cycle counts,
        without re-simulating data-independent timing per frame.

        The warm phase goes in chunks of :func:`stream_chunk` frames
        (:data:`STREAM_CHUNK_BYTES` of input): each chunk is stacked,
        quantised and passed through ``network.forward`` once, and its
        rows are written into one preallocated output block.  The
        report's ``outputs`` is that ``(frames, *output_shape)`` block
        itself: indexing, ``len``, iteration and ``zip`` give one
        frame's output per row, and no per-frame view objects are kept.

        Batching changes no value in the Q1.7.8 domain: every product
        of two Q1.7.8 values is a multiple of 2**-16 below 2**14 in
        magnitude, so a float64 sum of up to 2**23 such terms is exact
        in any order, and a chunk's matmuls give each frame the very
        sums it would get alone.  A layer whose state is not quantised
        between steps (the LSTM's recurrent state) is outside that
        domain: its outputs may differ from frame-by-frame ones in the
        last bit (measured on ``small_lstm``, 52 frames: at most
        2.2e-16).

        Bit-exactness holds when weighted layers carry a quantisation
        format and :class:`~repro.nn.activations.ActivationLUT`-wrapped
        activations — the LUT is what the simulated hardware applies,
        and a raw float activation differs from it by up to one LSB.

        Raises:
            ConfigurationError: no frames, or a frame whose shape is
                not ``network.input_shape`` (checked before the cold
                phase; the first bad frame is named).
        """
        from repro.fixedpoint import quantize_float

        frames = [np.asarray(frame, dtype=np.float64) for frame in frames]
        if not frames:
            raise ConfigurationError("run_stream needs at least one frame")
        for index, frame in enumerate(frames):
            if frame.shape != network.input_shape:
                raise ConfigurationError(
                    f"frame {index} has shape {frame.shape}, but "
                    f"{network.name!r} takes {network.input_shape}")
        # Host wall-clock phase split only; never feeds any simulated
        # result.  nclint: allow(NC101) host-side timing
        started = time.perf_counter()
        ctx = self._resolve()
        with ctx.phase("compile"):
            program = compile_inference(network, self.config, duplicate)
        cold = RunReport(network_name=network.name,
                         f_clk_hz=self.config.f_pe_hz,
                         peak_gops=self.config.peak_gops, source="cycle")
        for desc in program.descriptors:
            cold.add(self.run_descriptor(desc, ctx=ctx))
        # nclint: allow(NC101) host-side timing
        cold_done = time.perf_counter()
        chunk = stream_chunk(network.input_shape)
        block = np.empty((len(frames), *network.output_shape))
        for start in range(0, len(frames), chunk):
            stop = start + chunk
            stacked = quantize_float(np.stack(frames[start:stop]),
                                     self.config.qformat)
            block[start:stop] = network.forward(stacked)
        # nclint: allow(NC101) host-side timing
        warm_done = time.perf_counter()
        return StreamReport(
            network_name=network.name, f_clk_hz=self.config.f_pe_hz,
            frames=len(frames), cold=cold,
            cold_host_seconds=cold_done - started,
            warm_host_seconds=warm_done - cold_done,
            memo=cold.memo, outputs=block,
            outputs_sha256=hashlib.sha256(block.tobytes()).hexdigest())
