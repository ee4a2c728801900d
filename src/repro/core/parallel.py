"""Parallel pass execution for the cycle simulator.

The paper's evaluation (§VI) and the design-space examples need hundreds
of independent cycle-simulated passes: every output map of a convolution
and every map of a pooling layer runs the same PNG program on disjoint
data, with no architectural state shared between passes (each pass
rebuilds vaults, NoC and PEs from scratch).  This module fans those
passes out over a process pool.

Work units are :class:`MapTask` objects — one per output map, carrying
the full sub-pass chain of a blocked convolution, because sub-passes are
sequentially dependent (each preloads the previous partial sums) and
must stay serial *within* a worker.  Workers run *batches* of tasks
(:func:`run_map_batch`) and return one :class:`MapOutcome` per task,
whose per-pass statistics snapshots the caller folds in task order, so
a parallel run produces bit-identical outputs, cycle counts and
statistics to a serial one.

The worker count comes from ``NeurocubeConfig.effective_sim_workers``
(the ``sim_workers`` field, overridable with ``NEUROCUBE_SIM_WORKERS``).

On request (``NeurocubeConfig.sim_memoize``) the executor shares passes
between tasks whose passes provably coincide, in two steps:

* tasks with equal :func:`structural_key` simulate identically, so one
  representative per class is simulated and its outcome replayed,
  re-indexed, for the others — in timing-only mode every map of a
  layer carries the same tensor-free chain and collapses into one;
* representatives with equal :func:`stream_key` — the output maps of a
  conv layer, which stream the same input and differ only in the
  kernel and bias resident in the PEs — run as one batch: one
  simulated pass per sub-pass, with one accumulator per map in every
  MAC lane.  Its pass outcome is replayed for each map, and each map's
  output is assembled from its own write-back values;
* the maps of a pooling layer with equal :func:`shape_key` run the
  same PNG program on their own data, so they too run as one batch:
  only the first map's pass is simulated and replayed for each map,
  and every other map's write-backs are evaluated from its own vault
  image (:func:`repro.core.fold.evaluate`), when the maps' passes
  fold into equal node-slice classes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro.core.config import NeurocubeConfig
from repro.core.context import RunContext
from repro.core.layerdesc import LayerDescriptor
from repro.faults.rng import pass_salt
from repro.nn.activations import ActivationLUT


@dataclass(frozen=True)
class SubPassSpec:
    """One sub-pass of a (possibly input-map-blocked) pass chain.

    Attributes:
        kernel: this sub-pass's kernel block (None for pooling or
            timing-only runs).
        input_tensor: the input-map block this sub-pass streams.
        bias: accumulator preload for the first sub-pass of the chain;
            later sub-passes preload the previous sub-pass's partials
            instead.
        final: True on the last sub-pass — the only one that goes
            through the activation LUT.
    """

    kernel: np.ndarray | None
    input_tensor: np.ndarray | None
    bias: float
    final: bool


@dataclass(frozen=True)
class MapTask:
    """One independent unit of pass work: a full output map.

    Attributes:
        index: output-map (or pool-map) index; results are folded in
            this order.
        mode: "mac" or "max" (max pooling).
        sub_passes: the sequentially-dependent sub-pass chain.
    """

    index: int
    mode: str
    sub_passes: tuple[SubPassSpec, ...]


@dataclass(frozen=True)
class PassOutcome:
    """Picklable reduction of one pass's results.

    ``PassResult`` itself holds the live :class:`Interconnect` (whose
    routing closures cannot cross a process boundary), so workers ship
    this snapshot instead.

    Attributes:
        cycles: reference cycles to layer-done.
        delivered: NoC packets delivered.
        lateral: delivered packets that crossed at least one link.
        total_latency: summed inject-to-eject latency.
        pe_stats: per-PE statistics (``PEStats``).
        png_stats: per-PNG statistics (``PNGStats``).
        trace: the pass's :class:`repro.obs.Trace` (local clock starting
            at 0) when tracing was enabled, else None.  The parent
            offsets it into the run-global clock while folding, so
            parallel and serial runs merge to identical traces.
        fault_stats: the pass's :class:`repro.faults.FaultStats` when a
            fault injector was active, else None.
        degraded: the pass's :class:`repro.faults.DegradedResult`
            records (both are plain picklable dataclasses).
    """

    cycles: int
    delivered: int
    lateral: int
    total_latency: int
    pe_stats: tuple
    png_stats: tuple
    trace: object | None = None
    fault_stats: object | None = None
    degraded: tuple = ()


@dataclass(frozen=True)
class MapOutcome:
    """What one worker returns for one :class:`MapTask`.

    Attributes:
        index: the task's map index.
        passes: per-sub-pass outcomes, in execution order.
        output: the map's assembled output (functional mode) or None.
    """

    index: int
    passes: tuple[PassOutcome, ...]
    output: np.ndarray | None


def _tensor_key(tensor) -> tuple | None:
    """Hashable identity of an array: shape, dtype and raw bytes."""
    if tensor is None:
        return None
    arr = np.asarray(tensor)
    return (arr.shape, arr.dtype.str, arr.tobytes())


def structural_key(task: MapTask) -> tuple:
    """Hashable key under which two tasks simulate identically.

    The simulation of a :class:`MapTask` is a deterministic function of
    its mode and its sub-pass specs (every other input — descriptor,
    configuration, LUT — is constant across one descriptor's task list),
    so two tasks with equal keys produce equal cycle counts, statistics
    and outputs, differing only in :attr:`MapTask.index`.  Tensor
    contents are part of the key (by raw bytes, not object identity), so
    memoization stays exact even when per-map kernels are loaded; in
    timing-only mode the tensors are None and every map of a layer
    collapses into one equivalence class.
    """
    return (task.mode, tuple(
        (_tensor_key(spec.kernel), _tensor_key(spec.input_tensor),
         float(spec.bias), bool(spec.final))
        for spec in task.sub_passes))


def stream_key(task: MapTask) -> tuple:
    """Hashable key under which two tasks stream identical data.

    Mode, per-sub-pass input tensors (by raw bytes) and final flags:
    everything but the kernels and biases.  With weights resident in
    the PEs these never move a packet, so tasks with equal keys run
    the same PNG, vault, NoC and PE timing and can share their passes
    (:func:`run_map_batch`).
    """
    return (task.mode, tuple(
        (_tensor_key(spec.input_tensor), bool(spec.final))
        for spec in task.sub_passes))


def shape_key(task: MapTask) -> tuple:
    """Hashable key under which two tasks run the same PNG program:
    mode, per-sub-pass input shapes and final flags.  Pooling maps
    with equal keys differ only in the data they read."""
    return (task.mode, tuple(
        (np.shape(spec.input_tensor), bool(spec.final))
        for spec in task.sub_passes))


def task_plan_hashes(config: NeurocubeConfig, desc: LayerDescriptor,
                     lut: ActivationLUT | None,
                     task: MapTask) -> tuple[str, ...]:
    """Structural hashes of the plans this task would simulate.

    Builds the same per-sub-pass plans :func:`run_map_batch` builds in
    timing-only mode (where partial sums never replace the spec bias)
    and returns their
    :meth:`~repro.core.scheduler.PassPlan.structural_hash` digests.
    The persistent memo store records these on store and compares them
    on load (the key⇒hash invariant NC207 states), so a cached outcome
    is only ever replayed for a task whose plans hash identically to
    the ones it was simulated from.
    """
    # Imported here, not at module top: the scheduler imports nothing
    # from this module, but keeping the executor import-light lets the
    # memo store depend on the task/outcome types without cycles.
    from repro.core.scheduler import build_conv_pass

    hashes = []
    for spec in task.sub_passes:
        plan = build_conv_pass(desc, config, spec.input_tensor,
                               spec.kernel, spec.bias,
                               lut if spec.final else None, mode=task.mode)
        hashes.append(plan.structural_hash())
    return tuple(hashes)


def snapshot_pass(result) -> PassOutcome:
    """Reduce a ``PassResult`` to its picklable statistics snapshot."""
    stats = result.interconnect.stats
    return PassOutcome(
        cycles=result.cycles, delivered=stats.delivered,
        lateral=stats.lateral, total_latency=stats.total_latency,
        pe_stats=tuple(result.pe_stats),
        png_stats=tuple(result.png_stats),
        trace=result.trace,
        fault_stats=result.fault_stats,
        degraded=result.degraded)


def run_map_batch(config: NeurocubeConfig, desc: LayerDescriptor,
                  lut: ActivationLUT | None, functional: bool,
                  batch: tuple[MapTask, ...], ctx: RunContext,
                  label_base: str = "") -> list[MapOutcome]:
    """Run the sub-pass chains of a batch of maps (worker entry point).

    The tasks of a batch share one simulated pass per sub-pass: their
    equal :func:`stream_key` means the input streams identically, and
    each MAC lane holds one accumulator per map, reset to that map's
    bias (later sub-passes: its partial sums) and accumulated with that
    map's resident kernel.  A batch of one is a map's own pass chain.
    Sub-passes run serially: only the final one goes through the
    activation LUT — exactly the serial simulator's schedule, so every
    map's outputs and statistics match its own simulation bit for bit.
    Returns one :class:`MapOutcome` per task, all carrying the shared
    pass outcomes.

    ``ctx`` carries the run's hooks into every sub-pass.  Each traced
    pass's trace rides back on its :class:`PassOutcome` with a local
    clock the parent offsets into the run-global one.  Both the fault
    salt and the checkpoint label derive from the lead task's *logical*
    identity — ``(label_base, task.index, sub-pass)`` — never from
    worker identity, so serial, parallel and resumed runs inject
    identical faults and share one checkpoint namespace.  (Traced,
    faulty and checkpointed runs never batch several maps, so there
    the lead is the only task.)

    A batch of pooling maps shares the lead's pass when every map's
    plan folds into the lead's node-slice classes: each map gets the
    lead's pass outcome and its own write-backs, evaluated from its own
    vault image (:func:`repro.core.fold.evaluate`).  Otherwise each map
    runs as a batch of its own.
    """
    # Imported here, not at module top: the simulator imports this
    # module for the task/outcome types.
    from repro.core.scheduler import build_conv_pass
    from repro.core.simulator import NeurocubeSimulator

    simulator = NeurocubeSimulator(config)
    if desc.kind == "pool" and len(batch) > 1:
        return (_share_pool_pass(simulator, desc, lut, functional, batch,
                                 ctx, label_base)
                or [outcome for task in batch
                    for outcome in run_map_batch(
                        config, desc, lut, functional, (task,), ctx,
                        label_base)])
    degraded_ok = ctx.faults is not None and ctx.faults.any_rate
    lead = batch[0]
    # One row per map: the maps' partial sums, then their outputs.
    partial_sums: np.ndarray | None = None
    passes = []
    for j, specs in enumerate(zip(*(task.sub_passes for task in batch),
                                  strict=True)):
        biases = ([spec.bias for spec in specs] if partial_sums is None
                  else [row.ravel() for row in partial_sums])
        plan = build_conv_pass(desc, config, specs[0].input_tensor,
                               [spec.kernel for spec in specs], biases,
                               lut if specs[0].final else None,
                               mode=lead.mode)
        result = simulator.run_pass(
            plan, ctx=ctx, fault_salt=pass_salt(lead.index, j),
            pass_label=f"{label_base}.m{lead.index}.s{j}")
        passes.append(snapshot_pass(result))
        if functional:
            values = simulator.assemble_output(
                desc, plan, result.outputs, missing_ok=degraded_ok)
            partial_sums = values if plan.maps > 1 else values[np.newaxis]
    shared = tuple(passes)
    return [MapOutcome(index=task.index, passes=shared,
                       output=(partial_sums[m] if partial_sums is not None
                               else None))
            for m, task in enumerate(batch)]


def _share_pool_pass(simulator, desc: LayerDescriptor,
                     lut: ActivationLUT | None, functional: bool,
                     batch: tuple[MapTask, ...], ctx: RunContext,
                     label_base: str) -> list[MapOutcome] | None:
    """Run a batch of pooling maps on the lead map's simulated pass;
    None when some map's plan does not fold into the lead's node-slice
    classes."""
    from repro.core.fold import evaluate
    from repro.core.scheduler import build_conv_pass

    config = simulator.config
    plans = []
    for task in batch:
        spec, = task.sub_passes
        plans.append(build_conv_pass(desc, config, spec.input_tensor,
                                     spec.kernel, spec.bias,
                                     lut if spec.final else None,
                                     mode=task.mode))
    classes = plans[0].slice_classes(config)
    if classes is None or any(plan.slice_classes(config) != classes
                              for plan in plans[1:]):
        return None
    lead = batch[0]
    result = simulator.run_pass(plans[0], ctx=ctx,
                                fault_salt=pass_salt(lead.index, 0),
                                pass_label=f"{label_base}.m{lead.index}.s0")
    passes = (snapshot_pass(result),)
    outcomes = []
    for position, (task, plan) in enumerate(zip(batch, plans,
                                                strict=True)):
        output = None
        if functional:
            values = (result.outputs if position == 0
                      else evaluate(plan, classes, config.qformat))
            output = simulator.assemble_output(desc, plan, values)
        outcomes.append(MapOutcome(index=task.index, passes=passes,
                                   output=output))
    return outcomes


def share_batches(desc: LayerDescriptor,
                  tasks: list[MapTask]) -> list[list[int]]:
    """Group task positions into batches that can share their passes.

    Conv tasks share when their :func:`stream_key` values are equal and
    their weights stay in the PEs (``desc.weights_resident``): streamed
    weights would differ per map.  Pooling tasks (max and average)
    share when their :func:`shape_key` values are equal: they run one
    program on different data (:func:`run_map_batch`).  Batches come
    in order of their first task.
    """
    batches: dict[object, list[int]] = {}
    for position, task in enumerate(tasks):
        if desc.kind == "pool":
            key = shape_key(task)
        elif task.mode == "mac" and desc.weights_resident:
            key = stream_key(task)
        else:
            key = position
        batches.setdefault(key, []).append(position)
    return list(batches.values())


class ParallelPassExecutor:
    """Dispatches :class:`MapTask` lists over a process pool.

    With ``workers <= 1`` (or a single batch) everything runs in-process
    through the identical :func:`run_map_batch` code path, which is what
    makes serial-vs-parallel equivalence structural rather than
    accidental.  Results always come back in task order.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)

    def run(self, config: NeurocubeConfig, desc: LayerDescriptor,
            lut: ActivationLUT | None, functional: bool,
            tasks: list[MapTask], ctx: RunContext | None = None,
            memoize: bool = False,
            label_base: str = "") -> list[MapOutcome]:
        """Run all tasks; returns outcomes ordered like ``tasks``.

        Without ``memoize`` every task is simulated on its own: a batch
        of one.  With it, tasks are grouped by :func:`structural_key`,
        one representative per equivalence class is simulated, and its
        outcome is replayed — re-indexed — for every duplicate.  The
        representatives are then grouped by :func:`share_batches`, and
        each batch shares one simulated pass per sub-pass; its pass
        outcomes are replayed for every map of the batch.  The caller
        must only enable this when outcomes are a pure function of the
        tasks: untraced runs (a replayed trace would duplicate events on
        the merged clock) at zero fault rates (the fault salt differs
        per map).  Checkpointed runs never batch several maps, since
        their snapshots are labelled per map.  Fold order is unchanged,
        so the folded statistics are bit-identical to simulating every
        task.

        ``ctx`` carries the run's hooks to every task; its ``memo`` (a
        :class:`repro.memo.MemoStore`, or None) extends the replay
        across processes: before simulating a representative, the
        store is consulted under its content digest, and every freshly
        simulated representative is written back.  A loaded entry is
        only replayed when its recorded plan hashes equal
        :func:`task_plan_hashes` of the live task (the key⇒hash
        invariant), so a stale or corrupted entry falls through to
        simulation.
        Hit or simulated, the replay/fold path is the same, so results
        stay bit-identical to a cold run.
        """
        if ctx is None:
            ctx = RunContext()
        memo = ctx.memo
        worker = partial(run_map_batch, config, desc, lut, functional,
                         label_base=label_base)
        if not memoize or (memo is None and len(tasks) <= 1):
            return self._run_batches(worker, tasks,
                                     [[i] for i in range(len(tasks))], ctx)
        keys = [structural_key(task) for task in tasks]
        representatives: dict[tuple, int] = {}
        unique: list[MapTask] = []
        unique_keys: list[tuple] = []
        for task, key in zip(tasks, keys, strict=True):
            if key not in representatives:
                representatives[key] = len(unique)
                unique.append(task)
                unique_keys.append(key)
        rep_outcomes: list[MapOutcome | None] = [None] * len(unique)
        to_run: list[MapTask] = []
        run_slots: list[int] = []
        entries: dict[int, tuple[str, tuple[str, ...]]] = {}
        if memo is not None:
            from repro.memo.store import entry_digest

            for slot, (task, key) in enumerate(
                    zip(unique, unique_keys, strict=True)):
                digest = entry_digest(desc, key)
                hashes = task_plan_hashes(config, desc, lut, task)
                entries[slot] = (digest, hashes)
                cached = memo.load(digest, hashes)
                if cached is not None:
                    rep_outcomes[slot] = replace(cached, index=task.index)
                else:
                    to_run.append(task)
                    run_slots.append(slot)
        else:
            to_run = unique
            run_slots = list(range(len(unique)))
        batches = (share_batches(desc, to_run) if ctx.checkpoint is None
                   else [[i] for i in range(len(to_run))])
        for slot, outcome in zip(
                run_slots, self._run_batches(worker, to_run, batches, ctx),
                strict=True):
            rep_outcomes[slot] = outcome
            if memo is not None:
                digest, hashes = entries[slot]
                # Entries are stored index-free (canonical index 0);
                # replay re-indexes per task either way.
                memo.store(digest, hashes, replace(outcome, index=0))
        outcomes = []
        for task, key in zip(tasks, keys, strict=True):
            rep = rep_outcomes[representatives[key]]
            outcomes.append(rep if rep.index == task.index
                            else replace(rep, index=task.index))
        return outcomes

    def _run_batches(self, worker, tasks: list[MapTask],
                     batches: list[list[int]],
                     ctx: RunContext) -> list[MapOutcome]:
        """Run ``worker`` over batches of task positions; returns the
        outcomes ordered like ``tasks``."""
        outcomes: list[MapOutcome | None] = [None] * len(tasks)
        results = self._execute(
            worker, [tuple(tasks[i] for i in batch) for batch in batches],
            ctx)
        for batch, batch_outcomes in zip(batches, results, strict=True):
            for position, outcome in zip(batch, batch_outcomes,
                                         strict=True):
                outcomes[position] = outcome
        return outcomes

    def map(self, worker, items: list) -> list:
        """Run ``worker`` over arbitrary picklable items, in order.

        The sharded multi-cube executor (:mod:`repro.core.shard`)
        dispatches one item per cube through this; the same in-process
        rule as :meth:`_execute` (``workers <= 1`` or a single item runs
        inline through the identical code path) is what makes its
        serial-vs-parallel bit-identity structural too.
        """
        return self._execute(worker, items)

    def _execute(self, worker, tasks: list,
                 ctx: RunContext | None = None) -> list:
        """Run ``worker`` over ``tasks`` in order, inline or pooled.

        With ``ctx``, each call also gets ``ctx=``: the context itself
        in-process, its :meth:`~RunContext.for_worker` form in a pool
        (memo store and live telemetry are parent-process state).
        """
        inline = self.workers == 1 or len(tasks) <= 1
        if ctx is not None:
            worker = partial(worker,
                             ctx=ctx if inline else ctx.for_worker())
        if inline:
            return [worker(task) for task in tasks]
        pool_size = min(self.workers, len(tasks))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            return list(pool.map(worker, tasks))
