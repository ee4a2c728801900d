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
whose per-pass results the caller folds in task order, so
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
* representatives with equal :func:`shape_key` — the output maps of a
  conv layer, or the maps of a pooling layer — run one PNG program on
  their own data, so they run as one batch.  When the lead map's
  passes fold into node-slice classes, only the lead's pass is
  simulated per sub-pass and replayed for each map, and the other
  maps, the follower maps, are evaluated together on the lead's
  schedule, one evaluation per sub-pass
  (:func:`repro.core.fold.evaluate_maps`).  Otherwise every map of
  the batch is simulated on its own.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import NeurocubeConfig
from repro.core.context import RunContext
from repro.core.layerdesc import LayerDescriptor
from repro.faults.rng import pass_salt
from repro.nn.activations import ActivationLUT

if TYPE_CHECKING:
    from repro.core.simulator import PassResult


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
class MapOutcome:
    """What one worker returns for one :class:`MapTask`.

    Attributes:
        index: the task's map index.
        passes: per-sub-pass results, in execution order, each without
            its write-back dict.
        output: the map's assembled output (functional mode) or None.
    """

    index: int
    passes: tuple[PassResult, ...]
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


def shape_key(task: MapTask) -> tuple:
    """Hashable key under which two tasks run the same PNG program:
    mode, per-sub-pass input shapes and final flags.  Conv or pooling
    maps with equal keys differ only in their data: kernels, biases
    and the inputs they read."""
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
    return tuple(_sub_pass_plan(config, desc, lut, task, j,
                                None).structural_hash()
                 for j in range(len(task.sub_passes)))


def run_map_batch(config: NeurocubeConfig, desc: LayerDescriptor,
                  lut: ActivationLUT | None, functional: bool,
                  batch: tuple[MapTask, ...], ctx: RunContext,
                  label_base: str = "") -> list[MapOutcome]:
    """Run the sub-pass chains of a batch of maps (worker entry point).

    The tasks of a batch (equal :func:`shape_key`) run one PNG program
    on their own data.  The batch shares its lead map's passes when the
    lead's first plan folds into node-slice classes
    (:meth:`~repro.core.scheduler.PassPlan.slice_classes`): per
    sub-pass, only the lead's pass is simulated, its outcome is
    replayed for every map, and the follower maps' write-backs are
    evaluated together from their own data on the lead's schedule
    (:func:`_evaluate_followers`), each map's later sub-passes
    preloading its own partial sums.  The decision is made once,
    before any pass runs; a batch that does not share runs each map's
    chain on its own, so no pass is ever simulated twice.  A batch of
    one is a map's own chain.  Sub-passes run serially: only the final
    one goes through the activation LUT — exactly the serial
    simulator's schedule, so every map's outputs and statistics match
    its own simulation bit for bit.  Returns one :class:`MapOutcome` per task.

    ``ctx`` carries the run's hooks into every sub-pass.  Each traced
    pass's trace rides back on its ``PassResult`` with a local clock
    the parent offsets into the run-global one.  Both the fault
    salt and the checkpoint label derive from the simulated task's
    *logical* identity — ``(label_base, task.index, sub-pass)`` —
    never from worker identity, so serial, parallel and resumed runs
    inject identical faults and share one checkpoint namespace.
    (Traced, faulty and checkpointed runs never batch several maps.)
    """
    # Imported here, not at module top: the simulator imports this
    # module for the task/outcome types.
    from repro.core.simulator import NeurocubeSimulator

    simulator = NeurocubeSimulator(config)
    lead = batch[0]
    first = _sub_pass_plan(config, desc, lut, lead, 0, None)
    # The other maps' plans reuse the lead's first schedule on every
    # sub-pass, so the chain's input blocks must share one shape.
    classes = (first.slice_classes(config)
               if len(batch) > 1 and len({np.shape(spec.input_tensor)
                                          for spec in lead.sub_passes}) == 1
               else None)
    if classes is None:
        return [_run_chain(simulator, desc, lut, functional, task, ctx,
                           label_base, first if task is lead else None)
                for task in batch]
    shared = _run_chain(simulator, desc, lut, functional, lead, ctx,
                        label_base, first)
    followers = batch[1:]
    outputs = (_evaluate_followers(config, desc, lut, followers, first,
                                   classes, shared.output.shape)
               if functional else [None] * len(followers))
    return [shared] + [
        MapOutcome(index=task.index, passes=shared.passes, output=output)
        for task, output in zip(followers, outputs, strict=True)]


def _sub_pass_plan(config: NeurocubeConfig, desc: LayerDescriptor,
                   lut: ActivationLUT | None, task: MapTask, j: int,
                   partial_sums: np.ndarray | None):
    """The plan of sub-pass ``j`` of ``task``: preloaded with the spec's
    bias, or with the previous sub-pass's ``partial_sums``."""
    # Imported here, not at module top: the scheduler imports nothing
    # from this module, but keeping the executor import-light lets the
    # memo store depend on the task/outcome types without cycles.
    from repro.core.scheduler import build_conv_pass

    spec = task.sub_passes[j]
    return build_conv_pass(
        desc, config, spec.input_tensor, spec.kernel,
        spec.bias if partial_sums is None else partial_sums.ravel(),
        lut if spec.final else None, mode=task.mode)


def _run_chain(simulator, desc: LayerDescriptor, lut: ActivationLUT | None,
               functional: bool, task: MapTask, ctx: RunContext,
               label_base: str, first=None) -> MapOutcome:
    """Simulate every sub-pass of one map's chain; ``first`` is its
    first sub-pass's plan when already built."""
    config = simulator.config
    degraded_ok = ctx.faults is not None and ctx.faults.any_rate
    output = None
    passes = []
    for j in range(len(task.sub_passes)):
        plan = (first if j == 0 and first is not None
                else _sub_pass_plan(config, desc, lut, task, j, output))
        result = simulator.run_pass(
            plan, ctx=ctx, fault_salt=pass_salt(task.index, j),
            pass_label=f"{label_base}.m{task.index}.s{j}")
        if functional:
            output = simulator.assemble_output(desc, plan, result.outputs,
                                               missing_ok=degraded_ok)
        passes.append(replace(result, outputs=None))
    return MapOutcome(index=task.index, passes=tuple(passes),
                      output=output)


def _evaluate_followers(config: NeurocubeConfig, desc: LayerDescriptor,
                        lut: ActivationLUT | None,
                        followers: tuple[MapTask, ...], plan, classes,
                        shape: tuple[int, ...]) -> np.ndarray:
    """The outputs of a shared batch's follower maps, ``(maps, *shape)``,
    evaluated together on the schedule of the lead's first ``plan``,
    whose node-slice ``classes`` they share
    (:func:`repro.core.fold.evaluate_maps`).

    Per sub-pass, the input is laid into vault images once when every
    map reads the same one (the input-map block of a convolution), else
    one image row per map (pooling); each map brings its own kernel and
    preloads its bias, then its own partial sums.
    """
    from repro.core.fold import evaluate_maps
    from repro.core.scheduler import conv_kernel, conv_vault_images
    from repro.fixedpoint import from_float, to_float

    fmt = config.qformat
    values = np.empty((len(followers), plan.total_neurons))
    values[:] = [[task.sub_passes[0].bias] for task in followers]
    for specs in zip(*(task.sub_passes for task in followers),
                     strict=True):
        inputs = [spec.input_tensor for spec in specs]
        if all(np.array_equal(tensor, inputs[0]) for tensor in inputs[1:]):
            inputs = inputs[:1]
        images = conv_vault_images(desc, config, np.stack(inputs),
                                   plan.expected_writebacks)
        kernels = [conv_kernel(desc, followers[0].mode, spec.kernel)
                   for spec in specs]
        raw = evaluate_maps(
            plan, classes, images, values,
            (None if kernels[0] is None
             else from_float(np.stack(kernels), fmt).reshape(
                 len(kernels), -1)),
            fmt, lut if specs[0].final else None)
        values = to_float(raw, fmt)
    return values.reshape(len(followers), *shape)


def share_batches(tasks: list[MapTask]) -> list[list[int]]:
    """Group task positions by :func:`shape_key`: conv and pooling maps
    with equal keys run one PNG program on their own data, so a batch
    may share its lead's passes (:func:`run_map_batch`).  Batches come
    in order of their first task."""
    batches: dict[tuple, list[int]] = {}
    for position, task in enumerate(tasks):
        batches.setdefault(shape_key(task), []).append(position)
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
        each batch shares its lead's simulated passes when they fold
        (:func:`run_map_batch`); their outcomes are replayed for every
        map of the batch.  The caller
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
        batches = (share_batches(to_run) if ctx.checkpoint is None
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
        (the memo store is parent-process state).
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
