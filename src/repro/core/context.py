"""The run context: every run-level hook, settled once at run entry.

Neurocube's host programs a layer's PNG configuration once, before the
layer runs (paper §V).  The simulator treats its run-level hooks the
same way: a :class:`RunContext` bundles trace options, the fault
configuration, the checkpoint policy, the persistent memo store and the
static-verification switch, and a run resolves it once, when
``run_descriptor``, ``run_network`` or ``run_stream`` is entered.  From
there the one object travels down to every pass.

Entered as a context manager, a context is *ambient*: every simulator
run in the block that was not given explicit hooks uses it, and records
itself in the context's run log and bills its host seconds to the
context's phases (compile, simulate, memo_io, checkpoint,
trace_export).  This is how the experiment runner's flags and ``ncprof
record`` work.  Contexts nest and the innermost wins.
:func:`resolve` keeps one precedence for every hook: the simulator's
own argument, then the ambient context.  The run log holds each
descriptor run's :class:`~repro.core.simulator.LayerRun` without its
output, so it never pins a layer's output tensor.

A context never crosses a process boundary whole.
:meth:`RunContext.for_worker` strips the memo store, which is
parent-process state, and starts an empty run log and empty phases; the
parent records whatever comes back, in a fixed order.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.faults.checkpoint import CheckpointSpec
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultStats
from repro.obs.tracer import Trace, TraceOptions

if TYPE_CHECKING:
    from repro.core.config import NeurocubeConfig
    from repro.core.simulator import LayerRun
    from repro.memo.store import MemoStats, MemoStore

_STACK: list[RunContext] = []


def current_context() -> RunContext | None:
    """The innermost entered context, or None."""
    return _STACK[-1] if _STACK else None


def wants_validation(validate: bool | None) -> bool:
    """An explicit ``validate=`` wins; None follows the ambient context."""
    if validate is not None:
        return validate
    ambient = current_context()
    return ambient is not None and ambient.validate


def _monotonic() -> float:
    """Host wall-clock seconds; never feeds any simulated result."""
    return time.monotonic()  # nclint: allow(NC101) host-side timing


class _PhaseTimer:
    """Context manager billing its span to one phase of a phases dict.

    What timers nested inside it bill to the same dict is taken out of
    its span (a memo load inside a run is ``memo_io``, not also
    ``simulate``), so no second is billed twice and the phases sum to
    at most the wall time they cover.
    """

    __slots__ = ("_phases", "_name", "_billed", "_start")

    def __init__(self, phases: dict[str, float], name: str) -> None:
        self._phases = phases
        self._name = name

    def __enter__(self) -> _PhaseTimer:
        self._billed = sum(self._phases.values())
        self._start = _monotonic()
        return self

    def __exit__(self, *exc_info) -> None:
        span = _monotonic() - self._start
        phases = self._phases
        inner = sum(phases.values()) - self._billed
        phases[self._name] = phases.get(self._name, 0.0) + span - inner


class MemoDir:
    """A memo-store directory shared by every config a context runs.

    Stores are partitioned by config fingerprint, so one directory can
    serve runs on different configurations; one
    :class:`~repro.memo.store.MemoStore` is opened (and cached) per
    fingerprint.

    Attributes:
        directory: root directory shared by all stores opened here.
        max_bytes: size bound handed to every store.
    """

    def __init__(self, directory: str | Path,
                 max_bytes: int | None = None) -> None:
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self._stores: dict[str, MemoStore] = {}

    def store_for(self, config: NeurocubeConfig) -> MemoStore:
        """The store for this config (cached per fingerprint)."""
        # Imported lazily: repro.memo sits above the core in the
        # layering (it imports the task/outcome types).
        from repro.memo.store import MemoStore, memo_fingerprint

        fingerprint = memo_fingerprint(config)
        store = self._stores.get(fingerprint)
        if store is None:
            store = MemoStore(self.directory, config,
                              max_bytes=self.max_bytes)
            self._stores[fingerprint] = store
        return store

    def total_stats(self) -> MemoStats:
        """All opened stores' counters folded together."""
        from repro.memo.store import MemoStats

        total = MemoStats()
        for store in self._stores.values():
            total.merge(store.stats)
        return total


@dataclass(frozen=True)
class RunContext:
    """Every run-level hook of a simulator run, plus its run log.

    Attributes:
        trace: :class:`~repro.obs.tracer.TraceOptions` tracing every
            pass, or None.
        faults: :class:`~repro.faults.FaultConfig` injecting faults into
            every pass, or None.
        checkpoint: :class:`~repro.faults.CheckpointSpec` snapshotting
            every pass, or None.
        memo: a :class:`MemoDir` (ambient contexts) or, once resolved,
            the run's :class:`~repro.memo.store.MemoStore`; None keeps
            memoization in-process.
        validate: statically verify compiled programs and shard plans
            whose ``validate=`` argument is None.
        runs: the run log: one :class:`~repro.core.simulator.LayerRun`
            per descriptor run, in execution order, each with
            ``output=None``.
        phases: host seconds per phase (``compile``, ``simulate``,
            ``memo_io``, ``checkpoint``, ``trace_export``), billed by
            :meth:`phase` timers; disjoint, so their sum is at most the
            wall time the timers span.
    """

    trace: TraceOptions | None = None
    faults: FaultConfig | None = None
    checkpoint: CheckpointSpec | None = None
    memo: MemoDir | MemoStore | None = None
    validate: bool = False
    runs: list[LayerRun] = field(default_factory=list, compare=False,
                                  repr=False)
    phases: dict[str, float] = field(default_factory=dict, compare=False,
                                     repr=False)

    def __enter__(self) -> RunContext:
        _STACK.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        # By identity: equal contexts compare equal field by field, and
        # list.remove would pop the outermost of two equal ones.
        for index in range(len(_STACK) - 1, -1, -1):
            if _STACK[index] is self:
                del _STACK[index]
                return

    def for_worker(self) -> RunContext:
        """This context as it may cross a process boundary."""
        return dataclasses.replace(self, memo=None, runs=[], phases={})

    def phase(self, name: str) -> _PhaseTimer:
        """Context manager billing its span to the host phase ``name``."""
        return _PhaseTimer(self.phases, name)

    def phase_factory(self, name: str) -> Callable[[], _PhaseTimer]:
        """Zero-arg factory of :meth:`phase` timers.

        The shape the ``timer=`` hooks of the memo and checkpoint
        stores expect, so the stores know nothing of run contexts.
        """
        return functools.partial(_PhaseTimer, self.phases, name)

    # -- the run log ----------------------------------------------------

    @property
    def config(self) -> NeurocubeConfig | None:
        """The configuration of the last recorded run (for manifests)."""
        return self.runs[-1].config if self.runs else None

    @property
    def total_cycles(self) -> int:
        return sum(run.cycles for run in self.runs)

    @property
    def total_host_seconds(self) -> float:
        return sum(run.host_seconds for run in self.runs)

    def merged_trace(self) -> Trace:
        """All recorded traces on one clock, laid end to end."""
        parts = []
        offset = 0
        for run in self.runs:
            if run.trace is not None:
                parts.append((offset, run.trace))
            offset += run.cycles
        return Trace.merged(parts)

    def total_fault_stats(self, since: int = 0) -> FaultStats:
        """Fault counters of the runs from index ``since`` on, folded."""
        total = FaultStats()
        for run in self.runs[since:]:
            if run.fault_stats is not None:
                total.merge(run.fault_stats)
        return total


def _first(*values):
    return next((value for value in values if value is not None), None)


def resolve(config: NeurocubeConfig, trace: TraceOptions | None = None,
            faults: FaultConfig | None = None,
            checkpoint: CheckpointSpec | None = None,
            memo: MemoStore | None = None) -> RunContext:
    """Settle a run's hooks: explicit argument, then ambient context.

    The explicit arguments are a simulator's own hooks.  A
    :class:`MemoDir` resolves to its store for ``config``.  The result
    shares the ambient context's run log and phases, so the runs and
    host seconds recorded into it land there.
    """
    ambient = current_context() or RunContext()
    memo = _first(memo, ambient.memo)
    if isinstance(memo, MemoDir):
        memo = memo.store_for(config)
    return dataclasses.replace(
        ambient, trace=_first(trace, ambient.trace),
        faults=_first(faults, ambient.faults),
        checkpoint=_first(checkpoint, ambient.checkpoint), memo=memo)
