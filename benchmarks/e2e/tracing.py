"""Host-time tracing for neurobench's per-layer metrics.

The tracer wraps public functions and methods of ``repro`` from the
outside (nothing under ``src/`` changes) and records one span per call
at each simulator-layer boundary: name, start, end, parent span and the
iteration the span belongs to.  Spans are kept in memory and written
out as JSON when the benchmark ends.

Calls made once per simulated cycle (the PNG, PE, vault and NoC agent
methods) run about a million times per iteration, too many to keep one
span each.  They are folded instead: each keeps ``[self_s, calls]``
counters on the innermost open span, normally its ``run_pass``.

A span's self time is its duration minus the time its children cover:
its child spans plus its folded calls.  Every span nests under an
``iteration`` span, so the self times of one iteration add up to its
duration exactly and the layer shares sum to one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time

#: Kept spans: (module, class or None for a module function, attribute,
#: span name).  A name that is not in :data:`LAYERS` bills to ``other``.
#: ``compile_inference`` and ``build_fc_pass`` are patched where the
#: simulator imported them by name as well as where they are defined.
KEPT = (
    ("repro.core.simulator", "NeurocubeSimulator", "run_descriptor",
     "descriptor"),
    ("repro.core.simulator", "NeurocubeSimulator", "run_pass", "engine"),
    ("repro.core.compiler", None, "compile_inference", "compiler"),
    ("repro.core.simulator", None, "compile_inference", "compiler"),
    ("repro.core.scheduler", None, "build_conv_pass", "scheduler"),
    ("repro.core.scheduler", None, "build_fc_pass", "scheduler"),
    ("repro.core.simulator", None, "build_fc_pass", "scheduler"),
    ("repro.core.parallel", "ParallelPassExecutor", "run", "parallel"),
    ("repro.memo.store", "MemoStore", "load", "memo.load"),
    ("repro.memo.store", "MemoStore", "store", "memo.store"),
    ("repro.nn.network", "Network", "forward", "nn.forward"),
)

#: Folded per-cycle methods: (module, class, methods, layer).
FOLDED = (
    ("repro.core.png", "NeurosequenceGenerator",
     ("step", "next_event_delta", "skip", "can_progress"), "png"),
    ("repro.core.pe", "ProcessingElement",
     ("step", "next_event_delta", "skip"), "pe"),
    ("repro.memory.vault", "VaultChannel",
     ("step", "next_event_delta", "skip"), "vault"),
    ("repro.noc.interconnect", "Interconnect", ("step", "skip"),
     "noc.interconnect"),
    ("repro.noc.router", "Router", ("switch",), "noc.router"),
)

#: Layers host time is billed to, in report order.  ``other`` takes the
#: rest: the run_network/run_descriptor glue and any uncovered time.
LAYERS = ("png", "vault", "noc.router", "noc.interconnect", "pe", "engine",
          "scheduler", "compiler", "parallel", "memo.load", "memo.store",
          "nn.forward", "other")

_FOLDED_LAYER = {cls: layer for _, cls, _, layer in FOLDED}

#: The seven compute layers of the scene-labeling net, reported one by
#: one as ``layer.<name>.host_s`` / ``layer.<name>.cycles``.
SCENE_LAYERS = ("conv1", "pool1", "conv2", "pool2", "conv3", "fc1", "fc2")

#: ``LayerRun`` counters each ``descriptor`` span records.
_RUN_COUNTERS = ("cycles", "packets", "macs_fired", "pe_busy_cycles",
                 "pe_idle_cycles", "search_stall_cycles",
                 "inject_stall_cycles")


def _descriptor_attrs(run) -> dict:
    attrs = {name: int(getattr(run, name)) for name in _RUN_COUNTERS}
    attrs["layer"] = run.descriptor.name
    attrs["lateral"] = run.packets * run.lateral_fraction
    attrs["latency"] = run.packets * run.mean_packet_latency
    if run.memo_stats is not None:
        attrs["memo"] = run.memo_stats.as_dict()
    return attrs


_ATTRS = {
    "descriptor": _descriptor_attrs,
    "engine": lambda result: {"cycles": int(result.cycles)},
    "parallel": lambda outcomes: {
        "tasks": len(outcomes),
        "passes": sum(len(outcome.passes) for outcome in outcomes)},
}


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._fold_stack = [0.0]
        self._folded: dict | None = None
        self._iteration: int | None = None
        self._origin = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def _begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1]["id"] if self._open else None,
                "iteration": self._iteration,
                "start": time.perf_counter() - self._origin, "end": None,
                "folded": {}, "attrs": {}}
        self.spans.append(span)
        self._open.append(span)
        self._folded = span["folded"]
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._origin
        self._open.pop()
        self._folded = self._open[-1]["folded"] if self._open else None

    @contextlib.contextmanager
    def iteration(self):
        """Open the root span of one timed iteration."""
        self._iteration = len(self.spans)
        span = self._begin("iteration")
        try:
            yield
        finally:
            self._end(span)
            self._iteration = None

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _kept(self, name: str, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._iteration is None:
                return fn(*args, **kwargs)
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span["attrs"].update(attrs(result))
                return result
            finally:
                self._end(span)

        return wrapper

    def _fold(self, key: str, fn):
        stack = self._fold_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                counters = self._folded
                if counters is not None:
                    slot = counters.get(key)
                    if slot is None:
                        counters[key] = [elapsed - inner, 1]
                    else:
                        slot[0] += elapsed - inner
                        slot[1] += 1

        return wrapper

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callable; restore the originals on exit."""
        try:
            for module, cls, attribute, name in KEPT:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                self._patch(owner, attribute,
                            self._kept(name, getattr(owner, attribute)))
            for module, cls, methods, _ in FOLDED:
                owner = getattr(importlib.import_module(module), cls)
                for method in methods:
                    self._patch(owner, method,
                                self._fold(f"{cls}.{method}",
                                           getattr(owner, method)))
            yield self
        finally:
            while self._patches:
                owner, attribute, original = self._patches.pop()
                setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self seconds per span id: duration minus what children cover.

    Children are the span's child spans and its folded calls; the folded
    self times of one span add up to the time its outermost folded calls
    took, because a folded call nested in another is subtracted from the
    outer one's self time.
    """
    covered = {span["id"]: sum(seconds for seconds, _
                               in span["folded"].values())
               for span in spans}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += _duration(span)
    return {span["id"]: _duration(span) - covered[span["id"]]
            for span in spans}


def layer_self_times(spans: list[dict]) -> tuple[dict, dict]:
    """(self seconds, folded calls) per layer of :data:`LAYERS`."""
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(_FOLDED_LAYER.values(), 0)
    own = self_times(spans)
    for span in spans:
        name = span["name"]
        seconds[name if name in seconds else "other"] += own[span["id"]]
        for key, (self_s, count) in span["folded"].items():
            layer = _FOLDED_LAYER[key.split(".")[0]]
            seconds[layer] += self_s
            calls[layer] += count
    return seconds, calls


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[dict], untraced_p50_s: float,
                  scale: float = 1.0) -> dict:
    """Per-iteration per-layer metrics from one traced run's spans.

    ``scale`` turns span seconds into the normalised seconds
    ``untraced_p50_s`` is given in (see :mod:`hostspeed`).
    """
    iterations = [_duration(s) for s in spans if s["name"] == "iteration"]
    n = len(iterations)
    total = sum(iterations)
    seconds, calls = layer_self_times(spans)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = scale * seconds[layer] / n
        metrics[f"{layer}.share"] = _ratio(seconds[layer], total)
    for layer, count in calls.items():
        metrics[f"{layer}.calls"] = count / n

    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    engine = by_name.get("engine", [])
    engine_cycles = sum(s["attrs"].get("cycles", 0) for s in engine)
    stepped = sum(s["folded"].get("Interconnect.step", (0.0, 0))[1]
                  for s in spans)
    metrics["engine.passes"] = len(engine) / n
    metrics["engine.stepped_cycles"] = stepped / n
    metrics["engine.stepped_ratio"] = _ratio(stepped, engine_cycles)
    metrics["engine.host_us_per_cycle"] = 1e6 * scale * _ratio(
        sum(_duration(s) for s in engine), engine_cycles)

    # A span whose call raised has no attrs; it is counted as time only.
    runs = [s["attrs"] for s in by_name.get("descriptor", [])
            if s["attrs"]]
    packets = sum(run["packets"] for run in runs)
    for key, name in (("macs_fired", "pe.macs_fired"),
                      ("pe_busy_cycles", "pe.busy_cycles"),
                      ("pe_idle_cycles", "pe.idle_cycles"),
                      ("search_stall_cycles", "pe.search_stall_cycles"),
                      ("inject_stall_cycles", "png.inject_stall_cycles")):
        metrics[name] = sum(run[key] for run in runs) / n
    metrics["noc.packets"] = packets / n
    metrics["noc.mean_packet_latency"] = _ratio(
        sum(run["latency"] for run in runs), packets)
    metrics["noc.lateral_fraction"] = _ratio(
        sum(run["lateral"] for run in runs), packets)

    executors = by_name.get("parallel", [])
    executor_ids = {s["id"] for s in executors}
    passes = sum(s["attrs"].get("passes", 0) for s in executors)
    replayed = passes - sum(1 for s in engine
                            if s["parent"] in executor_ids)
    metrics["parallel.tasks"] = sum(s["attrs"].get("tasks", 0)
                                    for s in executors) / n
    metrics["parallel.passes_replayed"] = replayed / n
    metrics["parallel.replay_ratio"] = _ratio(replayed, passes)

    memo = {key: sum(run.get("memo", {}).get(key, 0) for run in runs)
            for key in ("hits", "misses", "stores", "rejects")}
    for key, count in memo.items():
        metrics[f"memo.{key}"] = count / n
    metrics["memo.hit_ratio"] = _ratio(
        memo["hits"], memo["hits"] + memo["misses"] + memo["rejects"])

    for layer in SCENE_LAYERS:
        mine = [s for s in by_name.get("descriptor", [])
                if s["attrs"].get("layer") == layer]
        metrics[f"layer.{layer}.host_s"] = scale * sum(
            map(_duration, mine)) / n
        metrics[f"layer.{layer}.cycles"] = sum(
            s["attrs"]["cycles"] for s in mine) / n

    metrics["trace.overhead"] = _ratio(
        scale * statistics.median(iterations), untraced_p50_s)
    return metrics
