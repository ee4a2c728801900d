"""Live telemetry: metrics registry, host-phase timers, heartbeats.

PR 2's tracer records *one run* for post-mortem analysis; this module
watches a *process*: a :class:`MetricsRegistry` of gauges, counters and
histograms fed by the simulator's sampled counters and by host-phase
wall timers (compile / simulate / memo-I/O / checkpoint / trace-export),
snapshotted on a cycle-period heartbeat during long runs.  Snapshots
export two ways:

* **OpenMetrics text** (:meth:`MetricsRegistry.to_openmetrics`) — a
  ``/metrics`` payload any Prometheus-compatible scraper can read.  The
  metric names below are a *stable contract* (see
  ``docs/observability.md``); renaming one is a breaking change.
* **JSONL heartbeat records** (:attr:`LiveTelemetry.heartbeats`, or
  appended to ``heartbeat_path``) — one JSON object per heartbeat, for
  offline trend analysis without a scrape target.

A :class:`LiveTelemetry` rides on a :class:`repro.core.context.RunContext`
(its ``live`` hook); the simulator feeds it compile/simulate phases,
per-layer counters and the heartbeat cycle advance through ``is not
None`` guards.  Without one — the default — every hook is a single
pointer comparison and simulated results are bit-identical (the
PR-2/PR-5 guard convention, pinned by ``tests/obs/test_live.py``).

This module is the **only** sanctioned home for wall-clock phase timing
(``time.monotonic``): nclint's NC110 bans direct monotonic reads
everywhere else, so every phase second lands in one registry instead of
scattered ad-hoc ``time.monotonic()`` deltas.
"""

from __future__ import annotations

import json
import re
import time
from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.obs.counters import LatencyHistogram

#: Heartbeat-record schema version (bump on layout changes).
HEARTBEAT_VERSION = 1

#: The host-phase taxonomy: every wall-clock second of a run is billed
#: to exactly one of these on ``neurocube_phase_seconds``.
PHASES = ("compile", "simulate", "memo_io", "checkpoint", "trace_export")

#: The stable OpenMetrics families this package emits, with types and
#: help strings.  ``docs/observability.md`` documents these as the
#: scrape contract; add freely, never rename.
METRIC_FAMILIES: dict[str, tuple[str, str]] = {
    "neurocube_phase_seconds": (
        "counter", "host wall-clock seconds per phase"),
    "neurocube_sim_cycles": (
        "counter", "simulated reference-clock cycles"),
    "neurocube_layer_runs": (
        "counter", "descriptor runs completed"),
    "neurocube_macs_fired": (
        "counter", "MAC operations executed"),
    "neurocube_packets_delivered": (
        "counter", "NoC packets delivered"),
    "neurocube_stall_cycles": (
        "counter", "PE/PNG stall cycles by kind"),
    "neurocube_degraded_results": (
        "counter", "fault-degraded results recorded"),
    "neurocube_memo_lookups": (
        "counter", "persistent memo-store lookups by outcome"),
    "neurocube_heartbeats": (
        "counter", "heartbeat snapshots emitted"),
    "neurocube_pe_mac_utilization": (
        "gauge", "MAC-array busy fraction of the last layer run"),
    "neurocube_intercube_link_occupancy": (
        "gauge", "per-cube SerDes link busy fraction of a sharded run"),
    "neurocube_layer_cycles": (
        "histogram", "per-layer simulated cycle distribution"),
}

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label(value: str) -> str:
    """Escape a label value per the OpenMetrics text format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: tuple[tuple[str, str], ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"'
                    for name, value in pairs)
    return "{" + body + "}"


class MetricsRegistry:
    """Named gauges, counters and histograms with OpenMetrics export.

    Families are declared on first touch; a family keeps one sample per
    distinct label set.  Counters only ever go up (monotonic within one
    registry), gauges are set, histograms fold integer observations
    into the tracer's power-of-two
    :class:`~repro.obs.counters.LatencyHistogram` buckets.
    """

    def __init__(self) -> None:
        self._types: dict[str, str] = {}
        self._values: dict[str, dict[tuple, float]] = {}
        self._hists: dict[str, dict[tuple, LatencyHistogram]] = {}

    # -- intake ---------------------------------------------------------

    def _declare(self, family: str, mtype: str) -> None:
        if not _NAME_RE.match(family):
            raise ConfigurationError(
                f"invalid metric family name {family!r}")
        known = self._types.get(family)
        if known is None:
            declared = METRIC_FAMILIES.get(family)
            if declared is not None and declared[0] != mtype:
                raise ConfigurationError(
                    f"metric {family} is declared as {declared[0]}, "
                    f"not {mtype}")
            self._types[family] = mtype
        elif known != mtype:
            raise ConfigurationError(
                f"metric {family} already registered as {known}, "
                f"cannot reuse as {mtype}")

    def set_gauge(self, family: str, value: float, **labels) -> None:
        """Set a gauge sample (last write wins)."""
        self._declare(family, "gauge")
        self._values.setdefault(family, {})[_label_key(labels)] = (
            float(value))

    def inc(self, family: str, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` to a counter sample (must be >= 0)."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {family} increment must be >= 0, got {amount}")
        self._declare(family, "counter")
        samples = self._values.setdefault(family, {})
        key = _label_key(labels)
        samples[key] = samples.get(key, 0.0) + float(amount)

    def observe(self, family: str, value: int, **labels) -> None:
        """Fold one observation into a histogram sample."""
        self._declare(family, "histogram")
        hists = self._hists.setdefault(family, {})
        key = _label_key(labels)
        if key not in hists:
            hists[key] = LatencyHistogram()
        hists[key].record(max(0, int(value)))

    # -- introspection --------------------------------------------------

    def value(self, family: str, **labels) -> float:
        """Current value of one gauge/counter sample (0.0 if unset)."""
        return self._values.get(family, {}).get(_label_key(labels), 0.0)

    def families(self) -> list[str]:
        """Declared family names, sorted."""
        return sorted(self._types)

    def snapshot(self) -> dict:
        """JSON-compatible dump of every sample (the heartbeat body)."""
        out: dict[str, dict] = {}
        for family in self.families():
            mtype = self._types[family]
            entry: dict = {"type": mtype, "samples": []}
            if mtype == "histogram":
                for key, hist in sorted(self._hists.get(family,
                                                        {}).items()):
                    entry["samples"].append(
                        {"labels": dict(key), **hist.to_dict()})
            else:
                for key, value in sorted(self._values.get(family,
                                                          {}).items()):
                    entry["samples"].append(
                        {"labels": dict(key), "value": value})
            out[family] = entry
        return out

    # -- OpenMetrics export ---------------------------------------------

    def to_openmetrics(self) -> str:
        """Render every family as OpenMetrics text (``/metrics`` body).

        Counter sample names get the mandated ``_total`` suffix;
        histograms render cumulative ``_bucket{le=...}`` series plus
        ``_count``/``_sum``.  Ends with the ``# EOF`` terminator.
        """
        lines: list[str] = []
        for family in self.families():
            mtype = self._types[family]
            lines.append(f"# TYPE {family} {mtype}")
            declared = METRIC_FAMILIES.get(family)
            if declared is not None:
                lines.append(f"# HELP {family} {declared[1]}")
            if mtype == "histogram":
                self._render_histogram(lines, family)
                continue
            suffix = "_total" if mtype == "counter" else ""
            for key, value in sorted(self._values.get(family,
                                                      {}).items()):
                lines.append(
                    f"{family}{suffix}{_render_labels(key)} {value:.9g}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def _render_histogram(self, lines: list[str], family: str) -> None:
        for key, hist in sorted(self._hists.get(family, {}).items()):
            cumulative = 0
            for bucket in sorted(hist.buckets):
                cumulative += hist.buckets[bucket]
                upper = float(2 ** (bucket + 1))
                lines.append(
                    f"{family}_bucket"
                    f"{_render_labels(key, (('le', f'{upper:g}'),))} "
                    f"{cumulative}")
            lines.append(
                f"{family}_bucket"
                f"{_render_labels(key, (('le', '+Inf'),))} {hist.count}")
            lines.append(
                f"{family}_count{_render_labels(key)} {hist.count}")
            lines.append(
                f"{family}_sum{_render_labels(key)} {hist.total}")


class _PhaseTimer:
    """Context manager billing a wall-clock span to one phase counter."""

    __slots__ = ("_registry", "_phase", "_start")

    def __init__(self, registry: MetricsRegistry, phase: str) -> None:
        self._registry = registry
        self._phase = phase
        self._start = 0.0

    def __enter__(self) -> _PhaseTimer:
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.inc("neurocube_phase_seconds",
                           time.monotonic() - self._start,
                           phase=self._phase)


class LiveTelemetry:
    """Live telemetry for a run context: registry + heartbeat policy.

    Args:
        heartbeat_cycles: emit one heartbeat snapshot whenever the
            simulated-cycle total crosses a multiple of this period.
            0 (the default) disables the heartbeat entirely — metrics
            still accumulate, nothing is snapshotted automatically.
        heartbeat_path: optional JSONL file heartbeat records are
            appended to (one JSON object per line); records are always
            kept in :attr:`heartbeats` regardless.
        registry: share an existing :class:`MetricsRegistry`; a fresh
            one is created by default.
    """

    def __init__(self, heartbeat_cycles: int = 0,
                 heartbeat_path: str | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        if heartbeat_cycles < 0:
            raise ConfigurationError(
                f"heartbeat_cycles must be >= 0, got {heartbeat_cycles}")
        self.registry = registry if registry is not None else (
            MetricsRegistry())
        self.heartbeat_cycles = heartbeat_cycles
        self.heartbeat_path = heartbeat_path
        self.heartbeats: list[dict] = []
        self._cycles = 0
        self._seq = 0

    # -- phase timing ---------------------------------------------------

    def phase(self, name: str) -> _PhaseTimer:
        """Context manager billing its span to ``name``."""
        return _PhaseTimer(self.registry, name)

    def phase_factory(self, name: str) -> Callable[[], _PhaseTimer]:
        """A zero-arg callable producing :meth:`phase` timers."""
        def factory() -> _PhaseTimer:
            return _PhaseTimer(self.registry, name)
        return factory

    def phase_seconds(self, name: str) -> float:
        """Accumulated wall seconds billed to one phase."""
        return self.registry.value("neurocube_phase_seconds", phase=name)

    def phase_breakdown(self) -> dict[str, float]:
        """Nonzero phase -> seconds, in taxonomy order."""
        out = {}
        for phase in PHASES:
            seconds = self.phase_seconds(phase)
            if seconds:
                out[phase] = seconds
        return out

    # -- simulator feed -------------------------------------------------

    @property
    def cycles(self) -> int:
        """Simulated cycles advanced through this telemetry."""
        return self._cycles

    def observe_layer(self, run) -> None:
        """Fold one recorded descriptor run into the registry.

        ``run`` is a :class:`repro.core.context.RunRecord`; its context
        calls this when recording the run.  Also advances the heartbeat
        clock by the run's cycles.
        """
        reg = self.registry
        name, cycles, stats = run.label, run.cycles, run.stats
        n_pe = run.config.n_pe
        reg.inc("neurocube_layer_runs", 1, layer=name)
        reg.inc("neurocube_phase_seconds", max(0.0, run.host_seconds),
                phase="simulate")
        reg.inc("neurocube_macs_fired", run.macs_fired)
        reg.inc("neurocube_packets_delivered", stats.packets)
        reg.inc("neurocube_stall_cycles", stats.search_stall_cycles,
                kind="search")
        reg.inc("neurocube_stall_cycles", stats.inject_stall_cycles,
                kind="inject")
        if run.degraded:
            reg.inc("neurocube_degraded_results", len(run.degraded))
        if cycles > 0 and n_pe > 0:
            reg.set_gauge("neurocube_pe_mac_utilization",
                          stats.pe_busy_cycles / (cycles * n_pe),
                          layer=name)
        reg.observe("neurocube_layer_cycles", cycles)
        if run.memo_stats is not None:
            for outcome in ("hits", "misses", "rejects"):
                count = getattr(run.memo_stats, outcome, 0)
                if count:
                    reg.inc("neurocube_memo_lookups", count,
                            outcome=outcome)
        self.advance_cycles(cycles, label=name)

    def advance_cycles(self, cycles: int, label: str = "") -> None:
        """Advance the heartbeat clock; snapshot on crossed boundaries.

        One heartbeat is emitted per advance that crosses at least one
        period boundary (a multi-period jump collapses to one snapshot:
        the interior ones would all show the same registry state, since
        metrics only change between advances).
        """
        if cycles <= 0:
            return
        self.registry.inc("neurocube_sim_cycles", cycles)
        before = self._cycles
        self._cycles += cycles
        period = self.heartbeat_cycles
        if period and self._cycles // period > before // period:
            self.heartbeat_now(label=label)

    def heartbeat_now(self, label: str = "") -> dict:
        """Snapshot the registry into one heartbeat record, now."""
        self.registry.inc("neurocube_heartbeats", 1)
        record = {
            "kind": "neurocube-heartbeat",
            "version": HEARTBEAT_VERSION,
            "seq": self._seq,
            "cycles": self._cycles,
            "unix": time.time(),
            "label": label,
            "metrics": self.registry.snapshot(),
        }
        self._seq += 1
        self.heartbeats.append(record)
        if self.heartbeat_path is not None:
            with open(self.heartbeat_path, "a") as handle:
                handle.write(json.dumps(record) + "\n")
        return record

    # -- export ---------------------------------------------------------

    def to_openmetrics(self) -> str:
        """The session's current ``/metrics`` payload."""
        return self.registry.to_openmetrics()

    def write_openmetrics(self, path: str) -> None:
        """Write the current OpenMetrics snapshot to ``path``."""
        with open(path, "w") as handle:
            handle.write(self.to_openmetrics())


def attribute_report(report, config, descriptors=()):
    """Per-layer bottleneck attribution for a finished run report.

    Thin delegation so the cycle model — which may import this module
    as part of the telemetry hook protocol (NC102) — never imports
    :mod:`repro.obs.attribution` (which itself builds on
    :mod:`repro.core.analytic`) at module level.
    """
    from repro.obs.attribution import attribute_layers

    return attribute_layers(report.layers, descriptors, config)


def intercube_attribution(name, kind, exchange_cycles, compute_cycles):
    """Attribution row for an exchange-bound multi-cube sharded layer.

    Thin delegation for the same NC102 reason as
    :func:`attribute_report`: the sharded executor
    (:mod:`repro.core.shard`) calls this for layers whose inter-cube
    link barrier costs at least as much as the slowest cube's compute,
    without importing :mod:`repro.obs.attribution` at module level.
    """
    from repro.obs.attribution import LayerAttribution

    total = exchange_cycles + compute_cycles
    return LayerAttribution(
        name=name, kind=kind, verdict="intercube-link-bound",
        measured_cycles=float(total),
        predicted_cycles=float(compute_cycles),
        gap=(exchange_cycles / compute_cycles if compute_cycles
             else 0.0),
        predicted_bound="intercube_link",
        stall_share=0.0,
        shares={"intercube_link": (exchange_cycles / total if total
                                   else 0.0),
                "compute": compute_cycles / total if total else 0.0},
        top_counters=(("intercube_exchange_cycles",
                       float(exchange_cycles)),))
