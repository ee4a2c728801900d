"""Observability for the Neurocube simulator (`repro.obs`).

Cycle-level tracing with typed event spans, sampled time-series
counters, packet-latency histograms, Chrome-trace/CSV exporters,
per-run JSON manifests (with the run context's host-phase seconds) and
per-layer bottleneck attribution — see ``docs/observability.md`` for
the event taxonomy, the manifest schema, and how to open traces in
Perfetto.

The package has three entry points:

* explicit — ``NeurocubeSimulator(config, trace=TraceOptions())``;
* ambient — ``with RunContext(trace=TraceOptions()) as ctx: ...``
  (:mod:`repro.core.context`) traces and records every descriptor run
  in the block (how the runner's ``--trace`` works), and its
  ``phases`` hold the block's host seconds per phase;
* CLI — ``tools/ncprof.py record | summary | export | diff |
  attribute``.

:mod:`repro.obs.attribution` is imported on demand (not re-exported
here): it builds on :mod:`repro.core.analytic`, and importing it at
package load would cycle through ``repro.core``.
"""

from repro.obs.counters import CounterSeries, LatencyHistogram
from repro.obs.export import (
    load_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_counters_csv,
    write_events_csv,
    write_trace,
)
from repro.obs.manifest import (
    MANIFEST_VERSION,
    SUPPORTED_MANIFEST_VERSIONS,
    build_manifest,
    config_digest,
    diff_manifests,
    git_revision,
    load_manifest,
    manifest_from_context,
    write_manifest,
)
from repro.obs.tracer import (
    ALL_KINDS,
    CACHE_EVICT,
    CACHE_PARK,
    MAC_FIRE,
    NOC_DELIVER,
    NOC_HOP,
    PNG_INJECT,
    SKIP_AHEAD,
    SPAN_KINDS,
    VAULT_READ,
    Trace,
    TraceOptions,
    Tracer,
)

__all__ = [
    "ALL_KINDS",
    "CACHE_EVICT",
    "CACHE_PARK",
    "CounterSeries",
    "LatencyHistogram",
    "MANIFEST_VERSION",
    "MAC_FIRE",
    "NOC_DELIVER",
    "NOC_HOP",
    "PNG_INJECT",
    "SKIP_AHEAD",
    "SPAN_KINDS",
    "SUPPORTED_MANIFEST_VERSIONS",
    "Trace",
    "TraceOptions",
    "Tracer",
    "VAULT_READ",
    "build_manifest",
    "config_digest",
    "diff_manifests",
    "git_revision",
    "load_manifest",
    "load_trace",
    "manifest_from_context",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_counters_csv",
    "write_events_csv",
    "write_manifest",
    "write_trace",
]
