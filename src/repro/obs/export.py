"""Trace exporters: Chrome trace-event JSON and CSV time series.

The Chrome exporter emits the trace-event format that Perfetto and
``chrome://tracing`` load: one process (the simulated cube), one thread
per track (``pe/0``, ``vault/3``, ``noc/1->2``, ``sim``), span events as
``ph: "X"`` complete events, instants as ``ph: "i"``, and sampled
counters as ``ph: "C"`` counter events.  Timestamps are reference-clock
cycles mapped 1:1 onto the format's microsecond field — one display
"us" equals one simulated cycle.

The CSV exporters write the sampled counter series (long format:
``cycle,counter,value``) and the event list, for pandas/spreadsheet
analysis without a trace viewer.
"""

from __future__ import annotations

import csv
import json

from repro.obs.tracer import SPAN_KINDS, Trace

#: The single synthetic "process" all tracks live under.
TRACE_PID = 1


def _track_order(track: str) -> tuple:
    """Sort tracks by class then numerically where possible."""
    prefix, _, rest = track.partition("/")
    return (prefix, rest.zfill(8) if rest.isdigit() else rest)


def to_chrome_trace(trace: Trace) -> dict:
    """Convert a :class:`Trace` to a Chrome trace-event JSON object."""
    tracks = sorted({event[3] for event in trace.events},
                    key=_track_order)
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    events: list[dict] = [
        {"ph": "M", "pid": TRACE_PID, "tid": 0, "name": "process_name",
         "args": {"name": "neurocube"}}]
    for track, tid in tids.items():
        events.append({"ph": "M", "pid": TRACE_PID, "tid": tid,
                       "name": "thread_name", "args": {"name": track}})
    for kind, ts, dur, track, args in trace.events:
        record = {"name": kind, "cat": kind.split(".", 1)[0],
                  "pid": TRACE_PID, "tid": tids[track], "ts": ts}
        if kind in SPAN_KINDS:
            record["ph"] = "X"
            record["dur"] = max(dur, 1)
        else:
            record["ph"] = "i"
            record["s"] = "t"
        if args:
            record["args"] = args
        events.append(record)
    for name, points in sorted(trace.counters.samples.items()):
        for cycle, value in points:
            events.append({"ph": "C", "pid": TRACE_PID, "tid": 0,
                           "name": name, "ts": cycle,
                           "args": {"value": value}})
    other: dict = {"clock": "reference cycles (1 us = 1 cycle)",
                   "simulated_cycles": trace.cycles,
                   "dropped_events": trace.dropped_events}
    # Run-level annotations (memo/fault/degradation counters) make the
    # exported file self-describing without its manifest.
    other.update(trace.meta)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


def write_chrome_trace(trace: Trace, path: str) -> None:
    """Write the Chrome trace-event JSON for ``trace`` to ``path``."""
    with open(path, "w") as handle:
        handle.write(json.dumps(to_chrome_trace(trace)))


def write_trace(trace: Trace, path: str) -> None:
    """Write the native trace JSON (the ``ncprof`` interchange format).

    ``json.dumps`` runs the C encoder in one call; ``json.dump`` streams
    through the pure-Python one, about four times slower, for the same
    bytes.
    """
    with open(path, "w") as handle:
        handle.write(json.dumps(trace.to_dict()))


def load_trace(path: str) -> Trace:
    """Load a native trace JSON written by :func:`write_trace`."""
    with open(path) as handle:
        return Trace.from_dict(json.load(handle))


def write_counters_csv(trace: Trace, path: str) -> int:
    """Write the counter series as long-format CSV; returns row count."""
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["cycle", "counter", "value"])
        for name in sorted(trace.counters.samples):
            for cycle, value in trace.counters.samples[name]:
                writer.writerow([cycle, name, value])
                rows += 1
    return rows


def write_events_csv(trace: Trace, path: str) -> int:
    """Write the event list as CSV; returns row count."""
    rows = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind", "cycle", "duration", "track", "args"])
        for kind, ts, dur, track, args in trace.events:
            writer.writerow([kind, ts, dur, track,
                             json.dumps(args) if args else ""])
            rows += 1
    return rows
