"""ncprof — Neurocube simulator profiling CLI.

Front end for :mod:`repro.obs`: records traced simulator runs, prints
trace summaries, exports Perfetto-loadable Chrome trace JSON or CSV time
series, and diffs run manifests across commits.

Usage (installed as the ``ncprof`` console script; from a checkout use
``python tools/ncprof.py`` with the same arguments)::

    ncprof record [--out DIR] [--label NAME] [--size N] [--workers N]
                  [--sample-interval N] [--no-counters]
    ncprof summary trace_or_manifest.json
    ncprof export trace.json --format chrome|csv [--out PATH]
    ncprof diff manifest_a.json manifest_b.json
    ncprof attribute manifest.json [--json]

``record`` simulates a small traced conv layer end to end and writes
the native trace plus its manifest, with the run's host-phase seconds
and attribution verdicts — the CI observability smoke path.
``attribute`` prints a manifest's per-layer bottleneck verdicts.
``summary``, ``diff`` and ``attribute`` validate every manifest they
read and exit 2 on one that is unreadable, not a manifest, or of an
unsupported schema version.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

from repro.errors import SchemaMismatch
from repro.obs import (
    Trace,
    TraceOptions,
    diff_manifests,
    load_manifest,
    load_trace,
    manifest_from_context,
    write_chrome_trace,
    write_counters_csv,
    write_events_csv,
    write_manifest,
    write_trace,
)


def cmd_record(args: argparse.Namespace) -> int:
    """Run a small traced conv layer; write trace + manifest."""
    import dataclasses

    import numpy as np

    from repro.core import NeurocubeConfig, NeurocubeSimulator, RunContext
    from repro.nn import models

    config = NeurocubeConfig.hmc_15nm()
    if args.workers is not None:
        config = dataclasses.replace(config, sim_workers=args.workers)
    net = models.single_conv_layer(args.size, args.size, 3, qformat=None)
    options = TraceOptions(counters=not args.no_counters,
                           sample_interval=args.sample_interval)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with RunContext(trace=options) as ctx:
        NeurocubeSimulator(config).run_network(
            net, np.zeros((1, args.size, args.size)))
    trace_path = out_dir / f"trace_{args.label}.json"
    manifest_path = out_dir / f"manifest_{args.label}.json"
    with ctx.phase("trace_export"):
        trace = ctx.merged_trace()
        write_trace(trace, str(trace_path))
    manifest = manifest_from_context(args.label, ctx, trace=trace)
    write_manifest(manifest, str(manifest_path))
    print(f"ncprof: recorded {ctx.total_cycles} cycles over "
          f"{len(ctx.runs)} layer run(s)")
    print(f"ncprof: wrote {trace_path}")
    print(f"ncprof: wrote {manifest_path}")
    for entry in manifest.get("attribution", []):
        print(f"ncprof: {entry['name']} -> {entry['verdict']}")
    return 0


def _read_manifest(path: str) -> dict | None:
    """Load and validate one manifest, reporting bad input on stderr.

    Returns None — the caller exits 2 — when ``path`` is unreadable, not
    JSON, not a manifest, or a manifest of a schema this build cannot
    read.
    """
    try:
        return load_manifest(path)
    except SchemaMismatch as error:
        # A manifest from a newer checkout is a user-facing situation,
        # not a crash: name the version gap and how to resolve it.
        print(f"ncprof: {error}", file=sys.stderr)
        print("ncprof: re-record the manifest with this checkout, or "
              "read it with the checkout that wrote it", file=sys.stderr)
    except (ValueError, OSError) as error:
        print(f"ncprof: {error}", file=sys.stderr)
    return None


def _is_trace(path: str) -> bool:
    """Whether ``path`` holds a native trace (by its ``kind`` tag)."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return False
    return isinstance(data, dict) and data.get("kind") == "neurocube-trace"


def _print_trace_summary(trace: Trace) -> None:
    print(f"trace: {trace.cycles} cycles, {len(trace.events)} events, "
          f"{trace.dropped_events} dropped")
    counts = trace.kind_counts()
    if counts:
        width = max(len(kind) for kind in counts)
        for kind, count in counts.items():
            print(f"  {kind:<{width}}  {count}")
    if trace.latency.count:
        print(f"packet latency: {trace.latency.count} delivered, "
              f"mean {trace.latency.mean:.1f}, "
              f"p90 {trace.latency.percentile(0.90)}, "
              f"max {trace.latency.max_value} cycles")
    if trace.counters.samples:
        print(f"counters: {len(trace.counters.samples)} series, "
              f"{trace.counters.n_samples} samples")


def _print_manifest_summary(manifest: dict) -> None:
    totals = manifest.get("totals", {})
    print(f"manifest: {manifest.get('label')} "
          f"(config {manifest.get('config_hash')}, "
          f"git {manifest.get('git_rev')})")
    print(f"  {totals.get('layers', 0)} layer(s), "
          f"{totals.get('cycles', 0):.0f} cycles, "
          f"{totals.get('packets', 0):.0f} packets, "
          f"{totals.get('host_seconds', 0):.3f}s host")
    for row in manifest.get("layers", []):
        print(f"  {row.get('name')}: {row.get('kind')} "
              f"{float(row.get('cycles', 0)):.0f} cycles, "
              f"{float(row.get('packets', 0)):.0f} packets")
    summary = manifest.get("trace_summary")
    if summary:
        print(f"  trace: {summary.get('cycles')} cycles, "
              f"events {summary.get('events')}, "
              f"mean latency {summary.get('mean_packet_latency', 0):.1f}")


def cmd_summary(args: argparse.Namespace) -> int:
    if _is_trace(args.path):
        _print_trace_summary(load_trace(args.path))
        return 0
    manifest = _read_manifest(args.path)
    if manifest is None:
        return 2
    _print_manifest_summary(manifest)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    trace = load_trace(args.path)
    stem, _ = os.path.splitext(args.path)
    if args.format == "chrome":
        out = args.out or f"{stem}.chrome.json"
        write_chrome_trace(trace, out)
        print(f"ncprof: wrote {out} "
              f"(load in https://ui.perfetto.dev or chrome://tracing)")
    else:
        base = args.out or stem
        counters_out = f"{base}.counters.csv"
        events_out = f"{base}.events.csv"
        rows = write_counters_csv(trace, counters_out)
        print(f"ncprof: wrote {counters_out} ({rows} rows)")
        rows = write_events_csv(trace, events_out)
        print(f"ncprof: wrote {events_out} ({rows} rows)")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    a, b = _read_manifest(args.a), _read_manifest(args.b)
    if a is None or b is None:
        return 2
    print(diff_manifests(a, b))
    return 0


def cmd_attribute(args: argparse.Namespace) -> int:
    """Print a manifest's per-layer bottleneck verdicts."""
    manifest = _read_manifest(args.path)
    if manifest is None:
        return 2
    rows = manifest.get("attribution", [])
    if not rows:
        print(f"ncprof: {args.path} carries no attribution block "
              f"(schema v{manifest.get('version')}; record with "
              f"tracing on a current checkout to embed verdicts)")
        return 1
    if args.json:
        json.dump(rows, sys.stdout, indent=2)
        print()
        return 0
    from repro.obs.attribution import LayerAttribution

    print(f"attribution: {manifest.get('label')} "
          f"(config {manifest.get('config_hash')})")
    for row in rows:
        print(f"  {LayerAttribution.from_dict(row).format()}")
    phases = manifest.get("phases")
    if phases:
        shown = ", ".join(f"{name}={seconds:.3f}s"
                          for name, seconds in phases.items())
        print(f"  host phases: {shown}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ncprof", description="Neurocube simulator profiling CLI.")
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run a small traced conv layer, write "
                       "trace+manifest")
    record.add_argument("--out", default=".",
                        help="output directory (default: cwd)")
    record.add_argument("--label", default="smoke",
                        help="run label used in output file names")
    record.add_argument("--size", type=int, default=24,
                        help="conv layer input height/width (default 24)")
    record.add_argument("--workers", type=int, default=None,
                        help="override sim_workers")
    record.add_argument("--sample-interval", type=int, default=64,
                        help="cycles between counter samples")
    record.add_argument("--no-counters", action="store_true",
                        help="record events only")
    record.set_defaults(func=cmd_record)

    summary = sub.add_parser(
        "summary", help="print a trace or manifest summary")
    summary.add_argument("path", help="trace_*.json or manifest_*.json")
    summary.set_defaults(func=cmd_summary)

    export = sub.add_parser(
        "export", help="convert a native trace to Chrome JSON or CSV")
    export.add_argument("path", help="native trace_*.json")
    export.add_argument("--format", required=True,
                        choices=("chrome", "csv"))
    export.add_argument("--out", default=None,
                        help="output path (chrome) or basename (csv)")
    export.set_defaults(func=cmd_export)

    diff = sub.add_parser("diff", help="compare two run manifests")
    diff.add_argument("a", help="baseline manifest")
    diff.add_argument("b", help="current manifest")
    diff.set_defaults(func=cmd_diff)

    attribute = sub.add_parser(
        "attribute", help="print a manifest's per-layer bottleneck "
                          "verdicts")
    attribute.add_argument("path", help="manifest_*.json")
    attribute.add_argument("--json", action="store_true",
                           help="emit the raw attribution block as JSON")
    attribute.set_defaults(func=cmd_attribute)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
