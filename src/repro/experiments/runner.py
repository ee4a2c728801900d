"""CLI: run paper experiments by id.

Usage::

    neurocube-experiments list
    neurocube-experiments run fig12 [fig13 ...]
    neurocube-experiments run all
    neurocube-experiments run fig12 --json   # machine-readable output
    neurocube-experiments run fig15a --trace --trace-dir out/

Each experiment runs inside one ambient
:class:`repro.core.context.RunContext` built from the flags below; the
flags are scoped to that ``with`` block and leave nothing behind.

With ``--trace``, every cycle-simulator descriptor run the experiment
performs is traced, and a ``manifest_<id>.json`` (plus a
``trace_<id>.json`` when any runs were captured) lands in the trace
directory.  Experiments that never touch the cycle simulator still get a
manifest recording that zero runs were captured.

With ``--faults SPEC`` (``key=value,...`` pairs of
:class:`repro.faults.FaultConfig` fields, e.g.
``seed=3,dram_bitflip_rate=1e-4,ecc=secded``), every cycle-simulated
descriptor run injects deterministic faults and a summary of the fault
counters is printed to stderr.  ``--checkpoint-every N``
(with ``--checkpoint-dir``) snapshots every pass periodically, and
``--resume-from DIR`` resumes each pass from its newest snapshot —
together they let a long sweep survive a crash and continue
bit-identically.

With ``--memo-dir DIR``, memoized timing-pass outcomes are
loaded from and stored to a persistent store under ``DIR``, so a rerun
replays timing from disk bit-identically.  Counters are printed to
stderr per experiment (``[memo] ...``) and, with ``--json``, folded
into the top-level ``__memo__`` key.  ``--stream N`` streams N frames
through streaming-capable experiments (``ext_stream``): timing is
simulated once per distinct layer shape, then N frames replay it
through the functional fast path.  ``--cubes N`` shards multi-cube-
capable experiments (``ext_shard``) across N cubes, one process per
cube with conservative link-time sync — bit-identical to the same
shards run serially (the experiment asserts it).

The context always times host phases (compile / simulate / memo-I/O /
checkpoint / trace-export); with ``--trace`` the manifest embeds them
under ``phases``.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
import pathlib
import sys

from repro.experiments.registry import EXPERIMENTS, get_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurocube-experiments",
        description="Regenerate the Neurocube paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run experiments by id")
    run_parser.add_argument(
        "ids", nargs="+",
        help="experiment ids (fig1, fig12, table3, ...) or 'all'")
    run_parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of tables")
    run_parser.add_argument(
        "--trace", action="store_true",
        help="trace cycle-simulator runs; writes per-experiment "
             "trace_<id>.json and manifest_<id>.json")
    run_parser.add_argument(
        "--validate", action="store_true",
        help="statically verify every compiled PNG program "
             "(repro.analysis.nccheck) before simulation; a malformed "
             "plan fails fast with a PlanCheckError instead of "
             "deadlocking mid-run")
    run_parser.add_argument(
        "--trace-dir", default=".",
        help="directory for --trace output files (default: cwd)")
    run_parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject deterministic faults into every cycle-simulated "
             "run; SPEC is key=value pairs of FaultConfig fields, e.g. "
             "'seed=3,dram_bitflip_rate=1e-4,ecc=secded'")
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="snapshot every pass every N simulated cycles (0: off)")
    run_parser.add_argument(
        "--checkpoint-dir", default="checkpoints",
        help="directory for checkpoint snapshots (default: checkpoints)")
    run_parser.add_argument(
        "--resume-from", default=None, metavar="DIR",
        help="resume each pass from its newest snapshot in DIR "
             "(passes without one start from cycle 0)")
    run_parser.add_argument(
        "--memo-dir", default=None, metavar="DIR",
        help="persistent memo store for timing-pass outcomes; memoized "
             "passes are loaded from and stored to DIR, so a rerun "
             "replays timing from disk (hit/miss counters go to stderr "
             "and, with --json, the top-level '__memo__' key)")
    run_parser.add_argument(
        "--memo-max-bytes", type=int, default=None, metavar="N",
        help="size bound for --memo-dir; least-recently-used entries "
             "are evicted past N bytes (default: unbounded)")
    run_parser.add_argument(
        "--stream", type=int, default=None, metavar="N",
        help="stream N frames in streaming-capable experiments "
             "(ext_stream): timing is simulated once per distinct layer "
             "shape, then N frames replay it through the functional "
             "fast path")
    run_parser.add_argument(
        "--cubes", type=int, default=None, metavar="N",
        help="shard multi-cube-capable experiments (ext_shard) across "
             "N cubes: one process per cube with conservative link-time "
             "sync, bit-identical to the same shards run serially")
    sub.add_parser(
        "report",
        help="regenerate the paper-vs-measured summary (EXPERIMENTS.md "
             "headline table)")
    return parser


def serialize(value):
    """Recursively turn a result object into JSON-compatible data.

    Dataclasses become dicts, enums their values, numpy arrays a
    shape/max summary (a temperature field does not belong in a JSON
    report), and unknown objects their repr.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: serialize(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): serialize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [serialize(v) for v in value]
    if hasattr(value, "shape") and hasattr(value, "max"):
        return {"shape": list(value.shape), "max": float(value.max()),
                "min": float(value.min())}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for exp in sorted(EXPERIMENTS.values(), key=lambda e: e.exp_id):
            print(f"{exp.exp_id:<10} {exp.title}")
        return 0
    if args.command == "report":
        from repro.experiments.report import generate

        print(generate().to_table())
        return 0
    ids = (sorted(EXPERIMENTS) if args.ids == ["all"] else args.ids)
    faults = None
    if args.faults is not None:
        from repro.faults import FaultConfig

        faults = FaultConfig.from_spec(args.faults)
    checkpoint = _checkpoint_spec(args)
    if args.stream is not None:
        from repro.experiments import ext_stream

        ext_stream.set_frame_count(args.stream)
    if args.cubes is not None:
        from repro.experiments import ext_shard

        ext_shard.set_cube_count(args.cubes)
    memo_totals = None
    collected = {}
    try:
        for exp_id in ids:
            experiment = get_experiment(exp_id)
            result, memo_stats = _run_experiment(experiment, args, faults,
                                                 checkpoint)
            if memo_stats is not None:
                if memo_totals is None:
                    from repro.memo import MemoStats

                    memo_totals = MemoStats()
                memo_totals.merge(memo_stats)
            if args.json:
                collected[exp_id] = serialize(result)
            else:
                print(f"=== {experiment.exp_id}: {experiment.title} ===")
                print(result.to_table())
                print()
    finally:
        if args.stream is not None:
            from repro.experiments import ext_stream

            ext_stream.set_frame_count(None)
        if args.cubes is not None:
            from repro.experiments import ext_shard

            ext_shard.set_cube_count(None)
    if args.json:
        if memo_totals is not None:
            collected["__memo__"] = memo_totals.as_dict()
        print(json.dumps(collected, indent=2))
    return 0


def _checkpoint_spec(args):
    """Build a CheckpointSpec from the CLI flags, or None."""
    every = getattr(args, "checkpoint_every", 0)
    resume_from = getattr(args, "resume_from", None)
    if not every and resume_from is None:
        return None
    from repro.faults import CheckpointSpec

    directory = (resume_from if resume_from is not None
                 else getattr(args, "checkpoint_dir", "checkpoints"))
    return CheckpointSpec(directory=directory, every=every,
                          resume=resume_from is not None)


def _run_experiment(experiment, args, faults, checkpoint):
    """Run one experiment inside the run context the flags describe.

    Returns ``(result, memo_stats)`` — the second element is the memo
    directory's folded counters, or None when ``--memo-dir`` is off.
    Summaries go to stderr and, with ``--trace``, artifacts to the
    trace directory.
    """
    from repro.core.context import MemoDir, RunContext
    from repro.obs import TraceOptions

    exp_id = experiment.exp_id
    out_dir = None
    if args.trace:
        out_dir = pathlib.Path(args.trace_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    memo = (MemoDir(args.memo_dir, max_bytes=args.memo_max_bytes)
            if args.memo_dir is not None else None)
    with RunContext(trace=TraceOptions() if args.trace else None,
                    faults=faults, checkpoint=checkpoint, memo=memo,
                    validate=args.validate) as ctx:
        result = experiment.run()
    if faults is not None:
        _fault_summary(exp_id, ctx)
    if memo is not None:
        print(f"[memo] {exp_id}: {memo.total_stats().format()}",
              file=sys.stderr)
    if out_dir is not None:
        _write_artifacts(exp_id, ctx, out_dir)
    return result, memo.total_stats() if memo is not None else None


def _fault_summary(exp_id: str, ctx) -> None:
    """Print a run log's folded fault counters to stderr."""
    stats = ctx.total_fault_stats()
    nonzero = {name: value for name, value in stats.as_dict().items()
               if value}
    degraded = sum(len(run.degraded) for run in ctx.runs)
    print(f"[faults] {exp_id}: {len(ctx.runs)} runs, "
          f"counters {nonzero or '{}'}, {degraded} degraded results",
          file=sys.stderr)


def _write_artifacts(exp_id: str, ctx, out_dir: pathlib.Path) -> None:
    """Write a traced experiment's trace and manifest."""
    from repro.obs import manifest_from_context, write_manifest, write_trace

    trace = None
    if ctx.runs:
        trace_path = out_dir / f"trace_{exp_id}.json"
        with ctx.phase("trace_export"):
            trace = ctx.merged_trace()
            write_trace(trace, str(trace_path))
        print(f"[trace] wrote {trace_path} "
              f"({ctx.total_cycles} cycles, "
              f"{len(ctx.runs)} runs)", file=sys.stderr)
    manifest = manifest_from_context(exp_id, ctx, trace=trace)
    manifest_path = out_dir / f"manifest_{exp_id}.json"
    write_manifest(manifest, str(manifest_path))
    print(f"[trace] wrote {manifest_path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
