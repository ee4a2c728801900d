"""Benchmark regression gate for CI.

Compares a fresh ``pytest-benchmark --benchmark-json`` result against a
committed baseline and exits nonzero when any shared benchmark regressed
by more than the threshold (default 30%).

Usage (installed as the ``bench_compare`` console script; from a
checkout use ``python tools/bench_compare.py`` with the same
arguments)::

    bench_compare baseline.json current.json \
        [--threshold 0.30] [--metric min]

The ``min`` statistic is the default comparison metric: it is the least
noisy of pytest-benchmark's aggregates (the fastest observed round is a
lower bound on the true cost, largely immune to scheduler jitter), which
matters when the baseline and the CI runner are different machines.

Exit codes: 0 all good, 1 regression found, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Usable cores a multi-core speedup gate needs before it asserts
#: (``benchmarks/conftest.py``'s ``speedup_gate``).
SPEEDUP_GATE_CORES = 4


class MalformedInput(Exception):
    """A benchmark file the gate cannot read; ``main`` exits 2."""


def load_benchmarks(path: str, metric: str = "min") -> dict[str, dict]:
    """Read one pytest-benchmark JSON file.

    Returns ``{name: {"stats": ..., "extra_info": ...}}``.  The
    ``extra_info`` block (simulator rates recorded by the benchmarks
    themselves) is informational only and never gated on.  Raises
    :class:`MalformedInput` when the file is unreadable, not a
    pytest-benchmark document, or any benchmark's ``metric`` statistic
    is not a positive number.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise MalformedInput(f"cannot read {path}: {error}") from error
    benchmarks = data.get("benchmarks") if isinstance(data, dict) else None
    if not isinstance(benchmarks, list):
        raise MalformedInput(
            f"{path} has no 'benchmarks' list — is it a "
            f"pytest-benchmark JSON file?")
    table: dict[str, dict] = {}
    for bench in benchmarks:
        name = bench.get("name") if isinstance(bench, dict) else None
        stats = bench.get("stats") if name else None
        if not isinstance(stats, dict):
            raise MalformedInput(f"malformed benchmark entry in {path}")
        value = stats.get(metric)
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not value > 0):
            raise MalformedInput(
                f"benchmark {name!r} in {path} has {metric!r} = "
                f"{value!r}; expected a positive number")
        table[name] = {"stats": stats,
                       "extra_info": bench.get("extra_info") or {}}
    return table


def _sim_rate_note(base_extra: dict, cur_extra: dict) -> str:
    """Informational simulator-rate note for one benchmark line.

    Shows the current ``simulated_cycles_per_second`` and, when the
    baseline recorded one too, the speedup factor against it.  Never
    gated on: the wall-clock metric is the gate, the simulator rate is
    the number a human wants to see move.
    """
    rate = cur_extra.get("simulated_cycles_per_second")
    if not rate:
        return ""
    base_rate = base_extra.get("simulated_cycles_per_second")
    if base_rate:
        return (f"  [{rate:,.0f} sim cycles/s, "
                f"{rate / base_rate:.2f}x baseline rate]")
    return f"  [{rate:,.0f} sim cycles/s]"


def _fault_note(cur_extra: dict) -> str:
    """Informational fault/retry-counter note for one benchmark line.

    Fault-injection benchmarks attach a ``fault_counters`` dict (the
    nonzero :class:`repro.faults.FaultStats` counters, e.g. ``retries``
    or ``packets_lost``) to ``extra_info``.  Like the simulator rate,
    these are printed for the human reading the log and never gated on:
    a seeded fault campaign's counters are deterministic, so a change
    here means the fault model changed, not that the code got slower.
    """
    counters = cur_extra.get("fault_counters")
    if not isinstance(counters, dict) or not counters:
        return ""
    shown = ", ".join(f"{name}={value}"
                      for name, value in sorted(counters.items()) if value)
    if not shown:
        return ""
    return f"  [faults: {shown}]"


def _memo_note(cur_extra: dict) -> str:
    """Informational memo-store counter note for one benchmark line.

    Memoization benchmarks attach a ``memo_counters`` dict (the nonzero
    :class:`repro.memo.MemoStats` counters, e.g. ``hits`` or
    ``rejects``) to ``extra_info``.  Printed for the human reading the
    log and never gated on: the bit-identity and speedup asserts live
    inside the benchmarks themselves, where a failure names the exact
    broken invariant instead of a generic slowdown.
    """
    counters = cur_extra.get("memo_counters")
    if not isinstance(counters, dict) or not counters:
        return ""
    shown = ", ".join(f"{name}={value}"
                      for name, value in sorted(counters.items()) if value)
    if not shown:
        return ""
    return f"  [memo: {shown}]"


def _stream_note(base_extra: dict, cur_extra: dict) -> str:
    """Informational streaming-throughput note for one benchmark line.

    Streaming benchmarks attach ``warm_frames_per_second`` (host-side
    replay rate of the functional fast path) to ``extra_info``.  Shown
    with the factor against the baseline when one exists; the hard
    throughput gate is the assert inside the benchmark itself.
    """
    rate = cur_extra.get("warm_frames_per_second")
    if not rate:
        return ""
    base_rate = base_extra.get("warm_frames_per_second")
    if base_rate:
        return (f"  [{rate:,.0f} warm frames/s, "
                f"{rate / base_rate:.2f}x baseline rate]")
    return f"  [{rate:,.0f} warm frames/s]"


def _cubes_note(cur_extra: dict) -> str:
    """Format multi-cube sharding counters when a benchmark attached any.

    Sharded benchmarks attach ``cubes`` (cluster size),
    ``intercube_comm_cycles`` (cycles spent at exchange barriers) and
    ``sharded_speedup`` (wall-clock factor over the serial sharded run).
    Informational only — the hard gates (bit-identity, >= 2x on 4
    cubes) are asserts inside the benchmarks themselves.
    """
    cubes = cur_extra.get("cubes")
    if not cubes:
        return ""
    parts = [f"cubes: {cubes}"]
    comm = cur_extra.get("intercube_comm_cycles")
    if comm is not None:
        parts.append(f"comm {comm:,.0f} cycles")
    speedup = cur_extra.get("sharded_speedup")
    if speedup is not None:
        parts.append(f"{speedup:.2f}x sharded speedup")
    return f"  [{', '.join(parts)}]"


def _cores_note(cur_extra: dict) -> str:
    """Flag a multi-core speedup gate that did not evaluate.

    Benchmarks using the ``speedup_gate`` fixture record
    ``usable_cores``; their >= 2x wall-clock assert only runs with at
    least four, so on a smaller host the line says the gate was skipped
    rather than letting a pass read as a measured speedup.
    """
    cores = cur_extra.get("usable_cores")
    if cores is None or cores >= SPEEDUP_GATE_CORES:
        return ""
    return f"  [speedup gate skipped: {cores} cores]"


def compare(baseline: dict[str, dict], current: dict[str, dict],
            threshold: float, metric: str) -> list[str]:
    """Return the names of benchmarks regressed past ``threshold``.

    Takes two :func:`load_benchmarks` tables read with the same
    ``metric``, so every compared statistic is a positive number.

    Prints one line per benchmark with the wall-clock speedup factor
    against the baseline (>1 faster, <1 slower; the gate fires when it
    drops below ``1 / (1 + threshold)``).  Benchmarks present on only
    one side are reported but never fail the gate — new benchmarks have
    no baseline yet and retired ones no longer matter.
    """
    regressions: list[str] = []
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            print(f"  - {name}: in baseline only (retired?)")
            continue
        if name not in baseline:
            print(f"  + {name}: new benchmark, no baseline")
            continue
        base_value = baseline[name]["stats"][metric]
        cur_value = current[name]["stats"][metric]
        regressed = cur_value / base_value > 1.0 + threshold
        marker = "REGRESSION" if regressed else "ok"
        note = _sim_rate_note(baseline[name]["extra_info"],
                              current[name]["extra_info"])
        note += _fault_note(current[name]["extra_info"])
        note += _memo_note(current[name]["extra_info"])
        note += _stream_note(baseline[name]["extra_info"],
                             current[name]["extra_info"])
        note += _cubes_note(current[name]["extra_info"])
        note += _cores_note(current[name]["extra_info"])
        print(f"  {name}: {metric} {base_value:.6g}s -> {cur_value:.6g}s "
              f"({base_value / cur_value:.2f}x speedup)  {marker}{note}")
        if regressed:
            regressions.append(name)
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmarks regress against a baseline.")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional slowdown "
                             "(default 0.30 = 30%%)")
    parser.add_argument("--metric", default="min",
                        choices=("min", "max", "mean", "median"),
                        help="pytest-benchmark statistic to compare "
                             "(default: min)")
    args = parser.parse_args(argv)

    try:
        baseline = load_benchmarks(args.baseline, args.metric)
        current = load_benchmarks(args.current, args.metric)
    except MalformedInput as error:
        print(f"bench_compare: {error}", file=sys.stderr)
        return 2
    print(f"bench_compare: threshold +{args.threshold:.0%} on "
          f"'{args.metric}'")
    regressions = compare(baseline, current, args.threshold, args.metric)
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s): "
              f"{', '.join(regressions)}")
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
