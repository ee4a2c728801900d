"""neurobench: end-to-end and per-simulator-layer benchmark of ``repro``.

Run from the repository root::

    python3 benchmarks/e2e/neurobench.py run [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE]
    python3 benchmarks/e2e/neurobench.py compare A B

``run`` measures each workload in its own child process, one child at a
time, with ``sim_workers=1`` and ``NEUROCUBE_SIM_WORKERS`` removed from
the child's environment.  A child sets the workload up, runs its
warm-up iterations, then runs timed iterations back to back for
``--seconds``.  Every iteration is checked; a failed check is counted,
never fatal.  Set-up is measured in three fresh processes (two set-up
probes and the measuring child) and reported as their median plus the
measuring child's warm-up time.

Host times are normalised for the host's speed drift by
:mod:`hostspeed`: each child samples a fixed reference loop on a timer
signal, and every timed window is scaled to the speed at which that
loop takes ``hostspeed.REF_S``.  The raw wall-clock median rides along
as ``iter_p50_wall_s``, with the mean loop time as ``ref_s``.

With ``--trace`` the child spends half of ``--seconds`` untraced and
half with the :mod:`tracing` wrappers installed, and reports the
per-layer metrics instead of the end-to-end ones; the spans go to
``.neurobench/trace-<workload>-seed<N>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` appends the
full record of the run (environment, every metric with its sample
count) as one JSON line; ``compare A B`` judges two such files against
the bounds in ``BENCHMARK.json`` and exits non-zero on any regression.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

import hostspeed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".neurobench"
SIM_WORKERS_ENV = "NEUROCUBE_SIM_WORKERS"

#: Set-up probes spawned before the measuring child; with the child's
#: own set-up they give three samples of ``setup_s``.
SETUP_PROBES = 2

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170

#: Metrics only some workloads have.  ``BENCHMARK.json`` lists those
#: that every workload reports; these ride along in the result file and
#: ``compare`` judges them against the bounds here.
EXTRA_METRICS = {
    "iter_p90_s": {"unit": "s", "better": "lower", "bound": 0.15},
    "fill_s": {"unit": "s", "better": "lower", "bound": 0.15},
    "replay_s": {"unit": "s", "better": "lower", "bound": 0.15},
    "warm_frames_per_s": {"unit": "frames/s", "better": "higher",
                          "bound": 0.15},
}

#: Metrics with no bound.  In ``compare`` any change in ``sim_cycles``
#: and any rise in ``error_rate`` fail; the raw wall-clock numbers are
#: not judged.
UNBOUNDED_METRICS = {"sim_cycles": "cycles/iter",
                     "error_rate": "failed/attempted",
                     "iter_p50_wall_s": "s", "ref_s": "s"}

NOTES = (
    "PE caches start empty on every pass: each simulated pass builds "
    "fresh PEs.",
    "Outputs are checked bit-exactly against the numpy Q1.7.8 reference; "
    "the cycle model has no silicon reference here, so no cycle-accuracy "
    "error is given.",
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed iteration)."""


def load_benchmark() -> dict:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def metric_specs(benchmark: dict) -> dict[str, dict]:
    """Unit, direction and bound of every metric, by name."""
    specs = {spec["name"]: spec
             for spec in benchmark["end_to_end"] + benchmark["per_layer"]}
    specs.update(EXTRA_METRICS)
    specs.update({name: {"unit": unit} for name, unit
                  in UNBOUNDED_METRICS.items()})
    return specs


# ----------------------------------------------------------------------
# child process: set up, warm up, time, check
# ----------------------------------------------------------------------

class _Tally:
    """Attempted and failed iterations of one child, warm-up included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []


def _iterate(workload, tally: _Tally, recorder=None):
    """Run, time and check one iteration.

    Returns (start, end, outcome) with ``time.perf_counter`` readings
    around the timed call.  A raised error or a failed check counts the
    iteration as failed and the run goes on; a raised error returns
    None.
    """
    inputs = workload.inputs()
    tally.attempted += 1
    sample = None
    try:
        with (recorder.iteration() if recorder is not None
              else contextlib.nullcontext()):
            start = time.perf_counter()
            outcome = workload.run(inputs)
            end = time.perf_counter()
    except Exception as error:  # a failing iteration must not end the run
        traceback.print_exc(file=sys.stderr)
        failures = [f"{type(error).__name__}: {error}"]
    else:
        sample = (start, end, outcome)
        failures = workload.check(inputs, outcome)
        if outcome.cycles != workload.cycles:
            failures.append(f"simulated {outcome.cycles} cycles, "
                            f"pinned {workload.cycles}")
    if failures:
        tally.failed += 1
        tally.failures.extend(failures)
    return sample


def _loop(workload, tally: _Tally, seconds: float | None = None,
          count: int | None = None, recorder=None) -> list:
    """Iterate ``count`` times, or for ``seconds`` (at least once)."""
    samples = []
    start = time.perf_counter()
    done = 0
    while (done < count if count is not None
           else done == 0 or time.perf_counter() - start < seconds):
        sample = _iterate(workload, tally, recorder)
        if sample is not None:
            samples.append(sample)
        done += 1
    return samples


def _percentile(values: list[float], percent: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[percent - 1]


def _e2e_metrics(workload, samples: list, sampler) -> dict:
    """End-to-end metrics of the timed samples, each with its count."""
    if not samples:
        return {}
    n = len(samples)
    times = [sampler.seconds(start, end) for start, end, _ in samples]
    outcomes = [outcome for _, _, outcome in samples]
    phases = {key: [sampler.seconds(*o.phases[key]) for o in outcomes]
              for key in outcomes[0].phases}
    rate_seconds = (times if workload.rate_phase is None
                    else phases[workload.rate_phase])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "iter_p50_s": (statistics.median(times), n),
        "sim_cycles_per_s": (statistics.median(
            o.cycles / seconds
            for o, seconds in zip(outcomes, rate_seconds, strict=True)), n),
        "peak_rss_mb": (peak_kib / 1024, 1),
        "sim_cycles": (statistics.mode(o.cycles for o in outcomes), n),
        "iter_p50_wall_s": (statistics.median(end - start for start, end, _
                                              in samples), n),
        "ref_s": (hostspeed.REF_S / sampler.scale(samples[0][0],
                                                  samples[-1][1]), n),
    }
    if workload.tail:
        metrics["iter_p90_s"] = (_percentile(times, 90), n)
    for key, values in phases.items():
        metrics[key] = (statistics.median(values), n)
    for key in outcomes[0].rates:
        # A rate per wall second becomes a rate per normalised second.
        rates = []
        for outcome in outcomes:
            rate, phase = outcome.rates[key]
            rates.append(rate / sampler.scale(*outcome.phases[phase]))
        metrics[key] = (statistics.median(rates), n)
    return metrics


def run_child(args: argparse.Namespace) -> dict:
    """Measure one workload in this process; returns the raw record."""
    sampler = hostspeed.SpeedSampler()
    entered = time.perf_counter()
    sampler.start()
    try:
        OUT_DIR.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="child-", dir=OUT_DIR))
        try:
            return _measure(args, sampler, entered, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    finally:
        sampler.stop()


def _measure(args, sampler, entered: float, scratch: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import workloads  # imports repro from this checkout's src/

    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    ready = time.perf_counter()
    # From spawn, so interpreter start-up counts; the speed is the one
    # sampled between entry and ready.
    record = {"ready_s": ((time.time() - args.spawned_at)
                          * sampler.scale(entered, ready))}
    if args.setup_only:
        return record
    tally = _Tally()
    _loop(workload, tally, count=workload.warmup)
    record["warmup_s"] = sampler.seconds(ready, time.perf_counter())
    seconds = args.seconds / 2 if args.trace else args.seconds
    samples = _loop(workload, tally, seconds=seconds)
    record["iterations"] = len(samples)
    if args.trace:
        recorder = tracing.Recorder()
        with recorder.installed():
            traced = _loop(workload, tally, seconds=seconds,
                           recorder=recorder)
        untraced_p50 = (statistics.median(sampler.seconds(start, end)
                                          for start, end, _ in samples)
                        if samples else 0.0)
        scale = (sampler.scale(traced[0][0], traced[-1][1])
                 if traced else 1.0)
        metrics = tracing.layer_metrics(recorder.spans, untraced_p50,
                                        scale)
        record["metrics"] = {name: (value, len(traced))
                             for name, value in metrics.items()}
        record["traced_iterations"] = len(traced)
        trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        with trace_file.open("w") as handle:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "untraced_p50_s": untraced_p50, "scale": scale,
                       "spans": recorder.spans}, handle)
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        record["metrics"] = _e2e_metrics(workload, samples, sampler)
    record.update(warmup=workload.warmup, attempted=tally.attempted,
                  failed=tally.failed, failures=tally.failures[:20])
    return record


# ----------------------------------------------------------------------
# parent process: spawn children, report
# ----------------------------------------------------------------------

def _spawn(workload: str, seed: int, seconds: float, trace: int,
           setup_only: bool = False) -> dict:
    """Run one child to completion and return its record."""
    env = {key: value for key, value in os.environ.items()
           if key != SIM_WORKERS_ENV}
    command = [sys.executable, str(Path(__file__).resolve()), "child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired as error:
        raise HarnessError(f"{workload}: child ran past "
                           f"{CHILD_TIMEOUT_S} s") from error
    if proc.returncode != 0:
        raise HarnessError(f"{workload}: child exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            specs: dict) -> dict:
    """One workload's result: metrics with unit and sample count."""
    ready = [_spawn(workload, seed, 0, 0, setup_only=True)["ready_s"]
             for _ in range(0 if trace else SETUP_PROBES)]
    child = _spawn(workload, seed, seconds, trace)
    metrics = {name: {"value": value, "unit": specs[name]["unit"], "n": n}
               for name, (value, n) in child["metrics"].items()}
    if not trace:
        ready.append(child["ready_s"])
        metrics["setup_s"] = {
            "value": statistics.median(ready) + child["warmup_s"],
            "unit": "s", "n": len(ready)}
        metrics["error_rate"] = {
            "value": child["failed"] / child["attempted"],
            "unit": UNBOUNDED_METRICS["error_rate"],
            "n": child["attempted"]}
    result = {key: child[key] for key in
              ("attempted", "failed", "failures", "warmup", "iterations")}
    result["metrics"] = metrics
    if trace:
        result["traced_iterations"] = child["traced_iterations"]
        result["trace_file"] = child["trace_file"]
    return result


def _git_rev() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "git_rev": _git_rev(),
            "sim_workers": 1,
            "children_at_once": 1}


def _print_result(name: str, result: dict, seed: int,
                  seconds: float, trace: int) -> None:
    timed = f"{result['iterations']} timed"
    if trace:
        timed = (f"{result['iterations']} untraced + "
                 f"{result['traced_iterations']} traced")
    print(f"== {name} (seed {seed}, {seconds:g} s): {timed} iterations "
          f"after {result['warmup']} warm-up, {result['failed']}/"
          f"{result['attempted']} iterations failed")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    for metric, entry in result["metrics"].items():
        print(f"   {metric:<28} {entry['value']:>16.6f} "
              f"{entry['unit']:<16} n={entry['n']}")


def run_main(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"neurobench: no repro package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    specs = metric_specs(benchmark)
    known = [workload["name"] for workload in benchmark["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"neurobench: unknown workload(s) {unknown}; choose from "
              f"{known}", file=sys.stderr)
        return 2
    seconds = (args.seconds if args.seconds is not None
               else benchmark["run_seconds"])
    env = environment()
    print("neurobench environment: " + json.dumps(env))
    for note in NOTES:
        print(f"note: {note}")
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, seconds, args.trace,
                                    specs)
            _print_result(name, results[name], args.seed, seconds,
                          args.trace)
    except HarnessError as error:
        print(f"neurobench: {error}", file=sys.stderr)
        return 1
    if args.out:
        record = {"env": env, "seed": args.seed, "seconds": seconds,
                  "trace": bool(args.trace), "workloads": results}
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    reported = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for spec in reported:
            entry = result["metrics"].get(spec["name"])
            if entry is not None:
                metrics[prefix + spec["name"]] = {"value": entry["value"],
                                                  "unit": entry["unit"]}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"]
                                       for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base: list[float], change: list[float], better: str,
          bound: float) -> tuple[str, float]:
    """Verdict on ``change`` against ``base``, and its relative worsening.

    When either side's spread (quartile distance over median) is wider
    than the bound, the verdict is "unresolved" unless every run of one
    side beats every run of the other.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    change_q1, change_median, change_q3 = quartiles(change)
    worse = sign * (change_median - base_median) / base_median
    spread = max((base_q3 - base_q1) / base_median,
                 (change_q3 - change_q1) / change_median)
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    all_worse = all(sign * (c - b) > 0 for c in change for b in base)
    if spread > bound:
        if all_better:
            return "improved", worse
        if all_worse and worse > bound:
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > bound:
        return "improved", worse
    return "unchanged", worse


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced per-workload results of every run in a result file."""
    runs: dict[str, list[dict]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, result in record["workloads"].items():
                runs.setdefault(name, []).append(result)
    return runs


def _values(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def compare_workload(name: str, base: list[dict], change: list[dict],
                     specs: dict) -> bool:
    """Print one workload's verdicts; True when it must fail compare."""
    failing = False
    print(f"== {name}: {len(base)} runs vs {len(change)} runs")
    bounded = [m for m, spec in specs.items() if "bound" in spec]
    for metric in bounded:
        a, b = _values(base, metric), _values(change, metric)
        if not a or not b:
            continue
        spec = specs[metric]
        verdict, worse = judge(a, b, spec["better"], spec["bound"])
        failing |= verdict == "regressed"
        print(f"   {metric:<20} {_fmt(a):<40} {_fmt(b):<40} "
              f"{100 * worse:+7.2f}% worse  bound {100 * spec['bound']:g}%"
              f"  {verdict}")
    cycles_a = set(_values(base, "sim_cycles"))
    cycles_b = set(_values(change, "sim_cycles"))
    if cycles_a != cycles_b:
        failing = True
        print(f"   sim_cycles changed: {sorted(cycles_a)} -> "
              f"{sorted(cycles_b)}")
    rate_a = (sum(r["failed"] for r in base)
              / sum(r["attempted"] for r in base))
    rate_b = (sum(r["failed"] for r in change)
              / sum(r["attempted"] for r in change))
    if rate_b > rate_a:
        failing = True
    print(f"   error_rate {rate_a:.4f} -> {rate_b:.4f}"
          f"{'  regressed' if rate_b > rate_a else ''}")
    return failing


def compare_main(args: argparse.Namespace) -> int:
    try:
        base, change = load_runs(args.base), load_runs(args.change)
    except (OSError, ValueError, KeyError) as error:
        print(f"neurobench compare: cannot read results: {error}",
              file=sys.stderr)
        return 2
    specs = metric_specs(load_benchmark())
    failing = False
    for name in sorted(set(base) | set(change)):
        if name not in base or name not in change:
            print(f"== {name}: only in "
                  f"{args.base if name in base else args.change}")
            continue
        failing |= compare_workload(name, base[name], change[name], specs)
    return 1 if failing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="neurobench",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads")
    child = commands.add_parser("child", help=argparse.SUPPRESS)
    for sub in (run, child):
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--seconds", type=float,
                         default=None if sub is run else 0.0)
        sub.add_argument("--trace", type=int, nargs="?", const=1,
                         default=0, choices=(0, 1))
    run.add_argument("--workload", nargs="+", action="extend")
    run.add_argument("--out", help="append the run's record to this file")
    child.add_argument("--workload", required=True)
    child.add_argument("--setup-only", action="store_true")
    child.add_argument("--spawned-at", type=float, required=True)
    compare = commands.add_parser("compare",
                                  help="judge result file B against A")
    compare.add_argument("base")
    compare.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "child":
        print(json.dumps(run_child(args)))
        return 0
    if args.command == "compare":
        return compare_main(args)
    if args.seconds is not None and args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main())
