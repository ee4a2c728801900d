"""The CI benchmark-regression gate (tools/bench_compare.py)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"


def bench_json(times: dict[str, float],
               rates: dict[str, float] | None = None,
               faults: dict[str, dict] | None = None,
               memo: dict[str, dict] | None = None,
               stream: dict[str, float] | None = None) -> dict:
    """A minimal pytest-benchmark JSON document with given 'min' times.

    ``rates`` optionally attaches a ``simulated_cycles_per_second``
    extra_info entry per benchmark; ``faults`` a ``fault_counters``
    dict (as the ``record_fault_counters`` benchmark fixture does);
    ``memo`` a ``memo_counters`` dict (``record_memo_counters``);
    ``stream`` a ``warm_frames_per_second`` rate.
    """
    rates = rates or {}
    faults = faults or {}
    memo = memo or {}
    stream = stream or {}

    def extra(name: str) -> dict:
        info = {}
        if name in rates:
            info["simulated_cycles_per_second"] = rates[name]
        if name in faults:
            info["fault_counters"] = faults[name]
        if name in memo:
            info["memo_counters"] = memo[name]
        if name in stream:
            info["warm_frames_per_second"] = stream[name]
        return {"extra_info": info} if info else {}

    return {
        "benchmarks": [
            {"name": name,
             "stats": {"min": seconds, "max": seconds * 1.2,
                       "mean": seconds * 1.1, "median": seconds * 1.05,
                       "stddev": seconds * 0.01},
             **extra(name)}
            for name, seconds in times.items()
        ]
    }


def write(tmp_path: Path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True)


def test_identical_results_pass(tmp_path):
    baseline = write(tmp_path, "base.json",
                     bench_json({"test_a": 1.0, "test_b": 0.5}))
    current = write(tmp_path, "cur.json",
                    bench_json({"test_a": 1.0, "test_b": 0.5}))
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "no regressions" in result.stdout


def test_two_x_slowdown_fails(tmp_path):
    """The acceptance fixture: a synthetic 2x slowdown must gate."""
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    current = write(tmp_path, "cur.json", bench_json({"test_a": 2.0}))
    result = run_tool(baseline, current)
    assert result.returncode != 0
    assert "REGRESSION" in result.stdout


def test_slowdown_within_threshold_passes(tmp_path):
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    current = write(tmp_path, "cur.json", bench_json({"test_a": 1.25}))
    assert run_tool(baseline, current).returncode == 0


def test_custom_threshold(tmp_path):
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    current = write(tmp_path, "cur.json", bench_json({"test_a": 1.25}))
    assert run_tool(baseline, current,
                    "--threshold", "0.10").returncode == 1


def test_speedup_passes(tmp_path):
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    current = write(tmp_path, "cur.json", bench_json({"test_a": 0.4}))
    assert run_tool(baseline, current).returncode == 0


def test_speedup_factor_is_printed(tmp_path):
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    current = write(tmp_path, "cur.json", bench_json({"test_a": 0.25}))
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "4.00x speedup" in result.stdout


def test_sim_rate_speedup_is_informational(tmp_path):
    """A simulator-rate drop is reported but never gates: only the
    wall-clock metric can fail the run."""
    baseline = write(tmp_path, "base.json",
                     bench_json({"test_a": 1.0}, rates={"test_a": 1000.0}))
    current = write(tmp_path, "cur.json",
                    bench_json({"test_a": 1.0}, rates={"test_a": 500.0}))
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "500 sim cycles/s" in result.stdout
    assert "0.50x baseline rate" in result.stdout


def test_fault_counters_are_informational(tmp_path):
    """Fault/retry counters print on the benchmark line but never
    gate, even when the counters changed against the baseline."""
    baseline = write(tmp_path, "base.json",
                     bench_json({"test_a": 1.0},
                                faults={"test_a": {"retries": 2}}))
    current = write(tmp_path, "cur.json",
                    bench_json({"test_a": 1.0},
                               faults={"test_a": {"retries": 16,
                                                  "packets_lost": 3}}))
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "[faults: packets_lost=3, retries=16]" in result.stdout


def test_zero_fault_counters_stay_silent(tmp_path):
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    current = write(tmp_path, "cur.json",
                    bench_json({"test_a": 1.0},
                               faults={"test_a": {"retries": 0}}))
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "[faults:" not in result.stdout


def test_memo_counters_are_informational(tmp_path):
    """Memo-store hit/miss/reject counters print on the benchmark line
    but never gate — the store's correctness asserts live in the
    benchmarks themselves."""
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    current = write(tmp_path, "cur.json",
                    bench_json({"test_a": 1.0},
                               memo={"test_a": {"hits": 3, "misses": 1,
                                                "rejects": 0,
                                                "stores": 1,
                                                "evictions": 0}}))
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "[memo: hits=3, misses=1, stores=1]" in result.stdout


def test_zero_memo_counters_stay_silent(tmp_path):
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    current = write(tmp_path, "cur.json",
                    bench_json({"test_a": 1.0},
                               memo={"test_a": {"hits": 0}}))
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "[memo:" not in result.stdout


def test_stream_rate_is_informational_with_baseline_factor(tmp_path):
    """Warm streaming frames/s prints with the factor against the
    baseline's recorded rate, and a rate drop never gates by itself."""
    baseline = write(tmp_path, "base.json",
                     bench_json({"test_a": 1.0}, stream={"test_a": 200.0}))
    current = write(tmp_path, "cur.json",
                    bench_json({"test_a": 1.0}, stream={"test_a": 100.0}))
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "100 warm frames/s" in result.stdout
    assert "0.50x baseline rate" in result.stdout


def test_stream_rate_without_baseline(tmp_path):
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    current = write(tmp_path, "cur.json",
                    bench_json({"test_a": 1.0}, stream={"test_a": 150.0}))
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "150 warm frames/s" in result.stdout
    assert "baseline rate" not in result.stdout


def test_new_and_retired_benchmarks_do_not_gate(tmp_path):
    baseline = write(tmp_path, "base.json",
                     bench_json({"test_old": 1.0, "test_kept": 1.0}))
    current = write(tmp_path, "cur.json",
                    bench_json({"test_new": 9.0, "test_kept": 1.0}))
    result = run_tool(baseline, current)
    assert result.returncode == 0
    assert "new benchmark" in result.stdout
    assert "baseline only" in result.stdout


def test_malformed_json_is_an_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good = write(tmp_path, "good.json", bench_json({"test_a": 1.0}))
    result = run_tool(str(bad), good)
    assert result.returncode == 2
    assert "cannot read" in result.stderr


def test_missing_benchmarks_key_is_an_error(tmp_path):
    empty = write(tmp_path, "empty.json", {"machine_info": {}})
    good = write(tmp_path, "good.json", bench_json({"test_a": 1.0}))
    result = run_tool(empty, good)
    assert result.returncode == 2
    assert "benchmarks" in result.stderr


def test_zero_statistic_is_an_error(tmp_path):
    """A zero current 'min' is malformed input (exit 2), not a crash
    dividing by it."""
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    current = write(tmp_path, "cur.json", bench_json({"test_a": 0.0}))
    result = run_tool(baseline, current)
    assert result.returncode == 2
    assert "expected a positive number" in result.stderr
    assert "Traceback" not in result.stderr


def test_string_statistic_is_an_error(tmp_path):
    baseline = write(tmp_path, "base.json", bench_json({"test_a": 1.0}))
    payload = bench_json({"test_a": 1.0})
    payload["benchmarks"][0]["stats"]["min"] = "fast"
    current = write(tmp_path, "cur.json", payload)
    result = run_tool(baseline, current)
    assert result.returncode == 2
    assert "'fast'" in result.stderr
    assert "Traceback" not in result.stderr


def test_skipped_speedup_gate_is_flagged(tmp_path):
    """A benchmark that recorded fewer usable cores than its multi-core
    speedup gate needs says so; four or more cores stay silent."""
    baseline = write(tmp_path, "base.json",
                     bench_json({"test_a": 1.0, "test_b": 1.0}))
    payload = bench_json({"test_a": 1.0, "test_b": 1.0})
    payload["benchmarks"][0]["extra_info"] = {"usable_cores": 2}
    payload["benchmarks"][1]["extra_info"] = {"usable_cores": 4}
    current = write(tmp_path, "cur.json", payload)
    result = run_tool(baseline, current)
    assert result.returncode == 0
    lines = {line.split(":")[0].strip(): line
             for line in result.stdout.splitlines()}
    assert "[speedup gate skipped: 2 cores]" in lines["test_a"]
    assert "speedup gate" not in lines["test_b"]
