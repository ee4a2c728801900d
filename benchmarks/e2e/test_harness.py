"""Tests of the neurobench harness itself.

Two workloads run for one timed iteration each through the command
line; the self-time arithmetic, the trace file and the ``compare``
verdicts are checked on synthetic inputs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import neurobench
import tracing

SCRIPT = Path(neurobench.__file__).resolve()
BENCHMARK = neurobench.load_benchmark()


def _run(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), "run", *args],
                          capture_output=True, text=True, timeout=120,
                          cwd=cwd, check=False)


def _printed(lines: list[str]) -> dict[str, list[str]]:
    """Metric name -> [value, unit, n=...] from the human-readable lines."""
    return {tokens[0]: tokens[1:] for tokens in map(str.split, lines)
            if len(tokens) == 4 and tokens[3].startswith("n=")}


@pytest.mark.parametrize("workload, pinned, extras", [
    ("conv_smoke", 581, ["iter_p90_s"]),
    ("stream_memo", 24_416, ["fill_s", "replay_s", "warm_frames_per_s"]),
])
def test_run_prints_every_metric_with_its_unit(workload, pinned, extras):
    proc = _run("--workload", workload, "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    specs = neurobench.metric_specs(BENCHMARK)
    printed = _printed(lines)
    for spec in BENCHMARK["end_to_end"]:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert entry["value"] > 0
    assert set(result["metrics"]) == {s["name"]
                                      for s in BENCHMARK["end_to_end"]}
    for name in [s["name"] for s in BENCHMARK["end_to_end"]] + extras:
        assert printed[name][1] == specs[name]["unit"]
    assert float(printed["sim_cycles"][0]) == pinned
    assert float(printed["error_rate"][0]) == 0.0


def test_traced_run_reports_every_layer_metric_and_writes_spans():
    proc = _run("--workload", "conv_smoke", "--seconds", "0", "--seed",
                "3", "--trace")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {s["name"]
                                      for s in BENCHMARK["per_layer"]}
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert metrics["engine.passes"] == 1
    assert metrics["pe.macs_fired"] > 0
    assert metrics["trace.overhead"] > 0
    assert sum(metrics[f"{layer}.share"]
               for layer in tracing.LAYERS) == pytest.approx(1.0)

    with (neurobench.OUT_DIR / "trace-conv_smoke-seed3.json").open() as fh:
        trace = json.load(fh)
    assert trace["workload"] == "conv_smoke" and trace["seed"] == 3
    spans = trace["spans"]
    iterations = {s["id"] for s in spans if s["name"] == "iteration"}
    assert iterations
    for index, span in enumerate(spans):
        assert set(span) == {"id", "name", "parent", "iteration", "start",
                             "end", "folded", "attrs"}
        assert span["id"] == index and span["end"] >= span["start"]
        assert span["iteration"] in iterations
        if span["parent"] is not None:
            assert span["parent"] < span["id"]
        for self_s, calls in span["folded"].values():
            assert self_s >= 0 and calls >= 1
    engine = next(s for s in spans if s["name"] == "engine")
    assert {key.split(".")[0] for key in engine["folded"]} == {
        cls for _, cls, _, _ in tracing.FOLDED}
    assert engine["attrs"]["cycles"] == 581


def _span(span_id, name, start, end, parent, folded=None, attrs=None):
    return {"id": span_id, "name": name, "parent": parent, "iteration": 0,
            "start": start, "end": end, "folded": folded or {},
            "attrs": attrs or {}}


SYNTHETIC = [
    _span(0, "iteration", 0.0, 10.0, None),
    _span(1, "descriptor", 1.0, 9.0, 0),
    _span(2, "engine", 2.0, 8.0, 1,
          folded={"NeurosequenceGenerator.step": [2.0, 100],
                  "VaultChannel.step": [0.5, 80],
                  "Router.switch": [1.0, 40]},
          attrs={"cycles": 200}),
    _span(3, "scheduler", 8.0, 8.5, 1),
]


def test_self_time_subtracts_children_and_folded_calls():
    own = tracing.self_times(SYNTHETIC)
    assert own == pytest.approx({0: 2.0, 1: 1.5, 2: 2.5, 3: 0.5})
    seconds, calls = tracing.layer_self_times(SYNTHETIC)
    assert seconds["other"] == pytest.approx(3.5)
    assert seconds["engine"] == pytest.approx(2.5)
    assert seconds["png"] == pytest.approx(2.0)
    assert seconds["vault"] == pytest.approx(0.5)
    assert seconds["noc.router"] == pytest.approx(1.0)
    assert calls["png"] == 100 and calls["pe"] == 0


def test_shares_plus_other_sum_to_one_and_names_match_benchmark():
    metrics = tracing.layer_metrics(SYNTHETIC, untraced_p50_s=8.0)
    assert sum(metrics[f"{layer}.share"]
               for layer in tracing.LAYERS) == pytest.approx(1.0)
    assert metrics["other.share"] == pytest.approx(0.35)
    assert metrics["trace.overhead"] == pytest.approx(1.25)
    assert metrics["engine.host_us_per_cycle"] == pytest.approx(3e4)
    assert set(metrics) == {s["name"] for s in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("base, change, better, verdict", [
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 0.99], "lower", "unchanged"),
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "lower", "regressed"),
    ([1.0, 1.01, 0.99, 1.0], [0.5, 0.51, 0.49, 0.5], "lower", "improved"),
    ([1.0, 1.01, 0.99, 1.0], [0.7, 0.71, 0.69, 0.7], "higher", "regressed"),
    ([1.0, 2.0, 1.0, 2.0], [1.1, 2.1, 1.1, 2.1], "lower", "unresolved"),
    ([1.0, 2.0, 1.0, 2.0], [0.5, 0.9, 0.5, 0.9], "lower", "improved"),
    ([1.0, 1.2, 1.0, 1.2], [1.5, 1.9, 1.5, 1.9], "lower", "regressed"),
])
def test_compare_verdicts(base, change, better, verdict):
    assert neurobench.judge(base, change, better, 0.1)[0] == verdict


def _record(iter_p50_s, failed=0, cycles=581):
    metrics = {"iter_p50_s": iter_p50_s, "sim_cycles": cycles}
    return {"trace": False, "workloads": {"conv_smoke": {
        "attempted": 10, "failed": failed,
        "metrics": {name: {"value": value}
                    for name, value in metrics.items()}}}}


def _write(path: Path, records: list[dict]) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


@pytest.mark.parametrize("change, status", [
    (dict(iter_p50_s=0.2), 0),
    (dict(iter_p50_s=0.3), 1),
    (dict(iter_p50_s=0.2, failed=1), 1),
    (dict(iter_p50_s=0.2, cycles=580), 1),
])
def test_compare_exit_status(tmp_path, change, status):
    base = _write(tmp_path / "a.jsonl", [_record(0.2), _record(0.201)])
    other = _write(tmp_path / "b.jsonl", [_record(**change)] * 2)
    assert neurobench.main(["compare", base, other]) == status


def test_fails_without_the_program(tmp_path):
    """Holding only BENCHMARK.json and the benchmark's own files, the
    benchmark exits non-zero without printing a result."""
    shutil.copy(neurobench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(neurobench.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/neurobench.py", "run",
         "--workload", "conv_smoke", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
