"""End-to-end test of the ncprof CLI (record -> summary -> export -> diff)."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "ncprof.py"


@pytest.fixture(scope="module")
def ncprof():
    spec = importlib.util.spec_from_file_location("ncprof", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["ncprof"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def recorded(ncprof, tmp_path_factory):
    out = tmp_path_factory.mktemp("ncprof")
    code = ncprof.main(["record", "--out", str(out), "--label", "t",
                        "--size", "12", "--sample-interval", "32"])
    assert code == 0
    return out


def test_record_writes_trace_and_manifest(recorded):
    trace = json.loads((recorded / "trace_t.json").read_text())
    manifest = json.loads((recorded / "manifest_t.json").read_text())
    assert trace["kind"] == "neurocube-trace"
    assert trace["events"]
    assert manifest["kind"] == "neurocube-manifest"
    assert manifest["totals"]["cycles"] > 0


def test_record_manifest_holds_host_phases(recorded):
    manifest = json.loads((recorded / "manifest_t.json").read_text())
    assert {"compile", "simulate"} <= set(manifest["phases"])
    assert set(manifest["phases"]) <= {"compile", "simulate", "memo_io",
                                       "checkpoint", "trace_export"}
    assert manifest["attribution"]


def test_summary_of_trace(ncprof, recorded, capsys):
    assert ncprof.main(["summary", str(recorded / "trace_t.json")]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out and "pe.fire" in out and "packet latency" in out


def test_summary_of_manifest(ncprof, recorded, capsys):
    assert ncprof.main(
        ["summary", str(recorded / "manifest_t.json")]) == 0
    out = capsys.readouterr().out
    assert "manifest: t" in out and "conv" in out


def test_summary_rejects_foreign_json(ncprof, recorded, tmp_path,
                                      capsys):
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"benchmarks": []}))
    assert ncprof.main(["summary", str(alien)]) == 2
    assert "not a neurocube manifest" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["summary", "diff", "attribute"])
@pytest.mark.parametrize("bad", ["list", "non-json", "v99"])
def test_malformed_input_exits_2(ncprof, recorded, tmp_path, capsys,
                                 command, bad):
    """Every manifest reader refuses bad input with a message and exit
    2: no traceback, and no summary of a schema it cannot read."""
    future = json.loads((recorded / "manifest_t.json").read_text())
    future["version"] = 99
    path = tmp_path / "bad.json"
    path.write_text({"list": "[1, 2, 3]", "non-json": "{not json",
                     "v99": json.dumps(future)}[bad])
    args = [command, str(path)]
    if command == "diff":
        args.append(str(recorded / "manifest_t.json"))
    assert ncprof.main(args) == 2
    captured = capsys.readouterr()
    assert f"ncprof: {path}" in captured.err
    assert captured.out == ""


def test_export_chrome(ncprof, recorded):
    trace_path = recorded / "trace_t.json"
    assert ncprof.main(["export", str(trace_path),
                        "--format", "chrome"]) == 0
    chrome = json.loads((recorded / "trace_t.chrome.json").read_text())
    assert chrome["traceEvents"]
    assert all("ph" in e and "pid" in e and "tid" in e
               for e in chrome["traceEvents"])


def test_export_csv(ncprof, recorded):
    trace_path = recorded / "trace_t.json"
    assert ncprof.main(["export", str(trace_path),
                        "--format", "csv"]) == 0
    counters = (recorded / "trace_t.counters.csv").read_text()
    events = (recorded / "trace_t.events.csv").read_text()
    assert counters.startswith("cycle,counter,value")
    assert events.startswith("kind,cycle,duration,track,args")


def test_diff_identical_manifests(ncprof, recorded, capsys):
    manifest = str(recorded / "manifest_t.json")
    assert ncprof.main(["diff", manifest, manifest]) == 0
    out = capsys.readouterr().out
    assert "identical" in out and "TOTAL" in out
