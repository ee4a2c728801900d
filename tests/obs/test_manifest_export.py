"""Manifest building/diffing and trace exporter format tests."""

from __future__ import annotations

import csv
import dataclasses
import json

import pytest

from repro.core import (
    NeurocubeConfig,
    NeurocubeSimulator,
    RunContext,
    compile_inference,
)
from repro.nn import models
from repro.obs import (
    SPAN_KINDS,
    TraceOptions,
    build_manifest,
    config_digest,
    diff_manifests,
    git_revision,
    load_manifest,
    load_trace,
    manifest_from_context,
    to_chrome_trace,
    write_chrome_trace,
    write_counters_csv,
    write_events_csv,
    write_manifest,
    write_trace,
)


@pytest.fixture(scope="module")
def session():
    """One ambient run context capturing a small traced conv run."""
    config = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(12, 12, 3, qformat=None)
    desc = compile_inference(net, config).descriptors[0]
    with RunContext(trace=TraceOptions(sample_interval=32)) as sess:
        NeurocubeSimulator(config).run_descriptor(desc)
    return sess


class TestConfigDigest:
    def test_stable_across_instances(self):
        assert (config_digest(NeurocubeConfig.hmc_15nm())
                == config_digest(NeurocubeConfig.hmc_15nm()))

    def test_any_field_change_changes_digest(self):
        base = NeurocubeConfig.hmc_15nm()
        changed = dataclasses.replace(base, n_mac=base.n_mac * 2)
        assert config_digest(base) != config_digest(changed)

    def test_git_revision_in_checkout(self):
        rev = git_revision()
        assert rev is None or (len(rev) == 40
                               and all(c in "0123456789abcdef"
                                       for c in rev))


class TestManifest:
    def test_session_manifest_totals(self, session):
        manifest = manifest_from_context("t", session)
        assert manifest["kind"] == "neurocube-manifest"
        assert manifest["totals"]["layers"] == 1
        assert manifest["totals"]["cycles"] == session.total_cycles
        assert manifest["config_hash"] == config_digest(session.config)
        assert manifest["layers"][0]["name"] == "conv"
        assert manifest["trace_summary"]["events"]

    def test_roundtrip(self, session, tmp_path):
        manifest = manifest_from_context("t", session)
        path = tmp_path / "manifest.json"
        write_manifest(manifest, str(path))
        assert load_manifest(str(path)) == json.loads(path.read_text())

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"benchmarks": []}))
        with pytest.raises(ValueError):
            load_manifest(str(path))

    def test_diff_flags_config_mismatch(self, session):
        a = manifest_from_context("a", session)
        b = dict(a, label="b", config_hash="deadbeefdeadbeef")
        text = diff_manifests(a, b)
        assert "CONFIG MISMATCH" in text

    def test_diff_reports_cycle_delta(self, session):
        a = manifest_from_context("a", session)
        b = json.loads(json.dumps(a))
        b["layers"][0]["cycles"] += 100
        b["totals"]["cycles"] += 100
        text = diff_manifests(a, b)
        assert "[+100" in text
        assert "conv" in text

    def test_build_manifest_without_config(self):
        manifest = build_manifest("bare")
        assert manifest["config"] is None
        assert manifest["config_hash"] is None
        assert manifest["totals"]["layers"] == 0


class TestChromeExport:
    def test_event_records_are_valid(self, session):
        chrome = to_chrome_trace(session.merged_trace())
        events = chrome["traceEvents"]
        assert events, "chrome export produced no events"
        for record in events:
            assert record["ph"] in ("M", "X", "i", "C")
            assert isinstance(record["pid"], int)
            assert isinstance(record["tid"], int)
            if record["ph"] != "M":
                assert isinstance(record["ts"], int)
                assert record["ts"] >= 0
            if record["ph"] == "X":
                assert record["dur"] >= 1

    def test_every_track_has_a_thread_name(self, session):
        trace = session.merged_trace()
        chrome = to_chrome_trace(trace)
        names = {record["args"]["name"]
                 for record in chrome["traceEvents"]
                 if record["ph"] == "M"
                 and record["name"] == "thread_name"}
        assert names == set(trace.tracks())

    def test_span_kinds_become_complete_events(self, session):
        chrome = to_chrome_trace(session.merged_trace())
        for record in chrome["traceEvents"]:
            if record["ph"] in ("X", "i"):
                expect = "X" if record["name"] in SPAN_KINDS else "i"
                assert record["ph"] == expect

    def test_file_roundtrip_is_json(self, session, tmp_path):
        path = tmp_path / "chrome.json"
        write_chrome_trace(session.merged_trace(), str(path))
        data = json.loads(path.read_text())
        assert data["otherData"]["simulated_cycles"] == (
            session.total_cycles)

    def test_other_data_carries_run_meta(self, session):
        """The exported file is self-describing: the run's layer/memo/
        fault annotations ride in otherData without the manifest."""
        trace = session.merged_trace()
        assert trace.meta["layer"] == "conv"
        assert trace.meta["kind"] == "conv"
        other = to_chrome_trace(trace)["otherData"]
        assert other["layer"] == "conv"
        assert other["kind"] == "conv"


class TestNativeAndCsvExport:
    def test_written_files_are_json_dumps_bytes(self, session, tmp_path):
        """Both writers encode in one ``json.dumps`` call: the files are
        exactly its bytes."""
        trace = session.merged_trace()
        native, chrome = tmp_path / "trace.json", tmp_path / "chrome.json"
        write_trace(trace, str(native))
        write_chrome_trace(trace, str(chrome))
        assert native.read_text() == json.dumps(trace.to_dict())
        assert chrome.read_text() == json.dumps(to_chrome_trace(trace))

    def test_native_roundtrip(self, session, tmp_path):
        trace = session.merged_trace()
        path = tmp_path / "trace.json"
        write_trace(trace, str(path))
        restored = load_trace(str(path))
        assert [tuple(e) for e in restored.events] == trace.events
        assert restored.cycles == trace.cycles
        assert restored.meta == trace.meta

    def test_counters_csv_parses(self, session, tmp_path):
        trace = session.merged_trace()
        path = tmp_path / "counters.csv"
        rows = write_counters_csv(trace, str(path))
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == rows == trace.counters.n_samples
        assert set(parsed[0]) == {"cycle", "counter", "value"}
        assert parsed[0]["cycle"].isdigit()

    def test_events_csv_parses(self, session, tmp_path):
        trace = session.merged_trace()
        path = tmp_path / "events.csv"
        rows = write_events_csv(trace, str(path))
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == rows == len(trace.events)
        assert set(parsed[0]) == {"kind", "cycle", "duration", "track",
                                  "args"}
