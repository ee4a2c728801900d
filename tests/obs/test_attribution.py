"""Bottleneck-attribution tests: verdict logic, report/manifest
rendering, schema-version tolerance, and the ncprof front end."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core import NeurocubeSimulator, RunContext, compile_inference
from repro.errors import SchemaMismatch
from repro.nn import models
from repro.obs import (
    TraceOptions,
    diff_manifests,
    load_manifest,
    manifest_from_context,
    write_manifest,
)
from repro.obs.attribution import (
    STALL_DOMINANCE,
    VERDICTS,
    LayerAttribution,
    attribute_layers,
)
from repro.obs.ncprof import main as ncprof_main


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced conv run: (config, session, descriptors, stats)."""
    from repro.core import NeurocubeConfig

    config = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(12, 12, 3, qformat=None)
    program = compile_inference(net, config)
    with RunContext(trace=TraceOptions(sample_interval=32)) as sess:
        NeurocubeSimulator(config).run_descriptor(
            program.descriptors[0])
    stats = [run.to_stats() for run in sess.runs]
    return config, sess, program.descriptors, stats


class TestAttributeLayers:
    def test_verdict_and_prediction(self, traced):
        config, _, descriptors, stats = traced
        rows = attribute_layers(stats, descriptors, config)
        assert len(rows) == 1
        row = rows[0]
        assert row.verdict in VERDICTS
        assert row.name == "conv"
        assert row.measured_cycles == stats[0].cycles
        assert row.predicted_cycles > 0
        assert row.gap == pytest.approx(
            (row.measured_cycles - row.predicted_cycles)
            / row.predicted_cycles)
        assert abs(sum(row.shares.values()) - 1.0) < 1e-9
        assert row.top_counters
        assert row.top_counters[0][1] >= row.top_counters[-1][1]

    def test_stall_override(self, traced):
        config, _, descriptors, stats = traced
        stalled = dataclasses.replace(
            stats[0],
            search_stall_cycles=int(stats[0].cycles * config.n_pe))
        row = attribute_layers([stalled], descriptors, config)[0]
        assert row.verdict == "stall-dominated"
        assert row.stall_share >= STALL_DOMINANCE

    def test_unmatched_layers_skipped(self, traced):
        config, _, descriptors, stats = traced
        ghost = dataclasses.replace(stats[0], name="not-compiled")
        rows = attribute_layers([ghost, stats[0]], descriptors, config)
        assert [row.name for row in rows] == ["conv"]

    def test_roundtrip_and_format(self, traced):
        config, _, descriptors, stats = traced
        row = attribute_layers(stats, descriptors, config)[0]
        assert LayerAttribution.from_dict(row.to_dict()) == row
        text = row.format()
        assert row.verdict in text
        assert "gap" in text and "vs analytic" in text


class TestReportRendering:
    def test_run_network_attributes_under_session(self, config):
        net = models.single_conv_layer(10, 10, 3, seed=41)
        x = np.zeros((1, 10, 10))
        with RunContext(trace=TraceOptions()):
            _, report = NeurocubeSimulator(config).run_network(net, x)
        assert report.attribution
        assert report.attribution[0].verdict in VERDICTS
        table = report.to_table()
        assert "ATTRIBUTION:" in table
        assert report.attribution[0].verdict in table

    def test_bare_run_skips_attribution(self, config):
        net = models.single_conv_layer(10, 10, 3, seed=41)
        _, report = NeurocubeSimulator(config).run_network(
            net, np.zeros((1, 10, 10)))
        assert report.attribution == []
        assert "ATTRIBUTION:" not in report.to_table()


class TestManifestSchema:
    def test_v2_manifest_embeds_attribution(self, traced):
        _, session, _, _ = traced
        manifest = manifest_from_context("t", session)
        assert manifest["version"] == 2
        assert manifest["attribution"][0]["name"] == "conv"
        assert manifest["attribution"][0]["verdict"] in VERDICTS

    def test_load_rejects_unsupported_version(self, traced, tmp_path):
        _, session, _, _ = traced
        manifest = manifest_from_context("t", session)
        manifest["version"] = 99
        path = tmp_path / "future.json"
        write_manifest(manifest, str(path))
        with pytest.raises(SchemaMismatch):
            load_manifest(str(path))

    def test_v1_manifest_still_loads(self, traced, tmp_path):
        _, session, _, _ = traced
        manifest = manifest_from_context("t", session)
        manifest["version"] = 1
        manifest.pop("attribution", None)
        path = tmp_path / "old.json"
        write_manifest(manifest, str(path))
        assert load_manifest(str(path))["version"] == 1

    def test_diff_tolerates_cross_version(self, traced):
        _, session, _, _ = traced
        new = manifest_from_context("new", session)
        old = json.loads(json.dumps(new))
        old["version"] = 1
        old.pop("attribution", None)
        old["label"] = "old"
        text = diff_manifests(old, new)
        assert "schema: v1 vs v2" in text
        assert "TOTAL" in text  # the cycle diff still renders


class TestNcprofAttribute:
    @pytest.fixture(scope="class")
    def manifest_path(self, traced, tmp_path_factory):
        _, session, _, _ = traced
        path = tmp_path_factory.mktemp("attr") / "manifest.json"
        write_manifest(manifest_from_context("t", session), str(path))
        return path

    def test_prints_verdicts(self, manifest_path, capsys):
        assert ncprof_main(["attribute", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "conv:" in out
        assert any(verdict in out for verdict in VERDICTS)

    def test_json_mode(self, manifest_path, capsys):
        assert ncprof_main(
            ["attribute", str(manifest_path), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["name"] == "conv"

    def test_explains_missing_block(self, manifest_path, tmp_path,
                                    capsys):
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 1
        manifest.pop("attribution", None)
        bare = tmp_path / "v1.json"
        bare.write_text(json.dumps(manifest))
        assert ncprof_main(["attribute", str(bare)]) == 1
        assert "no attribution block" in capsys.readouterr().out

    def test_diff_reports_schema_mismatch(self, manifest_path,
                                          tmp_path, capsys):
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        future = tmp_path / "future.json"
        future.write_text(json.dumps(manifest))
        code = ncprof_main(["diff", str(manifest_path), str(future)])
        assert code == 2
        err = capsys.readouterr().err
        assert "schema version 99" in err
        assert "re-record" in err
