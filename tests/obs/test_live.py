"""Live-telemetry tests: registry semantics, OpenMetrics, heartbeats,
phase timers, and the simulator feed's bit-identity guarantee."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (
    MemoDir,
    NeurocubeSimulator,
    RunContext,
    compile_inference,
)
from repro.core.context import current_context
from repro.errors import ConfigurationError
from repro.faults import CheckpointSpec
from repro.fixedpoint import quantize_float
from repro.nn import models
from repro.obs import PHASES, LiveTelemetry, MetricsRegistry


def run_conv(config, live=None, size=12, seed=31, **sim_kwargs):
    """One functional conv-layer run, optionally with live telemetry."""
    net = models.single_conv_layer(size, size, 3, seed=seed)
    rng = np.random.default_rng(99)
    x = rng.standard_normal((1, size, size))
    desc = compile_inference(net, config).descriptors[0]
    quantised = quantize_float(np.asarray(x, dtype=np.float64),
                               config.qformat)
    simulator = NeurocubeSimulator(config, **sim_kwargs)
    if live is None:
        return simulator.run_descriptor(desc, net.layers[0], quantised)
    with RunContext(live=live):
        return simulator.run_descriptor(desc, net.layers[0], quantised)


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("runs", 1, layer="conv")
        reg.inc("runs", 2, layer="conv")
        reg.inc("runs", 5, layer="fc")
        assert reg.value("runs", layer="conv") == 3
        assert reg.value("runs", layer="fc") == 5
        assert reg.value("runs", layer="absent") == 0.0

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.inc("runs", -1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("util", 0.25)
        reg.set_gauge("util", 0.75)
        assert reg.value("util") == 0.75

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.inc("runs", 1)
        with pytest.raises(ConfigurationError):
            reg.set_gauge("runs", 1.0)

    def test_declared_family_type_enforced(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.set_gauge("neurocube_sim_cycles", 1.0)

    def test_invalid_family_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.inc("bad name", 1)

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("runs", 2, layer="conv")
        reg.observe("lat", 5)
        snap = reg.snapshot()
        assert snap["runs"]["type"] == "counter"
        assert snap["runs"]["samples"] == [
            {"labels": {"layer": "conv"}, "value": 2.0}]
        assert snap["lat"]["type"] == "histogram"
        assert snap["lat"]["samples"][0]["count"] == 1


class TestOpenMetrics:
    def test_counter_total_suffix_and_eof(self):
        reg = MetricsRegistry()
        reg.inc("neurocube_sim_cycles", 300)
        text = reg.to_openmetrics()
        assert "# TYPE neurocube_sim_cycles counter" in text
        assert "# HELP neurocube_sim_cycles" in text
        assert "neurocube_sim_cycles_total 300" in text
        assert text.endswith("# EOF\n")

    def test_gauge_has_no_suffix(self):
        reg = MetricsRegistry()
        reg.set_gauge("neurocube_pe_mac_utilization", 0.5, layer="conv")
        text = reg.to_openmetrics()
        assert ('neurocube_pe_mac_utilization{layer="conv"} 0.5'
                in text)
        assert "_total" not in text.replace("# EOF", "")

    def test_histogram_buckets_are_cumulative_powers_of_two(self):
        reg = MetricsRegistry()
        for value in (1, 3, 3, 10):
            reg.observe("neurocube_layer_cycles", value)
        lines = reg.to_openmetrics().splitlines()
        buckets = [line for line in lines if "_bucket" in line]
        # 1 -> le=2; 3,3 -> le=4; 10 -> le=16; then +Inf.
        assert 'neurocube_layer_cycles_bucket{le="2"} 1' in buckets
        assert 'neurocube_layer_cycles_bucket{le="4"} 3' in buckets
        assert 'neurocube_layer_cycles_bucket{le="16"} 4' in buckets
        assert buckets[-1] == (
            'neurocube_layer_cycles_bucket{le="+Inf"} 4')
        assert "neurocube_layer_cycles_count 4" in lines
        assert "neurocube_layer_cycles_sum 17" in lines

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.inc("runs", 1, layer='we"ird\\one')
        text = reg.to_openmetrics()
        assert 'layer="we\\"ird\\\\one"' in text


class TestPhaseTimers:
    def test_phase_bills_wall_time(self):
        live = LiveTelemetry()
        with live.phase("compile"):
            sum(range(1000))
        assert live.phase_seconds("compile") >= 0.0
        assert live.phase_seconds("simulate") == 0.0

    def test_breakdown_orders_nonzero_phases(self):
        live = LiveTelemetry()
        live.registry.inc("neurocube_phase_seconds", 2.0,
                          phase="trace_export")
        live.registry.inc("neurocube_phase_seconds", 1.0,
                          phase="compile")
        assert list(live.phase_breakdown()) == ["compile",
                                                "trace_export"]
        assert set(live.phase_breakdown()) <= set(PHASES)

    def test_context_phase_without_live_is_noop(self):
        assert current_context() is None
        with RunContext().phase("compile"):
            pass  # must not raise nor record anywhere

    def test_context_timer_without_live_is_none(self):
        assert RunContext().phase_factory("memo_io") is None

    def test_context_timer_bills_its_live(self):
        live = LiveTelemetry()
        factory = RunContext(live=live).phase_factory("checkpoint")
        with factory():
            pass
        assert live.phase_seconds("checkpoint") >= 0.0
        assert "checkpoint" not in live.phase_breakdown() or (
            live.phase_breakdown()["checkpoint"] > 0.0)

    def test_sessions_nest_innermost_wins(self):
        with RunContext(live=LiveTelemetry()) as outer:
            assert current_context() is outer
            with RunContext(live=LiveTelemetry()) as inner:
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is None


class TestHeartbeats:
    def test_negative_period_rejected(self):
        with pytest.raises(ConfigurationError):
            LiveTelemetry(heartbeat_cycles=-1)

    def test_disabled_period_never_snapshots(self):
        live = LiveTelemetry()
        live.advance_cycles(10_000)
        assert live.heartbeats == []
        assert live.registry.value("neurocube_heartbeats") == 0

    def test_multi_period_jump_collapses_to_one_heartbeat(self):
        live = LiveTelemetry(heartbeat_cycles=100)
        live.advance_cycles(50)
        assert live.heartbeats == []
        live.advance_cycles(375, label="conv")
        assert len(live.heartbeats) == 1
        live.advance_cycles(80)
        assert len(live.heartbeats) == 2

    def test_record_layout(self):
        live = LiveTelemetry(heartbeat_cycles=10)
        live.advance_cycles(25, label="conv")
        record = live.heartbeats[0]
        assert record["kind"] == "neurocube-heartbeat"
        assert record["version"] == 1
        assert record["seq"] == 0
        assert record["cycles"] == 25
        assert record["label"] == "conv"
        cycles = record["metrics"]["neurocube_sim_cycles"]
        assert cycles["samples"][0]["value"] == 25.0

    def test_jsonl_appended(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        live = LiveTelemetry(heartbeat_cycles=10,
                             heartbeat_path=str(path))
        live.advance_cycles(15)
        live.advance_cycles(15)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]


class TestSimulatorFeed:
    def test_results_bit_identical_with_telemetry_on(self, config):
        """The acceptance pin: a live session must not perturb the
        simulation — same outputs, same cycles, same counters."""
        bare = run_conv(config)
        live = LiveTelemetry(heartbeat_cycles=100)
        observed = run_conv(config, live=live)
        np.testing.assert_array_equal(bare.output, observed.output)
        assert bare.cycles == observed.cycles
        assert bare.packets == observed.packets
        assert bare.macs_fired == observed.macs_fired

    def test_layer_run_feeds_registry(self, config):
        live = LiveTelemetry(heartbeat_cycles=100)
        run = run_conv(config, live=live)
        reg = live.registry
        assert reg.value("neurocube_layer_runs", layer="conv") == 1
        assert reg.value("neurocube_sim_cycles") == run.cycles
        assert reg.value("neurocube_macs_fired") == run.macs_fired
        assert reg.value("neurocube_packets_delivered") == run.packets
        util = reg.value("neurocube_pe_mac_utilization", layer="conv")
        assert 0.0 < util <= 1.0
        assert live.heartbeats, "a >=100-cycle run must heartbeat"
        assert live.phase_seconds("simulate") > 0.0

    def test_run_network_times_compile_phase(self, config):
        net = models.single_conv_layer(10, 10, 3, seed=32)
        x = np.zeros((1, 10, 10))
        live = LiveTelemetry()
        with RunContext(live=live):
            _, report = NeurocubeSimulator(config).run_network(net, x)
        assert live.phase_seconds("compile") > 0.0
        assert report.layers

    def test_checkpoint_phase_billed(self, config, tmp_path):
        live = LiveTelemetry()
        spec = CheckpointSpec(directory=str(tmp_path), every=50)
        run = run_conv(config, live=live, checkpoint=spec)
        assert run.cycles > 50
        assert live.phase_seconds("checkpoint") > 0.0

    def test_memo_io_phase_billed(self, config, tmp_path):
        # The persistent store serves timing runs only, so run the
        # descriptor without an input tensor (no functional pass).
        memo = MemoDir(tmp_path)
        net = models.single_conv_layer(10, 10, 3, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        live = LiveTelemetry()
        with RunContext(live=live, memo=memo):
            NeurocubeSimulator(config).run_descriptor(desc)  # miss
        stored = live.phase_seconds("memo_io")
        assert stored > 0.0
        with RunContext(live=live, memo=memo):
            NeurocubeSimulator(config).run_descriptor(desc)  # hit
        assert live.phase_seconds("memo_io") > stored
        assert live.registry.value("neurocube_memo_lookups",
                                   outcome="hits") > 0

    def test_openmetrics_written(self, config, tmp_path):
        live = LiveTelemetry(heartbeat_cycles=100)
        run_conv(config, live=live)
        path = tmp_path / "metrics.txt"
        live.write_openmetrics(str(path))
        text = path.read_text()
        assert text.endswith("# EOF\n")
        assert "neurocube_sim_cycles_total" in text
        assert "neurocube_heartbeats_total 1" in text
