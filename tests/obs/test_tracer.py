"""Tracer, counter-series and trace-structure unit tests."""

from __future__ import annotations

import pytest

from repro.core import NeurocubeSimulator, compile_inference
from repro.nn import models
from repro.obs import (
    CACHE_EVICT,
    CACHE_PARK,
    MAC_FIRE,
    NOC_DELIVER,
    PNG_INJECT,
    SKIP_AHEAD,
    SPAN_KINDS,
    VAULT_READ,
    CounterSeries,
    LatencyHistogram,
    Trace,
    TraceOptions,
    Tracer,
)


def small_conv_run(config, trace=None):
    net = models.single_conv_layer(12, 12, 3, qformat=None)
    desc = compile_inference(net, config).descriptors[0]
    return NeurocubeSimulator(config, trace=trace).run_descriptor(desc)


class TestTracerHooks:
    def test_traced_run_records_all_event_kinds(self, config):
        run = small_conv_run(config, trace=TraceOptions())
        counts = run.trace.kind_counts()
        for kind in (PNG_INJECT, NOC_DELIVER, VAULT_READ, MAC_FIRE,
                     CACHE_PARK, CACHE_EVICT, SKIP_AHEAD):
            assert counts.get(kind, 0) > 0, f"no {kind} events"

    def test_untraced_run_has_no_trace(self, config):
        run = small_conv_run(config)
        assert run.trace is None

    def test_tracing_never_changes_results(self, config):
        plain = small_conv_run(config)
        traced = small_conv_run(config, trace=TraceOptions())
        assert traced.cycles == plain.cycles
        assert traced.packets == plain.packets
        assert traced.macs_fired == plain.macs_fired

    def test_histogram_counts_every_delivery(self, config):
        run = small_conv_run(config, trace=TraceOptions())
        assert run.trace.latency.count == run.packets
        assert len(run.trace.events_of_kind(NOC_DELIVER)) == run.packets

    def test_deliveries_match_injections(self, config):
        run = small_conv_run(config, trace=TraceOptions())
        counts = run.trace.kind_counts()
        # Write-back packets (PE -> PNG) are delivered too, so there are
        # at least as many deliveries as PNG injections.
        assert counts[NOC_DELIVER] >= counts[PNG_INJECT]

    def test_span_events_have_positive_duration(self, config):
        run = small_conv_run(config, trace=TraceOptions())
        for kind, _, dur, _, _ in run.trace.events:
            if kind in SPAN_KINDS:
                assert dur >= 1

    def test_events_only_options_skip_counters(self, config):
        run = small_conv_run(config,
                             trace=TraceOptions(counters=False))
        assert run.trace.events
        assert not run.trace.counters.samples

    def test_counters_only_options_skip_events(self, config):
        run = small_conv_run(config, trace=TraceOptions(events=False))
        assert not run.trace.events
        assert run.trace.counters.samples
        assert run.trace.dropped_events == 0

    def test_max_events_cap_degrades_gracefully(self, config):
        run = small_conv_run(config,
                             trace=TraceOptions(max_events=100))
        assert len(run.trace.events) == 100
        assert run.trace.dropped_events > 0

    def test_counter_series_cover_every_pe_and_vault(self, config):
        run = small_conv_run(config, trace=TraceOptions())
        names = set(run.trace.counters.samples)
        for p in range(config.n_pe):
            assert f"pe{p}.mac_util" in names
            assert f"pe{p}.cache_fill" in names
        for v in range(config.n_channels):
            assert f"vault{v}.bw_words" in names
        assert "noc.in_fabric" in names

    def test_final_sample_lands_on_last_cycle(self, config):
        run = small_conv_run(config, trace=TraceOptions())
        series = run.trace.counters.samples["noc.in_fabric"]
        assert series[-1][0] == run.trace.cycles

    def test_invalid_sample_interval_rejected(self):
        with pytest.raises(ValueError):
            TraceOptions(sample_interval=0)


class TestTraceStructure:
    def test_merged_offsets_timestamps(self):
        a = Trace(events=[("pe.fire", 5, 2, "pe/0", None)], cycles=10)
        b = Trace(events=[("pe.fire", 3, 2, "pe/1", None)], cycles=8)
        merged = Trace.merged([(0, a), (10, b)])
        assert merged.cycles == 18
        assert merged.events == [("pe.fire", 5, 2, "pe/0", None),
                                 ("pe.fire", 13, 2, "pe/1", None)]

    def test_roundtrip_through_dict(self, config):
        run = small_conv_run(config, trace=TraceOptions())
        restored = Trace.from_dict(run.trace.to_dict())
        assert [tuple(e) for e in restored.events] == run.trace.events
        assert restored.counters.samples == {
            name: [tuple(p) for p in points]
            for name, points in run.trace.counters.samples.items()}
        assert restored.latency.mean == run.trace.latency.mean
        assert restored.cycles == run.trace.cycles

    def test_from_dict_rejects_foreign_json(self):
        with pytest.raises(ValueError):
            Trace.from_dict({"benchmarks": []})

    def test_tracer_finish_freezes_cycles(self):
        tracer = Tracer(TraceOptions())
        tracer.mac_fire(4, 0, 16, 8, 1)
        trace = tracer.finish(100)
        assert trace.cycles == 100
        assert trace.events == [("pe.fire", 4, 16, "pe/0",
                                 {"lanes": 8, "op": 1})]


class TestCounterSeries:
    def test_merge_offsets_cycles(self):
        a = CounterSeries()
        a.add("x", 0, 1.0)
        a.add("x", 64, 2.0)
        b = CounterSeries()
        b.add("x", 0, 3.0)
        a.merge_from(b, 100)
        assert a.samples["x"] == [(0, 1.0), (64, 2.0), (100, 3.0)]


class TestLatencyHistogram:
    def test_mean_and_percentile(self):
        hist = LatencyHistogram()
        for value in (1, 1, 2, 8):
            hist.record(value)
        assert hist.count == 4
        assert hist.mean == pytest.approx(3.0)
        assert hist.max_value == 8
        assert hist.percentile(0.5) <= hist.percentile(1.0)

    def test_merge_adds_counts(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(4)
        b.record(6)
        a.merge_from(b)
        assert a.count == 2
        assert a.mean == pytest.approx(5.0)
