"""Persistent memo store gates: what it serves, rejects and bypasses.

That a warm run equals the lock-step reference, with hits and no
rejects, is asserted on every timing draw of
``tests/core/test_mode_matrix.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MemoDir,
    NeurocubeConfig,
    NeurocubeSimulator,
    RunContext,
    compile_inference,
)
from repro.core.context import current_context
from repro.memo import MemoStore
from repro.nn import models

CONFIG = NeurocubeConfig.hmc_15nm()


def conv_descriptor(height=12, width=12, kernel=3, out_maps=4, seed=3):
    net = models.single_conv_layer(height, width, kernel,
                                   out_maps=out_maps, qformat=None,
                                   seed=seed)
    return compile_inference(net, CONFIG, True).descriptors[0]


def timing_run(config, desc):
    return NeurocubeSimulator(config).run_descriptor(desc)


def assert_runs_identical(a, b):
    assert a.cycles == b.cycles
    assert a.packets == b.packets
    assert a.lateral_fraction == b.lateral_fraction
    assert a.mean_packet_latency == b.mean_packet_latency
    assert a.macs_fired == b.macs_fired
    assert a.pe_busy_cycles == b.pe_busy_cycles
    assert a.pe_idle_cycles == b.pe_idle_cycles
    assert a.search_stall_cycles == b.search_stall_cycles
    assert a.cache_peak == b.cache_peak
    assert a.inject_stall_cycles == b.inject_stall_cycles


class TestWarmColdEquivalence:
    def test_explicit_store_argument(self, tmp_path):
        desc = conv_descriptor()
        store = MemoStore(tmp_path, CONFIG)
        cold = NeurocubeSimulator(CONFIG, memo=store).run_descriptor(desc)
        warm = NeurocubeSimulator(CONFIG, memo=store).run_descriptor(desc)
        assert store.stats.hits == 1
        assert_runs_identical(cold, warm)

    def test_ambient_session_serves_runs(self, tmp_path):
        desc = conv_descriptor()
        assert current_context() is None
        with RunContext(memo=MemoDir(tmp_path)) as session:
            assert current_context() is session
            cold = timing_run(CONFIG, desc)
            warm = timing_run(CONFIG, desc)
            assert session.memo.total_stats().hits >= 1
        assert current_context() is None
        assert_runs_identical(cold, warm)

    def test_distinct_shapes_never_cross_hit(self, tmp_path):
        with RunContext(memo=MemoDir(tmp_path)):
            small = timing_run(CONFIG, conv_descriptor(height=10))
            big = timing_run(CONFIG, conv_descriptor(height=14))
        assert small.memo_stats.hits == 0
        assert big.memo_stats.hits == 0
        assert small.cycles != big.cycles

    def test_identical_shape_different_name_hits(self, tmp_path):
        # Entry digests exclude pure labels, so two same-shaped layers
        # from differently-named networks share one entry.
        from repro import nn
        from repro.nn.activations import Tanh

        other = nn.Network(
            [nn.Conv2D(4, 3, activation=Tanh(), name="conv_other",
                       qformat=None)],
            input_shape=(1, 12, 12), name="other_net", seed=9)
        other_desc = compile_inference(other, CONFIG, True).descriptors[0]
        with RunContext(memo=MemoDir(tmp_path)):
            first = timing_run(CONFIG, conv_descriptor(seed=1))
            second = timing_run(CONFIG, other_desc)
        assert second.descriptor.name != first.descriptor.name
        assert second.memo_stats.hits == 1
        assert_runs_identical(first, second)

    def test_functional_runs_bypass_the_store(self, tmp_path):
        net = models.single_conv_layer(10, 10, 3, out_maps=2, seed=5)
        desc = compile_inference(net, CONFIG, True).descriptors[0]
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (1, 10, 10))
        sim = NeurocubeSimulator(CONFIG)
        with RunContext(memo=MemoDir(tmp_path)):
            run = sim.run_descriptor(desc, net.layers[0], x)
        assert run.output is not None
        assert not run.memo_stats.any

    def test_checkpointed_runs_bypass_the_store(self, tmp_path):
        from repro.faults import CheckpointSpec

        desc = conv_descriptor()
        spec = CheckpointSpec(directory=str(tmp_path / "ckpt"), every=200)
        sim = NeurocubeSimulator(CONFIG, checkpoint=spec)
        with RunContext(memo=MemoDir(tmp_path / "memo")):
            run = sim.run_descriptor(desc)
        assert not run.memo_stats.any

    def test_faulted_runs_bypass_the_store(self, tmp_path):
        # A rate-0 injector attaches zeroed fault counters to every
        # pass, which the entry key does not cover.
        from repro.faults import FaultConfig

        sim = NeurocubeSimulator(CONFIG, faults=FaultConfig())
        with RunContext(memo=MemoDir(tmp_path)):
            run = sim.run_descriptor(conv_descriptor())
        assert run.fault_stats is not None
        assert not run.memo_stats.any

    def test_no_store_resolved_leaves_stats_none(self):
        run = timing_run(CONFIG, conv_descriptor())
        assert run.memo_stats is None

    def test_corrupted_entry_resimulates_identically(self, tmp_path):
        desc = conv_descriptor()
        with RunContext(memo=MemoDir(tmp_path)):
            cold = timing_run(CONFIG, desc)
        for path in list(tmp_path.glob("*/*.pkl")):
            path.write_bytes(b"corrupted beyond recognition")
        with RunContext(memo=MemoDir(tmp_path)):
            warm = timing_run(CONFIG, desc)
        assert warm.memo_stats.rejects == 1
        assert warm.memo_stats.hits == 0
        assert_runs_identical(cold, warm)


class TestRunNetworkReport:
    def test_memo_line_in_stream_table(self, tmp_path):
        from repro.experiments import ext_stream

        with RunContext(memo=MemoDir(tmp_path)):
            report = ext_stream.run(frames=2)
        assert report.memo is not None
        table = report.to_table()
        assert "MEMO:" in table
        assert "STREAM: 2 frames" in table


class TestMemoizeGates:
    @pytest.mark.parametrize("flag", [True, False])
    def test_sim_memoize_off_disables_persistence(self, tmp_path, flag):
        desc = conv_descriptor()
        config = CONFIG.with_(sim_memoize=flag)
        with RunContext(memo=MemoDir(tmp_path)):
            run = timing_run(config, desc)
        if flag:
            assert run.memo_stats.stores == 1
        else:
            assert not run.memo_stats.any
            assert not list(tmp_path.glob("*/*.pkl"))
