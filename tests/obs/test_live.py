"""Live host-phase timing: a run context bills the wall-clock seconds of
its timers to its own ``phases``, and the simulator feeds them."""

from __future__ import annotations

import time

import numpy as np

from repro.core import (
    MemoDir,
    NeurocubeSimulator,
    RunContext,
    compile_inference,
)
from repro.nn import models


class TestPhaseTimers:
    def test_phase_bills_wall_time(self):
        ctx = RunContext()
        started = time.perf_counter()
        with ctx.phase("compile"):
            sum(range(1000))
        wall = time.perf_counter() - started
        assert 0.0 <= ctx.phases["compile"] <= wall
        assert "simulate" not in ctx.phases

    def test_context_timer_bills_its_live(self):
        """A factory-made timer bills the context that made it, each time
        it is entered, and no other context."""
        ctx, other = RunContext(), RunContext()
        factory = ctx.phase_factory("checkpoint")
        with factory():
            pass
        first = ctx.phases["checkpoint"]
        with factory():
            sum(range(1000))
        assert set(ctx.phases) == {"checkpoint"}
        assert ctx.phases["checkpoint"] >= first >= 0.0
        assert other.phases == {}


class TestSimulatorFeed:
    def test_run_network_times_compile_phase(self, config):
        net = models.single_conv_layer(10, 10, 3, seed=32)
        with RunContext() as ctx:
            _, report = NeurocubeSimulator(config).run_network(
                net, np.zeros((1, 10, 10)))
        assert report.layers
        assert ctx.phases["compile"] > 0.0
        assert ctx.phases["simulate"] > 0.0

    def test_memo_io_phase_billed(self, config, tmp_path):
        # The persistent store serves timing runs only, so run the
        # descriptor without an input tensor (no functional pass).
        memo = MemoDir(tmp_path)
        net = models.single_conv_layer(10, 10, 3, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        with RunContext(memo=memo) as ctx:
            NeurocubeSimulator(config).run_descriptor(desc)  # miss
        assert ctx.phases["memo_io"] > 0.0
        with RunContext(memo=memo) as again:
            NeurocubeSimulator(config).run_descriptor(desc)  # hit
        assert again.phases["memo_io"] > 0.0
        assert memo.total_stats().hits > 0
