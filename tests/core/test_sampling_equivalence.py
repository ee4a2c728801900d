"""The tracer's sample-jump limit: skip-ahead never jumps a sample.

The event-horizon scheduler jumps the clock over passive stretches;
without a clamp those jumps would leap across counter-sample boundaries
and the sampled series would depend on the execution mode.  The tracer's
``sample_jump_limit`` pins every sample to a stepped cycle.  That traced
skip-ahead runs then sample the identical series as traced lock-step is
asserted on every draw of ``tests/core/test_mode_matrix.py``.
"""

from __future__ import annotations

from repro.core import NeurocubeSimulator, compile_inference
from repro.fixedpoint import quantize_float
from repro.nn import models
from repro.obs import TraceOptions, Tracer


class TestSampleJumpLimit:
    def test_none_without_sampler(self):
        tracer = Tracer(TraceOptions(sample_interval=32))
        assert tracer.sample_jump_limit(0) is None

    def test_first_sample_forces_step_to_cycle_one(self):
        tracer = Tracer(TraceOptions(sample_interval=32))
        tracer.bind_sampler(lambda cycle: [])
        # The first sample lands on cycle 1: no jump may cross it.
        assert tracer.sample_jump_limit(0) == 0

    def test_limit_lands_one_short_of_the_boundary(self):
        tracer = Tracer(TraceOptions(sample_interval=32))
        tracer.bind_sampler(lambda cycle: [])
        tracer.on_cycle(1)  # first sample; next boundary is 32
        assert tracer.sample_jump_limit(10) == 21
        assert tracer.sample_jump_limit(31) == 0

    def test_past_due_boundary_clamps_to_single_step(self):
        tracer = Tracer(TraceOptions(sample_interval=32))
        tracer.bind_sampler(lambda cycle: [])
        tracer.on_cycle(1)
        # At or past the boundary the sample is due on the very next
        # stepped cycle, so no jump is allowed at all.
        assert tracer.sample_jump_limit(32) == 0
        assert tracer.sample_jump_limit(40) == 0


class TestSampledCounterEquivalence:
    def test_final_sample_covers_the_full_pass(self, config, rng):
        net = models.single_conv_layer(12, 12, 3, in_maps=1, out_maps=3,
                                       seed=22)
        x = quantize_float(rng.standard_normal((1, 12, 12)),
                           config.qformat)
        desc = compile_inference(net, config, True).descriptors[0]
        run = NeurocubeSimulator(
            config, trace=TraceOptions(sample_interval=32)
        ).run_descriptor(desc, net.layers[0], x)
        ends = {points[-1][0]
                for points in run.trace.counters.samples.values()}
        assert ends == {run.cycles}
