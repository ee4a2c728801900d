"""Event-horizon scheduler and timing-memoization equivalence tests.

The contracts under test:

* the event-horizon scheduler (``sim_skip_ahead=True``, the default —
  per-agent active sets plus clock jumps) must be **bit-identical** to
  the lock-step reference path (``sim_skip_ahead=False``) on every
  descriptor kind: same outputs, same cycle counts, same folded
  statistics, and same stall-error timing;
* timing-pass memoization (``sim_memoize=True``, the default) must be
  bit-identical to simulating every map, must simulate exactly one
  representative per structural equivalence class, and must stand down
  for traced runs;
* :func:`repro.core.parallel.structural_key` equality must imply
  :meth:`repro.core.scheduler.PassPlan.structural_hash` equality — equal
  keys really do mean equal simulations.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import NeurocubeSimulator, compile_inference
from repro.core.config import SIM_WORKERS_ENV
from repro.core.metrics import RunReport
from repro.core.parallel import MapTask, SubPassSpec, structural_key
from repro.core.scheduler import build_conv_pass
from repro.core.simulator import LayerRun
from repro.errors import ConfigurationError, SimulationError
from repro.fixedpoint import quantize_float
from repro.nn import models
from repro.nn.layers import MaxPool2D
from repro.nn.network import Network

#: Every LayerRun field that must fold identically across engine modes.
STAT_FIELDS = (
    "cycles", "packets", "lateral_fraction", "mean_packet_latency",
    "macs_fired", "pe_busy_cycles", "pe_idle_cycles",
    "search_stall_cycles", "cache_peak", "inject_stall_cycles",
)


def assert_identical(run_a, run_b):
    """Outputs, cycles and every folded statistic must match exactly."""
    np.testing.assert_array_equal(run_a.output, run_b.output)
    for name in STAT_FIELDS:
        assert getattr(run_a, name) == getattr(run_b, name), name


def run_layer(config, net, x, layer_index=0):
    """Compile ``net`` and simulate one layer's descriptor functionally."""
    simulator = NeurocubeSimulator(config)
    program = compile_inference(net, config, True)
    desc = [d for d in program.descriptors
            if d.layer_index == layer_index][0]
    quantised = quantize_float(np.asarray(x, dtype=np.float64),
                               config.qformat)
    return simulator.run_descriptor(desc, net.layers[layer_index],
                                    quantised)


def _build_case(kind, rng):
    """One (network, layer_index, input) triple per descriptor kind."""
    if kind == "fc":
        net = models.mnist_mlp(seed=21)
        return net, 1, rng.standard_normal(net.layers[1].input_shape)
    if kind == "conv":
        net = models.single_conv_layer(12, 12, 3, in_maps=1, out_maps=3,
                                       seed=22)
        return net, 0, rng.standard_normal((1, 12, 12))
    if kind == "conv_sub_passed":
        # 8 input maps with a 7x7 kernel exceeds the resident-weight
        # budget, forcing sub_passes > 1 (sequential chain per map).
        net = models.single_conv_layer(9, 9, 7, in_maps=8, out_maps=2,
                                       seed=23)
        return net, 0, rng.standard_normal((8, 9, 9))
    assert kind == "pool"
    net = Network([MaxPool2D(2, name="pool")], input_shape=(3, 8, 8),
                  name="pool_only")
    return net, 0, rng.standard_normal((3, 8, 8))


class TestSchedulerEquivalence:
    """Event-horizon scheduler vs the lock-step reference path."""

    @pytest.mark.parametrize(
        "kind", ["fc", "conv", "conv_sub_passed", "pool"])
    def test_bit_identical_functional_run(self, config, rng, kind):
        net, layer_index, x = _build_case(kind, rng)
        event_horizon = run_layer(
            dataclasses.replace(config, sim_skip_ahead=True), net, x,
            layer_index)
        lock_step = run_layer(
            dataclasses.replace(config, sim_skip_ahead=False), net, x,
            layer_index)
        if kind == "conv_sub_passed":
            assert event_horizon.descriptor.sub_passes > 1
        assert_identical(event_horizon, lock_step)

    @pytest.mark.parametrize("skip_ahead", [True, False])
    def test_ceiling_error_timing_matches(self, config, skip_ahead):
        """Hitting max_cycles mid-stream reports the identical cycle."""
        message = self._stalled_message(
            dataclasses.replace(config, sim_skip_ahead=skip_ahead),
            max_cycles=40, stall_limit=10**9)
        assert message == self._stalled_message(
            dataclasses.replace(config, sim_skip_ahead=not skip_ahead),
            max_cycles=40, stall_limit=10**9)

    def test_deadlock_error_timing_matches(self, config):
        """A genuine deadlock must fire the stall detector on the same cycle
        with the same per-agent diagnostics under both engines, even
        though the event-horizon path jumps straight to the boundary."""
        messages = []
        for skip_ahead in (True, False):
            messages.append(self._stalled_message(
                dataclasses.replace(config, sim_skip_ahead=skip_ahead),
                stall_limit=800, starve=True))
        assert messages[0] == messages[1]
        assert "after" in messages[0]

    @staticmethod
    def _stalled_message(config, max_cycles=None, stall_limit=1_000_000,
                         starve=False):
        net = models.single_conv_layer(8, 8, 3, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        plan = build_conv_pass(desc, config, None, None, 0.0, None)
        if starve:
            # One write-back that never comes: after the pass drains,
            # every agent is passive forever.
            plan.expected_writebacks[0] += 1
        simulator = NeurocubeSimulator(config)
        with pytest.raises(SimulationError) as excinfo:
            simulator.run_pass(plan, max_cycles=max_cycles,
                               stall_limit=stall_limit)
        return str(excinfo.value)


class TestMemoizationEquivalence:
    """Timing-pass memoization vs simulating every map."""

    def _timing_run(self, config, out_maps=4):
        net = models.single_conv_layer(10, 10, 3, out_maps=out_maps,
                                       qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        return NeurocubeSimulator(config).run_descriptor(desc)

    @pytest.mark.parametrize("kind", ["conv", "pool"])
    def test_bit_identical_timing_run(self, config, kind):
        if kind == "pool":
            net = Network([MaxPool2D(2, name="pool")],
                          input_shape=(4, 8, 8), name="pool_only")
        else:
            net = models.single_conv_layer(10, 10, 3, out_maps=4,
                                           qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        memoized = NeurocubeSimulator(
            dataclasses.replace(config, sim_memoize=True)).run_descriptor(
            desc)
        simulated = NeurocubeSimulator(
            dataclasses.replace(config, sim_memoize=False)).run_descriptor(
            desc)
        assert_identical(memoized, simulated)

    def test_one_representative_simulated(self, config, monkeypatch):
        import repro.core.parallel as parallel_mod

        monkeypatch.delenv(SIM_WORKERS_ENV, raising=False)
        simulated = []
        real = parallel_mod.run_map_task

        def counting(config_, desc, lut, functional, task, **kwargs):
            simulated.append(task.index)
            return real(config_, desc, lut, functional, task, **kwargs)

        monkeypatch.setattr(parallel_mod, "run_map_task", counting)
        run = self._timing_run(config, out_maps=4)
        assert simulated == [0]
        assert run.cycles > 0

    def test_traced_runs_simulate_every_map(self, config, monkeypatch):
        """Memoization must stand down when a tracer is active: every
        pass's events have to be emitted on its own clock."""
        import repro.core.parallel as parallel_mod

        from repro.obs import TraceOptions

        monkeypatch.delenv(SIM_WORKERS_ENV, raising=False)
        simulated = []
        real = parallel_mod.run_map_task

        def counting(config_, desc, lut, functional, task, **kwargs):
            simulated.append(task.index)
            return real(config_, desc, lut, functional, task, **kwargs)

        monkeypatch.setattr(parallel_mod, "run_map_task", counting)
        net = models.single_conv_layer(10, 10, 3, out_maps=4,
                                       qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        run = NeurocubeSimulator(
            config, trace=TraceOptions()).run_descriptor(desc)
        assert simulated == [0, 1, 2, 3]
        assert run.trace is not None

    def test_disabled_by_config(self, config, monkeypatch):
        import repro.core.parallel as parallel_mod

        monkeypatch.delenv(SIM_WORKERS_ENV, raising=False)
        simulated = []
        real = parallel_mod.run_map_task

        def counting(config_, desc, lut, functional, task, **kwargs):
            simulated.append(task.index)
            return real(config_, desc, lut, functional, task, **kwargs)

        monkeypatch.setattr(parallel_mod, "run_map_task", counting)
        self._timing_run(dataclasses.replace(config, sim_memoize=False),
                         out_maps=3)
        assert simulated == [0, 1, 2]


class TestStructuralIdentity:
    """structural_key equality must imply structural_hash equality."""

    def test_equal_keys_equal_plan_hashes(self, config):
        spec = SubPassSpec(kernel=None, input_tensor=None, bias=0.0,
                           final=True)
        task_a = MapTask(index=0, mode="mac", sub_passes=(spec,))
        task_b = MapTask(index=3, mode="mac", sub_passes=(spec,))
        assert structural_key(task_a) == structural_key(task_b)
        net = models.single_conv_layer(8, 8, 3, out_maps=4, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        hashes = {build_conv_pass(desc, config, spec.input_tensor,
                                  spec.kernel, spec.bias,
                                  None).structural_hash()
                  for _ in (task_a, task_b)}
        assert len(hashes) == 1

    def test_key_distinguishes_structure(self):
        timing = SubPassSpec(kernel=None, input_tensor=None, bias=0.0,
                             final=True)
        partial = dataclasses.replace(timing, final=False)
        biased = dataclasses.replace(timing, bias=1.0)
        loaded = dataclasses.replace(
            timing, kernel=np.ones((1, 3, 3)))
        base = MapTask(index=0, mode="mac", sub_passes=(timing,))
        for other in (
                MapTask(index=0, mode="max", sub_passes=(timing,)),
                MapTask(index=0, mode="mac", sub_passes=(partial,)),
                MapTask(index=0, mode="mac", sub_passes=(biased,)),
                MapTask(index=0, mode="mac", sub_passes=(loaded,)),
                MapTask(index=0, mode="mac", sub_passes=(timing, timing)),
        ):
            assert structural_key(base) != structural_key(other)

    def test_key_ignores_index_and_array_identity(self):
        kernel = np.arange(9.0).reshape(1, 3, 3)
        spec_a = SubPassSpec(kernel=kernel, input_tensor=None, bias=0.0,
                             final=True)
        spec_b = SubPassSpec(kernel=kernel.copy(), input_tensor=None,
                             bias=0.0, final=True)
        assert structural_key(
            MapTask(index=0, mode="mac", sub_passes=(spec_a,))
        ) == structural_key(
            MapTask(index=7, mode="mac", sub_passes=(spec_b,)))

    def test_hash_distinguishes_structure(self, config):
        small = models.single_conv_layer(8, 8, 3, qformat=None)
        large = models.single_conv_layer(10, 10, 3, qformat=None)
        hashes = {
            build_conv_pass(compile_inference(net, config).descriptors[0],
                            config, None, None, 0.0,
                            None).structural_hash()
            for net in (small, large)}
        assert len(hashes) == 2


class TestSimRateConsistency:
    """Zero host time raises everywhere, like zero cycles always has."""

    def test_layer_run_without_host_time_raises(self, config):
        net = models.single_conv_layer(8, 8, 3, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        run = LayerRun(descriptor=desc, cycles=100, output=None,
                       packets=0, lateral_fraction=0.0,
                       mean_packet_latency=0.0)
        assert run.host_seconds == 0.0
        with pytest.raises(ConfigurationError):
            run.simulated_cycles_per_second

    def test_empty_report_raises_for_both_rates(self):
        report = RunReport(network_name="empty", f_clk_hz=1e9,
                           peak_gops=1.0)
        with pytest.raises(ConfigurationError):
            report.frames_per_second
        with pytest.raises(ConfigurationError):
            report.simulated_cycles_per_second

    def test_simulated_run_reports_both_rates(self, config, rng):
        net = models.single_conv_layer(8, 8, 3, seed=24)
        x = rng.standard_normal((1, 8, 8))
        run = run_layer(config, net, x)
        assert run.simulated_cycles_per_second == pytest.approx(
            run.cycles / run.host_seconds)
