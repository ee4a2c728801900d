"""Timing-memoization mechanics and the structural key it relies on.

Memoized runs equal simulating every map, and skip-ahead equals
lock-step, in every draw of ``tests/core/test_mode_matrix.py``.  The
tests here pin the mechanism behind those equalities:

* memoization simulates exactly one representative per structural
  equivalence class, and stands down for traced runs and when disabled;
* :func:`repro.core.parallel.structural_key` equality implies
  :meth:`repro.core.scheduler.PassPlan.structural_hash` equality — equal
  keys really do mean equal simulations;
* host-time rates raise instead of reading zero.
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
from repro.errors import ConfigurationError
from repro.nn import models
from repro.obs import TraceOptions


def timing_run(config, out_maps, **hooks):
    net = models.single_conv_layer(10, 10, 3, out_maps=out_maps,
                                   qformat=None)
    desc = compile_inference(net, config).descriptors[0]
    return NeurocubeSimulator(config, **hooks).run_descriptor(desc)


@pytest.fixture
def simulated(monkeypatch):
    """The map indices the executor actually simulates, in order."""
    import repro.core.parallel as parallel_mod

    monkeypatch.delenv(SIM_WORKERS_ENV, raising=False)
    indices: list[int] = []
    real = parallel_mod.run_map_batch

    def counting(config_, desc, lut, functional, batch, **kwargs):
        indices.extend(task.index for task in batch)
        return real(config_, desc, lut, functional, batch, **kwargs)

    monkeypatch.setattr(parallel_mod, "run_map_batch", counting)
    return indices


class TestMemoizationEquivalence:
    """Timing-pass memoization vs simulating every map."""

    def test_one_representative_simulated(self, config, simulated):
        run = timing_run(config, out_maps=4)
        assert simulated == [0]
        assert run.cycles > 0

    def test_traced_runs_simulate_every_map(self, config, simulated):
        """Memoization must stand down when a tracer is active: every
        pass's events have to be emitted on its own clock."""
        run = timing_run(config, out_maps=4, trace=TraceOptions())
        assert simulated == [0, 1, 2, 3]
        assert run.trace is not None

    def test_disabled_by_config(self, config, simulated):
        timing_run(dataclasses.replace(config, sim_memoize=False),
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
