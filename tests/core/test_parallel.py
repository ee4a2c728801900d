"""Pass executor, worker configuration, host timing and stall reports.

That parallel and skip-ahead runs equal the serial lock-step reference
is asserted on every draw of ``tests/core/test_mode_matrix.py``; these
tests cover the executor's ordering, the worker-count knob, host-time
accounting and the deadlock diagnosis.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.core import NeurocubeSimulator, compile_inference
from repro.core.config import SIM_WORKERS_ENV
from repro.core.parallel import MapTask, ParallelPassExecutor, SubPassSpec
from repro.errors import ConfigurationError
from repro.fixedpoint import quantize_float
from repro.nn import models

from tests.core.test_mode_matrix import functional_conv_plan


def run_first_layer(config, net, x):
    """Compile ``net`` and simulate its first descriptor functionally."""
    desc = compile_inference(net, config, True).descriptors[0]
    quantised = quantize_float(np.asarray(x, dtype=np.float64),
                               config.qformat)
    return NeurocubeSimulator(config).run_descriptor(desc, net.layers[0],
                                                     quantised)


class TestParallelEquivalence:
    def test_executor_preserves_task_order(self, config):
        spec = SubPassSpec(kernel=None, input_tensor=None, bias=0.0,
                           final=True)
        tasks = [MapTask(index=i, mode="mac", sub_passes=(spec,))
                 for i in range(5)]
        net = models.single_conv_layer(6, 6, 3, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        outcomes = ParallelPassExecutor(2).run(config, desc, None, False,
                                               tasks)
        assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]

    def test_functional_pass_result_survives_pickling(self, config):
        """Workers and the memo store ship a ``PassResult`` as it is."""
        result = NeurocubeSimulator(config).run_pass(
            functional_conv_plan(config))
        assert len(set(result.outputs.values())) > 1
        assert pickle.loads(pickle.dumps(result)) == result


class TestWorkerConfiguration:
    def test_default_is_serial(self, config):
        assert config.sim_workers == 1
        assert config.effective_sim_workers == 1

    def test_env_override(self, config, monkeypatch):
        monkeypatch.setenv(SIM_WORKERS_ENV, "3")
        assert config.effective_sim_workers == 3

    def test_env_override_rejects_garbage(self, config, monkeypatch):
        monkeypatch.setenv(SIM_WORKERS_ENV, "many")
        with pytest.raises(ConfigurationError):
            config.effective_sim_workers
        monkeypatch.setenv(SIM_WORKERS_ENV, "0")
        with pytest.raises(ConfigurationError):
            config.effective_sim_workers

    def test_invalid_worker_count_rejected(self, config):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(config, sim_workers=0)

    def test_env_unset_falls_back_to_field(self, config, monkeypatch):
        monkeypatch.delenv(SIM_WORKERS_ENV, raising=False)
        assert dataclasses.replace(
            config, sim_workers=2).effective_sim_workers == 2
        assert SIM_WORKERS_ENV not in os.environ


class TestHostTiming:
    def test_layer_run_reports_host_time(self, config, rng):
        net = models.single_conv_layer(8, 8, 3, seed=7)
        x = rng.standard_normal((1, 8, 8))
        run = run_first_layer(config, net, x)
        assert run.host_seconds > 0.0
        assert run.simulated_cycles_per_second > 0.0
        assert run.simulated_cycles_per_second == pytest.approx(
            run.cycles / run.host_seconds)

    def test_network_report_accumulates_host_time(self, config, rng):
        net = models.fully_connected_classifier(16, 8, 4, seed=8)
        x = rng.standard_normal(net.input_shape)
        _, report = NeurocubeSimulator(config).run_network(net, x)
        assert report.host_seconds > 0.0
        assert report.simulated_cycles_per_second > 0.0


class TestStallDiagnostics:
    def test_stall_error_names_each_agent(self, config):
        """The enriched deadlock report must localise the wedged agents."""
        net = models.single_conv_layer(8, 8, 3, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        simulator = NeurocubeSimulator(config)
        from repro.core.scheduler import build_conv_pass
        from repro.errors import SimulationError
        plan = build_conv_pass(desc, config, None, None, 0.0, None)
        with pytest.raises(SimulationError) as excinfo:
            simulator.run_pass(plan, max_cycles=5, stall_limit=10**9)
        message = str(excinfo.value)
        assert "stalled" in message
        assert "PE 0:" in message
        assert "PNG @node" in message
        assert "inject_stalls=" in message
        assert "op=" in message
