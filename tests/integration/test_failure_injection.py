"""Failure-injection tests: the simulator must fail loudly, not hang.

A reproduction whose simulator silently wedges is worse than one that
crashes; these tests inject protocol violations and starvation and check
the error surfaces."""

import numpy as np
import pytest

from repro.core import NeurocubeSimulator, compile_inference
from repro.core.scheduler import build_fc_pass
from repro.errors import SimulationError
from repro.nn import models


@pytest.fixture
def simulator(config):
    return NeurocubeSimulator(config)


class TestStarvation:
    def test_missing_emissions_detected_as_stall(self, config,
                                                 simulator):
        """A plan expecting write-backs that can never arrive (its
        emission schedule was emptied) must raise, not spin forever."""
        net = models.fully_connected_classifier(16, 8, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        plan = build_fc_pass(desc, config, None, None, None, None)
        plan.vault_emissions[0] = []  # starve some PEs
        with pytest.raises(SimulationError, match="stalled"):
            simulator.run_pass(plan, stall_limit=3_000)

    @pytest.mark.parametrize("skip_ahead", [False, True])
    def test_live_pass_outlasting_stall_limit_finishes(self, config,
                                                       skip_ahead):
        """Progress is any write-back or any PE operation advance: an FC
        pass whose first write-back lands long after ``stall_limit``
        cycles is live the whole time and must finish, not raise."""
        config = config.with_(sim_skip_ahead=skip_ahead)
        net = models.fully_connected_classifier(160, 16, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        plan = build_fc_pass(desc, config, None, None, None, None)
        result = NeurocubeSimulator(config).run_pass(plan,
                                                     stall_limit=500)
        assert result.cycles > 4 * 500
        assert len(result.outputs) == desc.neurons_per_pass

    def test_max_cycles_ceiling(self, config, simulator):
        net = models.fully_connected_classifier(16, 8, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        plan = build_fc_pass(desc, config, None, None, None, None)
        plan.vault_emissions[1] = []
        with pytest.raises(SimulationError):
            simulator.run_pass(plan, max_cycles=500, stall_limit=10**9)


class TestCorruptedPlans:
    def test_wrong_writeback_home_detected(self, config, simulator):
        """A plan whose write-back address map disagrees with the PE
        group's home vault is a mapping bug; the sink must catch it."""
        net = models.fully_connected_classifier(16, 16, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        plan = build_fc_pass(desc, config, np.zeros(16),
                             np.zeros((16, 16)), np.zeros(16), None)
        # Corrupt one neuron's home channel.
        tag = next(iter(plan.out_addresses))
        channel, address = plan.out_addresses[tag]
        plan.out_addresses[tag] = ((channel + 1) % config.n_channels,
                                   address)
        with pytest.raises(SimulationError):
            simulator.run_pass(plan)

    def test_missing_neurons_in_assembly(self, config, simulator):
        """Assembly refuses a pass whose outputs are incomplete."""
        net = models.fully_connected_classifier(16, 8, qformat=None)
        desc = compile_inference(net, config).descriptors[0]
        plan = build_fc_pass(desc, config, np.zeros(16),
                             np.zeros((8, 16)), np.zeros(8), None)
        with pytest.raises(SimulationError, match="never wrote back"):
            simulator.assemble_output(desc, plan, {})
