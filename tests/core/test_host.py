"""Tests for the host/global controller (§IV-B/C, Fig. 8c)."""

import itertools

import pytest

from repro.core import (
    HostController,
    compile_inference,
    registers_for_descriptor,
)
from repro.core.host import kernel_offsets
from repro.core.png import AddressGenerator
from repro.errors import ConfigurationError
from repro.nn import models


@pytest.fixture
def scene_program(config):
    net = models.scene_labeling_convnn(qformat=None)
    return compile_inference(net, config, duplicate=True)


class TestKernelOffsets:
    def test_seven_by_seven(self):
        offsets = kernel_offsets(7)
        assert len(offsets) == 49
        assert offsets[0] == (0, 0)
        assert offsets[-1] == (6, 6)

    def test_rejects_bad_kernel(self):
        with pytest.raises(ConfigurationError):
            kernel_offsets(0)


class TestRegistersForDescriptor:
    def test_conv1_matches_paper_example(self, scene_program):
        """§IV-C: the host writes 73,476 into the neuron-count register
        and 49 connections per input map for the first conv layer."""
        conv1 = scene_program.descriptors[0]
        registers = registers_for_descriptor(conv1)
        assert registers.n_neurons == 73_476
        assert registers.n_mac == 16
        assert len(registers.offsets) == registers.n_connections
        # 3 input maps x 49 kernel offsets.
        assert registers.n_connections == 3 * 49

    def test_fc_has_no_offsets(self, scene_program):
        fc1 = next(d for d in scene_program.descriptors
                   if d.name == "fc1")
        registers = registers_for_descriptor(fc1)
        assert registers.offsets == ()
        assert registers.n_connections == fc1.connections

    def test_fsm_walks_descriptor_work(self, scene_program):
        """For every descriptor, the register-driven FSM generates
        exactly neurons x connections events per pass."""
        for desc in scene_program.descriptors:
            registers = registers_for_descriptor(desc)
            generator = AddressGenerator(registers)
            assert generator.total_events == (
                desc.neurons_per_pass * desc.connections), desc.name

    def test_addresses_stay_in_image(self, scene_program):
        """Eq. 5 addresses of the first conv pass stay inside the
        previous layer's address range."""
        conv1 = scene_program.descriptors[0]
        registers = registers_for_descriptor(conv1, addr_last=0)
        generator = AddressGenerator(registers)
        image_items = conv1.in_height * conv1.in_width
        for event in itertools.islice(generator.events(), 2000):
            assert 0 <= event.state_address < image_items


class TestHostController:
    def test_validate_registers_all_layers(self, config, scene_program):
        controller = HostController(config)
        for desc in scene_program.descriptors:
            controller.validate_registers(desc)

    def test_programming_cost_scales_with_passes(self, config,
                                                 scene_program):
        controller = HostController(config)
        conv1 = scene_program.descriptors[0]
        cost = controller.programming_cost(conv1, None)
        # 8 scalars x 16 PNGs x passes + offsets once per PNG.
        expected = (8 * 16 * conv1.passes + conv1.connections * 16)
        assert cost.register_writes == expected

    def test_lut_loaded_only_on_activation_change(self, config,
                                                  scene_program):
        controller = HostController(config)
        schedule = controller.schedule(scene_program)
        # conv1(tanh), pool1(identity), conv2(tanh), pool2(identity),
        # conv3(tanh), fc1(tanh), fc2(identity): six changes.
        assert schedule.lut_loads == 6

    def test_programming_overhead_is_small(self, config, scene_program):
        """Host interaction must be negligible next to computation —
        the premise of layer-at-a-time programming."""
        from repro.core import AnalyticModel

        controller = HostController(config)
        schedule = controller.schedule(scene_program)
        compute = AnalyticModel(config).evaluate_program(
            scene_program).total_cycles
        assert schedule.total_programming_cycles < 0.01 * compute
