"""Tests for the pass scheduler (host-side mapping software)."""

import numpy as np
import pytest

from repro.core import compile_inference
from repro.core.scheduler import (build_conv_pass, build_fc_pass,
                                  conv_vault_images)
from repro.fixedpoint import from_float
from repro.nn import models
from repro.noc.packet import PacketKind


@pytest.fixture
def conv_setup(config, rng):
    net = models.single_conv_layer(12, 12, 3, qformat=None, seed=1)
    desc = compile_inference(net, config).descriptors[0]
    x = rng.uniform(-1, 1, (1, 12, 12))
    kernel = net.layers[0].params["weight"][0]
    return desc, x, kernel


class TestConvPass:
    def test_every_neuron_scheduled_once(self, config, conv_setup):
        desc, x, kernel = conv_setup
        plan = build_conv_pass(desc, config, x, kernel, 0.0, None)
        assert plan.total_neurons == 100
        scheduled = [slot.neuron for groups in plan.pe_groups
                     for g in groups for slot in g.slots]
        assert len(scheduled) == len(set(scheduled)) == 100

    def test_emissions_cover_all_connections(self, config, conv_setup):
        desc, x, kernel = conv_setup
        plan = build_conv_pass(desc, config, x, kernel, 0.0, None)
        total = sum(len(e) for e in plan.vault_emissions)
        assert total == 100 * 9
        assert plan.stream_items == total

    def test_duplicate_emissions_all_local(self, config, conv_setup):
        desc, x, kernel = conv_setup
        plan = build_conv_pass(desc, config, x, kernel, 0.0, None)
        for channel, emissions in enumerate(plan.vault_emissions):
            for record in emissions:
                assert record.dst == channel

    def test_no_duplicate_has_remote_emissions(self, config, rng):
        net = models.single_conv_layer(12, 12, 3, qformat=None, seed=1)
        desc = compile_inference(net, config,
                                 duplicate=False).descriptors[0]
        x = rng.uniform(-1, 1, (1, 12, 12))
        kernel = net.layers[0].params["weight"][0]
        plan = build_conv_pass(desc, config, x, kernel, 0.0, None)
        remote = sum(1 for channel, emissions
                     in enumerate(plan.vault_emissions)
                     for record in emissions if record.dst != channel)
        assert remote > 0

    def test_emission_op_order_per_vault(self, config, conv_setup):
        desc, x, kernel = conv_setup
        plan = build_conv_pass(desc, config, x, kernel, 0.0, None)
        for emissions in plan.vault_emissions:
            ops = [r.op_id for r in emissions]
            assert ops == sorted(ops)

    def test_memory_image_holds_quantised_pixels(self, config,
                                                 conv_setup):
        desc, x, kernel = conv_setup
        plan = build_conv_pass(desc, config, x, kernel, 0.0, None)
        raw = from_float(x, config.qformat)
        # Vault 0 stores the top-left tile row-major; spot-check (0,0).
        assert plan.vault_data[0][0] == raw[0, 0, 0]

    def test_writeback_addresses_follow_inputs(self, config, conv_setup):
        desc, x, kernel = conv_setup
        plan = build_conv_pass(desc, config, x, kernel, 0.0, None)
        for tag, (channel, address) in plan.out_addresses.items():
            assert address < len(plan.vault_data[channel])

    def test_per_neuron_bias_array(self, config, conv_setup):
        desc, x, kernel = conv_setup
        biases = np.arange(100, dtype=np.float64) / 100.0
        plan = build_conv_pass(desc, config, x, kernel, biases, None)
        for groups in plan.pe_groups:
            for group in groups:
                for slot in group.slots:
                    _, index = slot.neuron
                    assert slot.bias == pytest.approx(index / 100.0)

    def test_timing_only_mode(self, config, conv_setup):
        desc, _, _ = conv_setup
        plan = build_conv_pass(desc, config, None, None, 0.0, None)
        assert plan.total_neurons == 100
        assert all(np.all(data[:10] == 0) or len(data) >= 0
                   for data in plan.vault_data)

    def test_vault_images_hold_every_maps_plan_image(self, config,
                                                     conv_setup):
        """One ``conv_vault_images`` call lays out several maps' inputs
        at once: row ``m`` of each vault's image is the image the plan
        of map ``m`` holds."""
        desc, x, kernel = conv_setup
        inputs = np.stack([x, -x, 0.5 * x])
        plans = [build_conv_pass(desc, config, tensor, kernel, 0.0, None)
                 for tensor in inputs]
        images = conv_vault_images(desc, config, inputs,
                                   plans[0].expected_writebacks)
        for vault, image in enumerate(images):
            assert image.shape == (3, len(plans[0].vault_data[vault]))
            for row, plan in zip(image, plans, strict=True):
                np.testing.assert_array_equal(row, plan.vault_data[vault])


class TestFcPass:
    @pytest.fixture
    def fc_setup(self, config, rng):
        net = models.fully_connected_classifier(24, 20, qformat=None,
                                                seed=2)
        desc = compile_inference(net, config).descriptors[0]
        layer = net.layers[0]
        x = rng.uniform(-1, 1, 24)
        return desc, layer, x

    def test_lanes_get_state_and_weight(self, config, fc_setup):
        desc, layer, x = fc_setup
        plan = build_fc_pass(desc, config, x, layer.params["weight"],
                             layer.params["bias"], None)
        kinds = {}
        for emissions in plan.vault_emissions:
            for record in emissions:
                key = (record.dst, record.op_id, record.mac_id)
                kinds.setdefault(key, set()).add(record.kind)
        for key, kind_set in kinds.items():
            assert kind_set == {PacketKind.STATE, PacketKind.WEIGHT}, key

    def test_outputs_split_across_pes(self, config, fc_setup):
        desc, layer, x = fc_setup
        plan = build_fc_pass(desc, config, x, layer.params["weight"],
                             layer.params["bias"], None)
        active_pes = [p for p, groups in enumerate(plan.pe_groups)
                      if groups]
        assert len(active_pes) == 16  # 20 outputs over 16 PEs

    def test_duplicate_states_local(self, config, fc_setup):
        desc, layer, x = fc_setup
        plan = build_fc_pass(desc, config, x, layer.params["weight"],
                             layer.params["bias"], None)
        for channel, emissions in enumerate(plan.vault_emissions):
            for record in emissions:
                assert record.dst == channel

    def test_no_duplicate_states_from_owner(self, config, rng):
        net = models.fully_connected_classifier(32, 16, qformat=None,
                                                seed=3)
        desc = compile_inference(net, config,
                                 duplicate=False).descriptors[0]
        layer = net.layers[0]
        x = rng.uniform(-1, 1, 32)
        plan = build_fc_pass(desc, config, x, layer.params["weight"],
                             layer.params["bias"], None)
        # 32 inputs over 16 vaults: each vault owns 2 inputs and emits
        # their state packets for every PE.
        state_sources = {channel
                         for channel, emissions
                         in enumerate(plan.vault_emissions)
                         for r in emissions
                         if r.kind == PacketKind.STATE}
        assert len(state_sources) == 16

    def test_expected_writebacks_sum_to_outputs(self, config, fc_setup):
        desc, layer, x = fc_setup
        plan = build_fc_pass(desc, config, x, layer.params["weight"],
                             layer.params["bias"], None)
        assert sum(plan.expected_writebacks) == 20
