"""Tests for the multi-cube scaling extension (paper §IX)."""

import pytest

from repro.core import (
    MultiCubeConfig,
    MultiCubeModel,
    NeurocubeConfig,
)
from repro.errors import ConfigurationError
from repro.memory.specs import HMC_EXT
from repro.nn import models


@pytest.fixture
def cluster():
    return MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(), n_cubes=4)


class TestConfig:
    def test_aggregate_peak(self, cluster):
        assert cluster.total_peak_gops == pytest.approx(640.0)

    def test_link_bandwidth_is_hmc_ext(self, cluster):
        """Four SerDes links at Table I's HMC-Ext 40 GB/s each."""
        assert cluster.cube_link_bandwidth == pytest.approx(160e9)
        links = cluster.link_model()
        assert links.cube_bandwidth == cluster.cube_link_bandwidth
        # A one-byte frame moves in far under a cycle: it still costs one.
        assert links.serialization_cycles(1) == 1
        assert links.serialization_cycles(0) == 0

    def test_validation(self):
        cube = NeurocubeConfig.hmc_15nm()
        with pytest.raises(ConfigurationError):
            MultiCubeConfig(cube=cube, n_cubes=0)
        with pytest.raises(ConfigurationError):
            MultiCubeConfig(cube=cube, n_cubes=2, link_bandwidth=0.0)
        # At the Table-I HMC-Ext figures or below (refusals beyond them:
        # tests/analysis/test_shardcheck.py).
        MultiCubeConfig(cube=cube, n_cubes=2, links_per_cube=1,
                        link_bandwidth=HMC_EXT.peak_bandwidth)


class TestScaling:
    def test_single_cube_matches_analytic(self):
        """n_cubes=1 must degenerate to the single-cube model."""
        from repro.core import AnalyticModel

        net = models.scene_labeling_convnn(qformat=None)
        config = MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(),
                                 n_cubes=1)
        multi = MultiCubeModel(config).evaluate_network(net)
        single = AnalyticModel(config.cube).evaluate_network(net, True)
        assert multi.total_cycles == pytest.approx(single.total_cycles,
                                                   rel=0.01)
        assert multi.speedup == pytest.approx(1.0, rel=0.01)

    def test_conv_network_scales_nearly_linearly(self, cluster):
        net = models.scene_labeling_convnn(height=480, width=640,
                                           qformat=None)
        report = MultiCubeModel(cluster).evaluate_network(net)
        assert report.speedup > 3.5
        assert report.parallel_efficiency > 0.85

    def test_speedup_monotone_in_cubes(self):
        net = models.scene_labeling_convnn(qformat=None)
        base = MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(),
                               n_cubes=1)
        curve = MultiCubeModel(base).scaling_curve(net, (1, 2, 4, 8))
        speedups = [r.speedup for r in curve]
        assert speedups == sorted(speedups)

    def test_efficiency_declines_with_cubes(self):
        net = models.small_lstm(inputs=64, hidden_units=64, steps=4,
                                qformat=None)
        base = MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(),
                               n_cubes=1)
        curve = MultiCubeModel(base).scaling_curve(net, (1, 4, 16))
        efficiencies = [r.parallel_efficiency for r in curve]
        assert efficiencies == sorted(efficiencies, reverse=True)

    def test_comm_charged_for_fc_all_gather(self, cluster):
        net = models.fully_connected_classifier(65536, 64, qformat=None)
        report = MultiCubeModel(cluster).evaluate_network(net)
        fc = report.layers[0]
        assert fc.comm_cycles > 0

    def test_halo_exchange_scales_with_kernel(self, cluster):
        model = MultiCubeModel(cluster)
        comms = []
        for kernel in (3, 7, 11):
            net = models.single_conv_layer(240, 320, kernel,
                                           qformat=None)
            report = model.evaluate_network(net)
            comms.append(report.layers[0].comm_cycles)
        assert comms == sorted(comms)

    def test_throughput_exceeds_single_cube_peak(self, cluster):
        """The point of scaling: beat what one cube can ever do."""
        net = models.scene_labeling_convnn(height=480, width=640,
                                           qformat=None)
        report = MultiCubeModel(cluster).evaluate_network(net)
        assert report.throughput_gops > cluster.cube.peak_gops

    def test_table_renders(self, cluster):
        net = models.scene_labeling_convnn(qformat=None)
        text = MultiCubeModel(cluster).evaluate_network(net).to_table()
        assert "speedup" in text


class TestLstmMapping:
    def test_gate_luts(self, config):
        from repro.core.compiler import compile_inference

        net = models.small_lstm(inputs=16, hidden_units=8, steps=3,
                                qformat=None)
        program = compile_inference(net, config)
        names = {d.name: d.activation for d in program}
        assert names["lstm/gate_i"] == "sigmoid"
        assert names["lstm/gate_f"] == "sigmoid"
        assert names["lstm/gate_o"] == "sigmoid"
        assert names["lstm/gate_g"] == "tanh"
        assert names["lstm/cell_update"] == "tanh"

    def test_gate_macs_match_layer(self, config):
        from repro.core.compiler import compile_inference

        net = models.small_lstm(inputs=16, hidden_units=8, steps=3,
                                qformat=None)
        program = compile_inference(net, config)
        assert program.total_macs == net.layers[0].macs

    def test_training_compiles(self, config):
        from repro.core import compile_training

        net = models.small_lstm(inputs=16, hidden_units=8, steps=3,
                                qformat=None)
        program = compile_training(net, config)
        assert len(program) > len(
            __import__("repro.core.compiler", fromlist=["x"]
                       ).compile_inference(net, config).descriptors)
