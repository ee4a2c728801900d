"""Tests for the experiment harness: registry, runner, and the
paper-shape assertions of every figure/table experiment."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments import (
    fig01_memory_capacity,
    fig09_network_params,
    fig12_inference,
    fig13_training,
    fig14_nn_params,
    fig15_memory_noc,
    fig17_thermal,
    fig_resilience,
    table1_memory_specs,
    table2_hardware,
    table3_comparison,
)
from repro.experiments.runner import main as runner_main


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {"fig1", "fig9", "fig12", "fig13",
                                    "fig14", "fig15", "fig17", "table1",
                                    "table2", "table3", "ext_scaling",
                                    "ext_lstm", "ext_resilience",
                                    "ext_shard", "ext_stream"}

    def test_lookup(self):
        assert get_experiment("fig12").exp_id == "fig12"
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_runner_list(self, capsys):
        assert runner_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table3" in out

    def test_runner_run(self, capsys):
        assert runner_main(["run", "table1"]) == 0
        assert "HMC-Int" in capsys.readouterr().out

    def test_runner_faults_flag(self, capsys):
        """--faults puts a FaultConfig on the run context and prints
        a counter summary to stderr (zero runs for a non-simulating
        experiment — the plumbing is what's under test here)."""
        assert runner_main(["run", "table1", "--faults",
                            "seed=1,dram_bitflip_rate=1e-5"]) == 0
        captured = capsys.readouterr()
        assert "HMC-Int" in captured.out
        assert "[faults] table1:" in captured.err

    def test_runner_faults_flag_rejects_bad_spec(self):
        with pytest.raises(ConfigurationError):
            runner_main(["run", "table1", "--faults", "bogus=1"])

    def test_runner_checkpoint_flags(self, tmp_path, capsys):
        """--checkpoint-every / --resume-from build the ambient
        CheckpointSpec (resume wins the directory choice)."""
        from repro.experiments import runner

        spec = runner._checkpoint_spec(runner.build_parser().parse_args(
            ["run", "table1", "--checkpoint-every", "100",
             "--checkpoint-dir", str(tmp_path)]))
        assert spec.every == 100 and not spec.resume
        assert spec.directory == str(tmp_path)
        spec = runner._checkpoint_spec(runner.build_parser().parse_args(
            ["run", "table1", "--resume-from", str(tmp_path)]))
        assert spec.resume and spec.directory == str(tmp_path)
        assert runner._checkpoint_spec(
            runner.build_parser().parse_args(["run", "table1"])) is None
        # End to end: flags accepted, experiment still runs.
        assert runner_main(["run", "table1", "--checkpoint-every", "50",
                            "--checkpoint-dir", str(tmp_path)]) == 0
        assert "HMC-Int" in capsys.readouterr().out


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig01_memory_capacity.run()

    def test_scene_memory_grows_with_image(self, result):
        scenes = [r for r in result.rows
                  if r["network"] == "scene_labeling"]
        totals = [r["total_bytes"] for r in scenes]
        assert totals == sorted(totals)

    def test_large_images_exceed_onchip(self, result):
        """The Fig. 1 motivation: big inputs don't fit 1 mm^2 on-chip."""
        largest = max(r["total_bytes"] for r in result.rows)
        assert largest > 10 * result.edram_capacity_bytes

    def test_table_renders(self, result):
        assert "mnist_mlp" in result.to_table()


class TestFig9:
    def test_paper_example_matches(self):
        result = fig09_network_params.run()
        assert result.matches_paper_example
        assert result.conv1.neurons_per_pass == 73_476


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_inference.run()

    def test_duplicate_near_paper(self, result):
        assert result.duplicate.throughput_gops == pytest.approx(
            fig12_inference.PAPER_GOPS_DUPLICATE, rel=0.15)

    def test_no_duplicate_degrades(self, result):
        assert 0.6 < result.throughput_ratio < 0.95

    def test_node_speedup_matches_clock_ratio(self, result):
        assert result.node_speedup == pytest.approx(5e9 / 300e6,
                                                    rel=0.05)

    def test_table_renders(self, result):
        text = result.to_table()
        assert "duplicate" in text and "frames/s" in text


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_training.run()

    def test_training_throughput_positive_fraction_of_peak(self, result):
        assert result.report_15nm.throughput_gops > 30.0

    def test_training_slower_than_inference(self, result):
        assert result.training_vs_inference < 1.0

    def test_duplication_overhead_class(self, result):
        """Paper reports 48%; require tens of percent."""
        assert 0.1 < result.report_15nm.memory_overhead < 0.9

    def test_epoch_rate_far_above_inference_rate(self, result):
        inference = fig12_inference.run()
        assert (result.report_15nm.frames_per_second
                > 2 * inference.duplicate.frames_per_second)


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14_nn_params.run()

    def test_kernel_duplicate_flat(self, result):
        points = result.points("kernel", True)
        gops = [p.throughput_gops for p in points]
        assert max(gops) / min(gops) < 1.1

    def test_kernel_no_duplicate_degrades_monotonically(self, result):
        points = result.points("kernel", False)
        gops = [p.throughput_gops for p in points]
        assert gops == sorted(gops, reverse=True)

    def test_kernel_duplication_overhead_grows(self, result):
        points = result.points("kernel", True)
        overheads = [p.memory_overhead for p in points]
        assert overheads == sorted(overheads)

    def test_hidden_no_duplicate_constant_lateral(self, result):
        """Fig. 14(c): lateral traffic is high but constant in width."""
        points = result.points("hidden", False)
        fractions = {round(p.lateral_fraction, 3) for p in points}
        assert len(fractions) == 1
        assert fractions.pop() > 0.3

    def test_hidden_throughput_flat_both_ways(self, result):
        for duplicate in (True, False):
            gops = [p.throughput_gops
                    for p in result.points("hidden", duplicate)]
            assert max(gops) / min(gops) < 1.1

    def test_hidden_duplication_overhead_shrinks(self, result):
        points = result.points("hidden", True)
        overheads = [p.memory_overhead for p in points]
        assert overheads == sorted(overheads, reverse=True)


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self):
        return fig15_memory_noc.run()

    def test_ddr3_much_slower_despite_higher_channel_peak(self, result):
        """Fig. 15(a): DDR3's 12.8 GB/s channels lose to HMC."""
        assert result.ddr3.throughput_gops < (
            0.2 * result.hmc.throughput_gops)

    def test_more_slower_channels_never_worse(self, result):
        eq = [p for p in result.channel_points
              if p.label.startswith("EqBW")]
        gops = [p.throughput_gops for p in eq]
        assert gops == sorted(gops)

    def test_fully_connected_noc_removes_nodup_penalty(self, result):
        def point(topology, workload, duplicate):
            return next(p.throughput_gops for p in result.topology_points
                        if p.topology == topology
                        and p.workload == workload
                        and p.duplicate == duplicate)

        mesh_gap = point("mesh", "fc4096", True) - point(
            "mesh", "fc4096", False)
        full_gap = point("fully_connected", "fc4096", True) - point(
            "fully_connected", "fc4096", False)
        assert full_gap < 0.2 * mesh_gap

    def test_paper_router_cost_reported(self, result):
        full = [p for p in result.topology_points
                if p.topology == "fully_connected"]
        assert all(p.channels_per_router == 17 for p in full)


class TestFig17:
    def test_within_limits_and_ordering(self):
        result = fig17_thermal.run(rows=8, cols=8)
        assert result.result_15nm.within_limits
        assert (result.result_15nm.logic_max_k
                > result.result_15nm.dram_max_k)
        assert (result.result_28nm.logic_max_k
                < result.result_15nm.logic_max_k)


class TestExtResilience:
    """Reduced sweep (two BERs, no ECC axis) — the full grid is the
    soak-marked test in tests/faults/test_soak.py."""

    @pytest.fixture(scope="class")
    def result(self):
        return fig_resilience.run(bit_error_rates=(0.0, 1e-3),
                                  ecc_modes=("none",))

    def test_rate_zero_point_is_bit_identical(self, result):
        zero = result.points_for("none")[0]
        assert zero.ber == 0.0
        assert zero.flip_events == 0
        assert zero.mean_abs_error == 0.0
        assert zero.top1_match

    def test_high_ber_injects_and_drifts(self, result):
        worst = result.points_for("none")[-1]
        assert worst.flip_events > 0
        assert worst.corrupted_items == worst.flip_events  # no ECC
        assert worst.mean_abs_error > 0.0

    def test_table_renders(self, result):
        text = result.to_table()
        assert "BER" in text and "mean|err|" in text


class TestTables:
    def test_table1_lists_all_specs(self):
        result = table1_memory_specs.run()
        assert len(result.specs) == 5

    def test_table2_matches_paper_aggregates(self):
        result = table2_hardware.run()
        for node in ("28nm", "15nm"):
            hardware = result.nodes[node]
            expected = hardware.expected
            assert hardware.compute_power_w == pytest.approx(
                expected["compute_power_w"], rel=0.01)
            assert hardware.compute_area_mm2 == pytest.approx(
                expected["compute_area_mm2"], rel=0.01)
            assert hardware.floorplan.fits_logic_die()

    def test_table3_efficiency_gain_over_gpu(self):
        result = table3_comparison.run()
        assert 3.0 < result.gpu_efficiency_gain < 7.0

    def test_table3_neurocube_rows_near_paper(self):
        result = table3_comparison.run()
        assert result.efficiency("15nm") == pytest.approx(38.82,
                                                          rel=0.15)
        assert result.efficiency("28nm") == pytest.approx(31.92,
                                                          rel=0.15)
