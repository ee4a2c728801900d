"""Streaming mode: bit-exact outputs, exact cycles, runner CLI wiring."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core import (
    MemoDir,
    NeurocubeConfig,
    NeurocubeSimulator,
    RunContext,
    StreamReport,
    compile_inference,
)
from repro.core.simulator import stream_chunk
from repro.errors import ConfigurationError
from repro.experiments import ext_stream
from repro.experiments.runner import main as runner_main
from repro.fixedpoint import quantize_float
from repro.nn import Network, models
from repro.nn.activations import ActivationLUT

CONFIG = NeurocubeConfig.hmc_15nm()


def _with_luts(network: Network) -> Network:
    for layer in network.layers:
        if not isinstance(layer.activation, ActivationLUT):
            layer.activation = ActivationLUT(layer.activation)
    return network


def _scene_front_end() -> Network:
    scene = _with_luts(models.scene_labeling_convnn(
        24, 24, kernel=3, conv_maps=(4, 8, 8), hidden_units=32))
    return Network(scene.layers[:5], input_shape=scene.input_shape,
                   name="scene_front_end")


def _frame_by_frame(network: Network, frames) -> list[np.ndarray]:
    return [network.forward(quantize_float(frame, CONFIG.qformat)[None])[0]
            for frame in frames]


def _counts(network: Network) -> list[int]:
    """Frame counts around the warm phase's chunk boundaries."""
    c = stream_chunk(network.input_shape)
    return sorted({1, max(1, c - 1), c, c + 1, 2 * c + 3})


def _frames(network: Network, count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(count)
    return [rng.uniform(-1.0, 1.0, network.input_shape)
            for _ in range(count)]


class TestRunStream:
    def test_outputs_bit_identical_to_per_frame_simulation(self):
        net = ext_stream.stream_network(CONFIG)
        frames = ext_stream.frame_stream(3)
        sim = NeurocubeSimulator(CONFIG)
        stream = sim.run_stream(net, frames)
        assert stream.frames == 3
        assert len(stream.outputs) == 3
        for frame, streamed in zip(frames, stream.outputs, strict=True):
            simulated, report = sim.run_network(net, frame)
            assert np.array_equal(streamed, simulated)
            assert report.total_cycles == stream.cycles_per_frame

    def test_total_cycles_scale_with_frames(self):
        net = ext_stream.stream_network(CONFIG)
        stream = NeurocubeSimulator(CONFIG).run_stream(
            net, ext_stream.frame_stream(2))
        assert stream.total_cycles == 2 * stream.cycles_per_frame
        assert stream.cycles_per_frame > 0

    def test_empty_stream_rejected(self):
        net = ext_stream.stream_network(CONFIG)
        with pytest.raises(ConfigurationError):
            NeurocubeSimulator(CONFIG).run_stream(net, [])

    def test_second_stream_hits_the_store(self, tmp_path):
        net = ext_stream.stream_network(CONFIG)
        frames = ext_stream.frame_stream(2)
        with RunContext(memo=MemoDir(tmp_path)):
            cold = NeurocubeSimulator(CONFIG).run_stream(net, frames)
            warm = NeurocubeSimulator(CONFIG).run_stream(net, frames)
        assert cold.memo.stores >= 1
        assert warm.memo.hits >= 1
        assert warm.memo.rejects == 0
        cold_cycles = [layer.cycles for layer in cold.cold.layers]
        warm_cycles = [layer.cycles for layer in warm.cold.layers]
        assert cold_cycles == warm_cycles
        for a, b in zip(cold.outputs, warm.outputs, strict=True):
            assert np.array_equal(a, b)

    def test_misshaped_frame_rejected_before_the_cold_phase(
            self, monkeypatch):
        def no_compile(*args, **kwargs):
            raise AssertionError("the cold phase ran")

        monkeypatch.setattr("repro.core.simulator.compile_inference",
                            no_compile)
        net = ext_stream.stream_network(CONFIG)
        frames = ext_stream.frame_stream(4)
        frames[1] = frames[1][0]
        frames[3] = frames[3][0]
        with pytest.raises(ConfigurationError,
                           match=r"frame 1 has shape \(16, 16\)"):
            NeurocubeSimulator(CONFIG).run_stream(net, frames)

    @pytest.mark.parametrize("build", [
        lambda: ext_stream.stream_network(CONFIG),
        models.small_lstm,
    ], ids=["stream_convpool", "small_lstm"])
    def test_cold_phase_runs_every_descriptor(self, build):
        """In program order, even where one layer lowers to several
        descriptors (an LSTM's four gates and its cell update)."""
        net = build()
        sim = NeurocubeSimulator(CONFIG)
        program = compile_inference(net, CONFIG)
        runs = [sim.run_descriptor(desc) for desc in program.descriptors]
        stream = sim.run_stream(net, _frames(net, 2))
        assert [layer.name for layer in stream.cold.layers] == [
            desc.name for desc in program.descriptors]
        assert stream.cycles_per_frame == sum(run.cycles for run in runs)
        if net.name == "small_lstm":
            assert len(stream.cold.layers) == 5
            assert stream.cycles_per_frame == 6991

    def test_zero_warm_time_raises(self):
        report = StreamReport(network_name="n", f_clk_hz=1e9, frames=1,
                              cold=None)
        with pytest.raises(ConfigurationError):
            report.warm_frames_per_second
        with pytest.raises(ConfigurationError):
            report.warm_speedup


class TestOutputsDigest:
    def test_digest_covers_every_output_value(self):
        """The digest is the SHA-256 of every output value in stream
        order; streams that differ in one frame differ in it."""
        net = ext_stream.stream_network(CONFIG)
        frames = _frames(net, 3)
        streams = [NeurocubeSimulator(CONFIG).run_stream(net, batch)
                   for batch in (frames, frames[:2] + [-frames[2]])]
        assert streams[0].outputs_sha256 == hashlib.sha256(
            np.stack(streams[0].outputs).tobytes()).hexdigest()
        assert streams[0].outputs_sha256 != streams[1].outputs_sha256


class TestWarmBatching:
    """The batched warm phase equals one ``forward`` per frame."""

    @pytest.mark.parametrize("build", [
        lambda: ext_stream.stream_network(CONFIG),
        _scene_front_end,
        lambda: _with_luts(models.mnist_mlp(64)),
    ], ids=["stream_convpool", "scene_front_end", "mnist_mlp"])
    def test_bit_identical_across_chunk_boundaries(self, build):
        net = build()
        for count in _counts(net):
            frames = _frames(net, count)
            stream = NeurocubeSimulator(CONFIG).run_stream(net, frames)
            assert len(stream.outputs) == count
            for streamed, alone in zip(stream.outputs,
                                       _frame_by_frame(net, frames),
                                       strict=True):
                assert np.array_equal(streamed, alone)

    def test_lstm_within_a_few_ulps_of_frame_by_frame(self):
        # The recurrent state is not quantised, so batched matmuls may
        # round differently from frame-by-frame ones in the last bits.
        net = models.small_lstm()
        frames = _frames(net, stream_chunk(net.input_shape) + 1)
        stream = NeurocubeSimulator(CONFIG).run_stream(net, frames)
        for streamed, alone in zip(stream.outputs,
                                   _frame_by_frame(net, frames),
                                   strict=True):
            np.testing.assert_allclose(streamed, alone, rtol=0,
                                       atol=4 * np.finfo(np.float64).eps)

    def test_outputs_are_rows_of_one_block(self):
        net = ext_stream.stream_network(CONFIG)
        stream = NeurocubeSimulator(CONFIG).run_stream(
            net, ext_stream.frame_stream(3))
        block = stream.outputs
        assert isinstance(block, np.ndarray)
        assert block.shape == (3, *net.output_shape)
        assert block.dtype == np.float64
        assert len(block) == 3
        assert all(row.base is block for row in block)
        assert stream.outputs_sha256 == hashlib.sha256(
            block.tobytes()).hexdigest()

    def test_chunk_sizes(self):
        assert stream_chunk((3, 240, 320)) == 1
        assert stream_chunk((3, 24, 24)) == 9
        assert stream_chunk((1, 16, 16)) == 64


class TestExperiment:
    def test_frame_count_override(self):
        ext_stream.set_frame_count(2)
        try:
            assert ext_stream.run().frames == 2
        finally:
            ext_stream.set_frame_count(None)
        assert ext_stream.run(frames=1).frames == 1

    def test_bad_frame_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ext_stream.set_frame_count(0)

    def test_default_frame_count(self):
        assert ext_stream.run().frames == ext_stream.DEFAULT_FRAMES


class TestRunnerCli:
    def test_stream_with_memo_dir_json(self, tmp_path, capsys):
        memo_dir = str(tmp_path / "memo")
        argv = ["run", "ext_stream", "--stream", "2",
                "--memo-dir", memo_dir, "--json"]
        assert runner_main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["ext_stream"]["frames"] == 2
        assert cold["__memo__"]["stores"] >= 1
        assert runner_main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["__memo__"]["hits"] >= 1
        assert warm["__memo__"]["rejects"] == 0
        cold_cycles = [layer["cycles"] for layer
                       in cold["ext_stream"]["cold"]["layers"]]
        warm_cycles = [layer["cycles"] for layer
                       in warm["ext_stream"]["cold"]["layers"]]
        assert cold_cycles == warm_cycles
        assert cold["ext_stream"]["outputs"] == warm["ext_stream"]["outputs"]

    def test_stream_override_is_restored(self, tmp_path, capsys):
        argv = ["run", "ext_stream", "--stream", "2", "--json"]
        assert runner_main(argv) == 0
        capsys.readouterr()
        assert ext_stream.run().frames == ext_stream.DEFAULT_FRAMES

    def test_memo_summary_on_stderr(self, tmp_path, capsys):
        argv = ["run", "ext_stream", "--stream", "1",
                "--memo-dir", str(tmp_path)]
        assert runner_main(argv) == 0
        captured = capsys.readouterr()
        assert "[memo] ext_stream:" in captured.err
        assert "STREAM:" in captured.out
