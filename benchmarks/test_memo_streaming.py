"""Persistent memo store and streaming-pipeline throughput gates.

Not a paper artifact: these gate the reproduction's own caching
infrastructure.  Two hard invariants ride on them — a warm run served
from the on-disk store must be *bit-identical* to the cold run it
replays, and the warm path must actually be fast (otherwise the store
is overhead, not a cache).  The speedup thresholds are deliberately far
below the measured factors (~5x and three orders of magnitude on a
2-vCPU host) so they only fire on a real regression, never on CI
scheduler noise.
"""

import time

import numpy as np

from repro.core import (
    MemoDir,
    NeurocubeConfig,
    NeurocubeSimulator,
    RunContext,
    compile_inference,
)
from repro.core.simulator import stream_chunk
from repro.experiments import ext_stream
from repro.memo import MemoStore
from repro.nn import models


def test_persistent_memo_warm_speedup(tmp_path):
    """Warm timing run served from the on-disk store: bit-identical to
    the cold run, at least one hit, zero rejects, and at least 2x
    faster in wall-clock (measured ~5x; the replayed entry skips the
    cycle simulation entirely, so anything near parity means the store
    stopped hitting)."""
    config = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(24, 24, 3, in_maps=1, out_maps=16,
                                   qformat=None)
    desc = compile_inference(net, config).descriptors[0]

    start = time.perf_counter()
    cold = NeurocubeSimulator(
        config, memo=MemoStore(tmp_path / "memo", config)).run_descriptor(
            desc)
    cold_seconds = time.perf_counter() - start
    assert cold.memo_stats.stores >= 1

    warm_sim = NeurocubeSimulator(
        config, memo=MemoStore(tmp_path / "memo", config))
    warm = warm_sim.run_descriptor(desc)
    assert warm.memo_stats.hits >= 1
    assert warm.memo_stats.rejects == 0
    assert warm.cycles == cold.cycles
    assert warm.packets == cold.packets
    assert warm.macs_fired == cold.macs_fired
    assert warm.pe_busy_cycles == cold.pe_busy_cycles
    assert warm.pe_idle_cycles == cold.pe_idle_cycles
    assert warm.inject_stall_cycles == cold.inject_stall_cycles
    ratio = cold_seconds / warm.host_seconds
    print(f"\ncold {cold_seconds:.3f} s, warm {warm.host_seconds:.3f} s "
          f"({ratio:.2f}x)")
    assert ratio >= 2.0


def test_streaming_frames_per_second(tmp_path):
    """Warm-stream throughput: the functional fast path must beat
    per-frame cycle simulation by at least 10x (measured in the
    hundreds to thousands) with bit-identical outputs on every frame.
    This is the acceptance gate for the streaming pipeline — timing
    simulated once per distinct layer shape, every frame replayed
    through the numpy substrate.  The warm phase streams a full chunk
    and a partial one, so the printed rate times more than one chunk's
    stack, quantise and forward."""
    config = NeurocubeConfig.hmc_15nm()
    net = ext_stream.stream_network(config)
    frames = ext_stream.frame_stream(stream_chunk(net.input_shape) + 6)

    reference = NeurocubeSimulator(config)
    start = time.perf_counter()
    per_frame_outputs = [reference.run_network(net, frame)[0]
                         for frame in frames]
    per_frame_seconds = (time.perf_counter() - start) / len(frames)

    with RunContext(memo=MemoDir(tmp_path / "memo")):
        stream = NeurocubeSimulator(config).run_stream(net, frames)
    for streamed, simulated in zip(stream.outputs, per_frame_outputs,
                                   strict=True):
        np.testing.assert_array_equal(streamed, simulated)
    print(f"\nwarm {stream.warm_frames_per_second:.0f} frames/s vs "
          f"{1 / per_frame_seconds:.1f} simulated frames/s")
    assert stream.warm_frames_per_second * per_frame_seconds >= 10.0
