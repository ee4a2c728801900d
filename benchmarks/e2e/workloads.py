"""The four neurobench workloads.

Each workload is a closed loop: one caller runs iterations back to
back.  An iteration's inputs are drawn from the run's seed before the
timed call, and its checks run after it, both outside the timed region.
Only ``run`` is timed, and it calls ``repro``'s public API alone.

Every workload runs on one core (``sim_workers=1``).  The simulator
builds fresh PEs for every pass, so the modelled PE caches start empty
on every pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import NeurocubeConfig, NeurocubeSimulator, compile_inference
from repro.fixedpoint import quantize_float
from repro.memo import MemoStore
from repro.nn import Network, models
from repro.nn.activations import ActivationLUT

CONFIG = NeurocubeConfig.hmc_15nm(sim_workers=1)


@dataclass
class Outcome:
    """What one timed iteration returns.

    Attributes:
        cycles: simulated cycles the iteration delivered.
        phases: ``time.perf_counter`` (start, end) of named phases
            inside the iteration.
        rates: workload-specific rates the iteration measured, each a
            (rate per wall second, phase it was measured in) pair.
        payload: whatever the workload's ``check`` needs.
    """

    cycles: int
    phases: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)
    payload: object = None


def _with_luts(network: Network) -> Network:
    """Wrap every activation in the LUT the simulated hardware applies,
    so functional runs are bit-exact against ``Network.forward``."""
    for layer in network.layers:
        if not isinstance(layer.activation, ActivationLUT):
            layer.activation = ActivationLUT(layer.activation)
    return network


def _scene_net() -> Network:
    return _with_luts(models.scene_labeling_convnn(
        24, 24, kernel=3, conv_maps=(4, 8, 8), hidden_units=32))


def _reference(network: Network, x: np.ndarray) -> np.ndarray:
    """The numpy Q1.7.8 output for one unbatched input."""
    quantized = quantize_float(x, CONFIG.qformat)
    return network.forward(quantized[np.newaxis])[0]


class Workload:
    """Base: one model, set up once, run once per iteration.

    Attributes:
        warmup: untimed iterations run before timing starts.
        cycles: the simulated cycles every iteration must deliver.
        rate_phase: the phase whose host seconds ``sim_cycles_per_s``
            divides by; None divides by the whole iteration.
        tail: report ``iter_p90_s`` (only where iterations are many).
    """

    name = ""
    warmup = 1
    cycles = 0
    rate_phase: str | None = None
    tail = False

    def __init__(self, seed: int, scratch: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch

    def inputs(self):
        return None

    def run(self, inputs) -> Outcome:
        raise NotImplementedError

    def check(self, inputs, outcome: Outcome) -> list[str]:
        return []


class ConvSmoke(Workload):
    """The 581-cycle smoke conv layer, timing-only: the engine alone."""

    name = "conv_smoke"
    warmup = 5
    cycles = 581
    tail = True

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        network = models.single_conv_layer(24, 24, 3, qformat=None)
        self.descriptor = compile_inference(network, CONFIG).descriptors[0]
        self.simulator = NeurocubeSimulator(CONFIG)

    def run(self, inputs) -> Outcome:
        return Outcome(self.simulator.run_descriptor(self.descriptor).cycles)


class _Functional(Workload):
    """A workload whose functional output is checked against numpy."""

    network: Network

    def inputs(self):
        x = self.rng.uniform(-1.0, 1.0, self.network.input_shape)
        return x, _reference(self.network, x)

    def check(self, inputs, outcome: Outcome) -> list[str]:
        if np.array_equal(outcome.payload, inputs[1]):
            return []
        return ["simulated output differs from Network.forward"]


class SceneNet(_Functional):
    """The reduced scene-labeling net, functional, through every layer."""

    name = "scene_net"
    cycles = 25_723

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.network = _scene_net()
        self.simulator = NeurocubeSimulator(CONFIG)

    def run(self, inputs) -> Outcome:
        output, report = self.simulator.run_network(self.network, inputs[0])
        return Outcome(int(report.total_cycles), payload=output)


class FcNets(_Functional):
    """The MNIST MLP (functional) plus the small LSTM (timing-only)."""

    name = "fc_nets"
    cycles = 13_854 + 6_991

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        self.network = _with_luts(models.mnist_mlp(hidden_units=64))
        self.lstm = compile_inference(models.small_lstm(),
                                      CONFIG).descriptors
        self.simulator = NeurocubeSimulator(CONFIG)

    def run(self, inputs) -> Outcome:
        output, report = self.simulator.run_network(self.network, inputs[0])
        lstm_cycles = sum(self.simulator.run_descriptor(desc).cycles
                          for desc in self.lstm)
        return Outcome(int(report.total_cycles) + lstm_cycles,
                       payload=output)


class StreamMemo(Workload):
    """Fill then replay a fresh memo store with the scene net's front end.

    The fill streams the first frames and stores one entry per layer;
    the replay opens a new store on the same directory and streams all
    frames, so every layer's timing is loaded instead of simulated.
    """

    name = "stream_memo"
    cycles = 24_416
    rate_phase = "fill_s"
    fill_frames = 64
    replay_frames = 512
    layers = 5

    def __init__(self, seed: int, scratch: Path) -> None:
        super().__init__(seed, scratch)
        scene = _scene_net()
        self.network = Network(scene.layers[:self.layers],
                               input_shape=scene.input_shape,
                               name="scene_front_end")
        self._count = 0

    def inputs(self):
        frames = [self.rng.uniform(-1.0, 1.0, self.network.input_shape)
                  for _ in range(self.replay_frames)]
        self._count += 1
        return frames, self.scratch / f"memo-{self._count}"

    def run(self, inputs) -> Outcome:
        frames, directory = inputs
        start = time.perf_counter()
        fill = NeurocubeSimulator(
            CONFIG, memo=MemoStore(directory, CONFIG)).run_stream(
                self.network, frames[:self.fill_frames])
        filled = time.perf_counter()
        replay = NeurocubeSimulator(
            CONFIG, memo=MemoStore(directory, CONFIG)).run_stream(
                self.network, frames)
        done = time.perf_counter()
        return Outcome(
            int(replay.cycles_per_frame),
            phases={"fill_s": (start, filled), "replay_s": (filled, done)},
            rates={"warm_frames_per_s": (replay.warm_frames_per_second,
                                         "replay_s")},
            payload=(fill, replay))

    def check(self, inputs, outcome: Outcome) -> list[str]:
        fill, replay = outcome.payload
        failures = []
        if (fill.memo.misses, fill.memo.stores) != (self.layers,
                                                     self.layers):
            failures.append(f"fill memo counters {fill.memo.format()}")
        if (replay.memo.hits, replay.memo.rejects) != (self.layers, 0):
            failures.append(f"replay memo counters {replay.memo.format()}")
        if fill.cycles_per_frame != replay.cycles_per_frame:
            failures.append(f"replay cycles {replay.cycles_per_frame} != "
                            f"fill cycles {fill.cycles_per_frame}")
        shared = zip(fill.outputs, replay.outputs[:self.fill_frames],
                     strict=True)
        if not all(np.array_equal(a, b) for a, b in shared):
            failures.append("replay outputs differ from fill outputs")
        return failures


WORKLOADS = {cls.name: cls
             for cls in (ConvSmoke, SceneNet, FcNets, StreamMemo)}
