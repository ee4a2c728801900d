"""One differential harness: every execution mode equals lock-step.

Hypothesis draws a small workload (conv with kernel 1/3/5, 1-3 maps,
duplicated or not; sub-passed conv; max or average pool; FC; a
timing-only LSTM; a conv -> pool -> flatten -> dense network) and a
config (mesh or fully connected NoC, HMC or DDR3, 2- or 16-deep
buffers, 64/32/16-entry cache sub-banks).  The reference is lock-step,
one worker, no memo, untraced and fault-free; its outputs equal
``net.forward`` (sub-passed convs store partial sums as Q1.7.8 and
differ by 1 LSB at 2 sub-passes, up to 2 LSB measured at 4).
Skip-ahead, in-process and persistent memo, two workers, traced, rate-0
faults, checkpoint resume and 1-/2-cube shards must all equal it;
deadlocks raise the same error text in every mode.  Memo on a draw
simulates one node slice per timing class of each duplicated pass
(``PassPlan.slice_classes``), functional or timing-only.  Memo on a
functional draw also runs the maps of a conv or pooling layer on the
first map's passes, the other maps evaluated from their own vault
images, so it must equal the per-map reference too, serially and over
two workers.  The pinned examples include DDR3 timing draws, whose
skip-ahead must replay the vault's fractional issue credit and burst
position exactly, a two-map sub-passed conv whose evaluated map
preloads its own partial sums, a three-map sub-passed conv on DDR3,
where every map is simulated, a functional FC whose duplicated pass
folds, a network whose two-map conv and two-map max pool each share
their first map's pass, and a three-map average pool that shares one
pass.  ``pytest -m soak`` runs 200 randomized draws.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    MemoDir,
    MultiCubeConfig,
    NeurocubeConfig,
    NeurocubeSimulator,
    RunContext,
    compile_inference,
)
from repro.core import fold, scheduler
from repro.core.config import SIM_WORKERS_ENV
from repro.core.pe import ProcessingElement
from repro.core.png import RegisterStream
from repro.core.scheduler import build_conv_pass, build_fc_pass
from repro.core.shard import ShardedSimulator
from repro.errors import SimulationError
from repro.faults import CheckpointSpec, FaultConfig
from repro.fixedpoint import Q_1_7_8 as Q
from repro.fixedpoint import quantize_float
from repro.nn import models
from repro.nn.activations import ActivationLUT, Identity, Tanh
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.network import Network
from repro.obs import TraceOptions

from tests.core.test_shard_equivalence import assert_reports_identical

#: Every LayerRun field that must agree across execution modes.
STAT_FIELDS = (
    "cycles", "packets", "lateral_fraction", "mean_packet_latency",
    "macs_fired", "pe_busy_cycles", "pe_idle_cycles",
    "search_stall_cycles", "cache_peak", "inject_stall_cycles",
    "degraded",
)
RATE_ZERO = FaultConfig(seed=7)
TRACED = TraceOptions()
#: The lock-step side of the counter comparison needs no events.
COUNTED = TraceOptions(events=False)


@pytest.fixture(autouse=True, scope="module")
def serial_reference():
    """The reference is ``sim_workers=1``: no ambient override."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(SIM_WORKERS_ENV, raising=False)
        yield


@dataclass(frozen=True)
class Workload:
    """A network plus its input; ``x`` None runs timing-only."""

    net: Network
    x: np.ndarray | None
    duplicate: bool = True
    one_lsb: bool = False

    @property
    def map_tasks(self) -> bool:
        """Whether any layer runs as map tasks (where memo applies)."""
        return any(isinstance(layer, (Conv2D, MaxPool2D, AvgPool2D))
                   for layer in self.net.layers)


def workload(layers, shape, functional, seed, **kwargs) -> Workload:
    net = Network(layers, input_shape=shape, name="draw", seed=seed)
    x = None
    if functional:
        rng = np.random.default_rng(seed)
        x = quantize_float(rng.uniform(-1.0, 1.0, shape), Q)
    return Workload(net, x, **kwargs)


def conv_layer(maps, kernel):
    return Conv2D(maps, kernel, activation=ActivationLUT(Tanh()),
                  qformat=Q, name="conv")


def conv(kernel, maps, duplicate, functional=True, seed=1):
    # Eight output rows: each cube of a 2-cube shard needs four input
    # rows to tile its 4x4 vault grid, even with a 1x1 kernel.
    return workload([conv_layer(maps, kernel)], (1, kernel + 7, 8),
                    functional, seed, duplicate=duplicate)


def sub_passed_conv(maps=1, functional=True, seed=2):
    # Ten 5x5 input maps (250 weights) overflow the 225-item weight
    # register: two sub-passes of five maps chain partial sums.
    return workload([conv_layer(maps, 5)], (10, 7, 7), functional, seed,
                    one_lsb=True)


def pool(kind, maps, functional=True, seed=3):
    return workload([kind(2, qformat=Q, name="pool")], (maps, 8, 8),
                    functional, seed)


def fc(outputs, inputs, functional=True, seed=4):
    dense = Dense(outputs, activation=ActivationLUT(Identity()),
                  qformat=Q, name="fc")
    return workload([dense], (inputs,), functional, seed)


def lstm(seed=5):
    return Workload(models.small_lstm(inputs=8, hidden_units=16, steps=2,
                                      seed=seed), None)


def network(functional=True, seed=6):
    layers = [conv_layer(2, 3), MaxPool2D(2, qformat=Q, name="pool"),
              Flatten(name="flatten"),
              Dense(6, activation=ActivationLUT(Tanh()), qformat=Q,
                    name="fc")]
    return workload(layers, (1, 10, 10), functional, seed)


def config(memory="hmc", topology="mesh", depth=16, entries=64):
    base = (NeurocubeConfig.hmc_15nm() if memory == "hmc"
            else NeurocubeConfig.ddr3())
    return base.with_(noc_topology=topology, noc_buffer_depth=depth,
                      cache_entries_per_subbank=entries,
                      sim_skip_ahead=False, sim_workers=1,
                      sim_memoize=False)


seeds = st.integers(0, 2**16)
workloads = st.one_of(
    st.builds(conv, st.sampled_from([1, 3, 5]), st.integers(1, 3),
              st.booleans(), st.booleans(), seeds),
    st.builds(sub_passed_conv, functional=st.booleans(), seed=seeds),
    st.builds(pool, st.sampled_from([MaxPool2D, AvgPool2D]),
              st.integers(1, 3), st.booleans(), seeds),
    st.builds(fc, st.integers(4, 40), st.integers(4, 40), st.booleans(),
              seeds),
    st.builds(lstm, seeds),
    st.builds(network, st.booleans(), seeds),
)
configs = st.builds(config, st.sampled_from(["hmc", "ddr3"]),
                    st.sampled_from(["mesh", "fully_connected"]),
                    st.sampled_from([2, 16]),
                    st.sampled_from([64, 32, 16]))


@dataclass
class Result:
    output: np.ndarray | None
    runs: list
    rows: list


def simulate(config, w: Workload, **hooks) -> Result:
    """Run ``w`` once: ``run_network`` if functional, else every
    descriptor timing-only.  Keeps each descriptor's LayerRun."""
    simulator = NeurocubeSimulator(config, **hooks)
    runs: list = []
    if w.x is None:
        program = compile_inference(w.net, config, w.duplicate)
        for desc in program.descriptors:
            runs.append(simulator.run_descriptor(desc))
        return Result(None, runs, [run.to_stats() for run in runs])
    run_descriptor = simulator.run_descriptor

    def recording(*args, **kwargs):
        runs.append(run_descriptor(*args, **kwargs))
        return runs[-1]

    simulator.run_descriptor = recording
    output, report = simulator.run_network(w.net, w.x, w.duplicate)
    return Result(output, runs, report.layers)


def shard(config, w: Workload, cubes, workers):
    sharded = ShardedSimulator(MultiCubeConfig(cube=config, n_cubes=cubes),
                               workers=workers)
    if w.x is None:
        return None, sharded.run_timing(w.net, w.duplicate)
    return sharded.run_network(w.net, w.x, w.duplicate)


def assert_equal(mode, got: Result, ref: Result) -> None:
    np.testing.assert_array_equal(got.output, ref.output, err_msg=mode)
    assert ([[getattr(run, name) for name in STAT_FIELDS]
             for run in got.runs]
            == [[getattr(run, name) for name in STAT_FIELDS]
                for run in ref.runs]), mode
    assert got.rows == ref.rows, mode


def keep_first_snapshots(directory: Path) -> None:
    """Simulate a crash: keep only each pass's first snapshot.  Names
    are ``label@cycle.pkl`` with a zero-padded cycle, so name order is
    cycle order within each label."""
    kept: set = set()
    for path in sorted(directory.glob("*.pkl")):
        label = path.name.split("@")[0]
        if label in kept:
            path.unlink()
        kept.add(label)
    assert kept, "checkpointed run saved no snapshot"


def check_every_mode(w: Workload, ref_config: NeurocubeConfig) -> None:
    ref = simulate(ref_config, w)
    if w.x is not None:
        expected = w.net.forward(w.x[np.newaxis])[0]
        tolerance = ref_config.qformat.resolution if w.one_lsb else 0.0
        assert np.abs(ref.output - expected).max() <= tolerance

    skip = ref_config.with_(sim_skip_ahead=True)
    assert_equal("skip-ahead", simulate(skip, w), ref)
    assert_equal("workers=2", simulate(skip.with_(sim_workers=2), w), ref)
    assert_equal("rate-0", simulate(skip, w, faults=RATE_ZERO), ref)
    traced = simulate(skip, w, trace=TRACED)
    traced_lock_step = simulate(ref_config, w, trace=COUNTED)
    assert_equal("traced", traced, ref)
    assert_equal("traced lock-step", traced_lock_step, ref)
    assert ([run.trace.counters.samples for run in traced.runs]
            == [run.trace.counters.samples
                for run in traced_lock_step.runs])

    with tempfile.TemporaryDirectory() as scratch:
        ckpt = str(Path(scratch) / "ckpt")
        # Snapshots about every half pass: each pass's first is mid-pass.
        every = max(8, min(run.cycles // run.descriptor.passes
                           for run in ref.runs) // 2)
        saved = simulate(skip, w, checkpoint=CheckpointSpec(ckpt, every))
        assert_equal("checkpoint save", saved, ref)
        keep_first_snapshots(Path(ckpt))
        resumed = simulate(ref_config, w, checkpoint=CheckpointSpec(
            ckpt, resume=True))
        assert_equal("checkpoint resume", resumed, ref)

        # Memo folds the node slices of duplicated passes, functional
        # or timing-only, FC and LSTM passes included; functionally, a
        # conv or pooling layer's maps also share their first map's
        # passes.
        memo = skip.with_(sim_memoize=True)
        assert_equal("memo", simulate(memo, w), ref)
        if w.x is not None:
            assert_equal("memo workers=2",
                         simulate(memo.with_(sim_workers=2), w), ref)
        if w.x is None and w.map_tasks:
            with RunContext(memo=MemoDir(Path(scratch) / "memo")):
                assert_equal("memo cold", simulate(memo, w), ref)
                warm = simulate(memo, w)
            assert_equal("memo warm", warm, ref)
            assert sum(run.memo_stats.hits for run in warm.runs) >= 1
            assert sum(run.memo_stats.rejects for run in warm.runs) == 0

        # Cube jobs get the worker form of the context, which strips
        # the memo store: sharded runs never read or write it.
        with RunContext(memo=MemoDir(Path(scratch) / "shard-memo")):
            one_output, one_cube = shard(memo, w, cubes=1, workers=1)
        assert not list(Path(scratch).glob("shard-memo/*/*.pkl"))
    assert one_cube.report.layers == ref.rows
    assert not one_cube.exchanges
    serial_output, serial = shard(skip, w, cubes=2, workers=1)
    parallel_output, parallel = shard(skip, w, cubes=2, workers=2)
    assert_reports_identical(serial, parallel)
    for output in (one_output, serial_output, parallel_output):
        np.testing.assert_array_equal(output, ref.output)


@settings(derandomize=True, deadline=None, max_examples=4)
@given(w=workloads, ref_config=configs)
@example(w=fc(272, 12), ref_config=config())
@example(w=sub_passed_conv(maps=2),
         ref_config=config(topology="fully_connected"))
@example(w=pool(MaxPool2D, 2, functional=False),
         ref_config=config(memory="ddr3", depth=2))
@example(w=lstm(), ref_config=config(topology="fully_connected"))
@example(w=network(), ref_config=config(depth=2, entries=32))
@example(w=pool(AvgPool2D, 3), ref_config=config())
@example(w=conv(3, 2, duplicate=True, functional=False),
         ref_config=config(memory="ddr3", entries=16))
@example(w=sub_passed_conv(maps=3),
         ref_config=config(memory="ddr3", depth=2))
def test_every_mode_equals_lock_step(w, ref_config):
    check_every_mode(w, ref_config)


@pytest.mark.soak
@settings(deadline=None, max_examples=200)
@given(w=workloads, ref_config=configs)
def test_every_mode_equals_lock_step_soak(w, ref_config):
    check_every_mode(w, ref_config)


def stall_message(config, starve, max_cycles, functional=False,
                  **hooks) -> str:
    """The error text of a deadlocked conv pass.  Timing-only, one
    pass runs straight through ``run_pass``; functionally, the whole
    three-map layer runs through ``run_descriptor`` (sharing its pass
    when memo is on) with every plan starved the same way."""
    net = models.single_conv_layer(8, 8, 3, out_maps=3, qformat=None)
    desc = compile_inference(net, config).descriptors[0]
    stall_limit = 800 if starve is not None else 10**9

    def starved(plan):
        if starve is not None:
            # One write-back that never comes: once the pass drains,
            # every agent is passive forever.
            plan.expected_writebacks[starve % config.n_channels] += 1
        return plan

    if not functional:
        plan = starved(build_conv_pass(desc, config, None, None, 0.0, None))
        with pytest.raises(SimulationError, match="stalled") as excinfo:
            NeurocubeSimulator(config).run_pass(
                plan, max_cycles=max_cycles, stall_limit=stall_limit,
                ctx=RunContext(**hooks), pass_label="stall")
        return str(excinfo.value)
    build, run_pass = scheduler.build_conv_pass, NeurocubeSimulator.run_pass
    x = np.random.default_rng(8).uniform(-1.0, 1.0, (1, 8, 8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "build_conv_pass",
                      lambda *args, **kwargs: starved(build(*args,
                                                            **kwargs)))
        patch.setattr(NeurocubeSimulator, "run_pass",
                      lambda self, plan, **kwargs: run_pass(
                          self, plan, max_cycles=max_cycles,
                          stall_limit=stall_limit, **kwargs))
        with pytest.raises(SimulationError, match="stalled") as excinfo:
            NeurocubeSimulator(config, **hooks).run_descriptor(
                desc, net.layers[0], x)
    return str(excinfo.value)


@settings(derandomize=True, deadline=None, max_examples=4)
@given(ref_config=configs,
       stall=st.one_of(
           st.tuples(st.integers(0, 15), st.none()),
           # Below the shortest config's 287-cycle pass, so the
           # ceiling always fires mid-pass.
           st.tuples(st.none(), st.integers(20, 250))))
@example(ref_config=config(), stall=(0, None))
@example(ref_config=config(topology="fully_connected"), stall=(None, 40))
def test_deadlocks_raise_identically(ref_config, stall):
    expected = stall_message(ref_config, *stall)
    skip = ref_config.with_(sim_skip_ahead=True)
    with tempfile.TemporaryDirectory() as scratch:
        for hooks in ({}, {"trace": TRACED}, {"faults": RATE_ZERO},
                      {"checkpoint": CheckpointSpec(scratch, every=64)}):
            assert stall_message(skip, *stall, **hooks) == expected, hooks
    # Memo folds the timing-only pass's node slices; its stall re-runs
    # the pass in full.
    assert stall_message(skip.with_(sim_memoize=True), *stall) == expected
    for functional in (ref_config, skip.with_(sim_memoize=True)):
        assert stall_message(functional, *stall,
                             functional=True) == expected


@pytest.fixture
def pass_labels(monkeypatch) -> list[str]:
    """The label of every pass ``run_pass`` simulates, in order."""
    monkeypatch.delenv(SIM_WORKERS_ENV, raising=False)
    calls: list[str] = []
    run_pass = NeurocubeSimulator.run_pass

    def counting(self, plan, **kwargs):
        calls.append(kwargs["pass_label"])
        return run_pass(self, plan, **kwargs)

    monkeypatch.setattr(NeurocubeSimulator, "run_pass", counting)
    return calls


def test_shared_conv_runs_one_pass_per_sub_pass(pass_labels):
    """A functional conv simulates only its lead map's pass per
    sub-pass under memo, the other maps' write-backs evaluated from
    their own plans and partial sums; without memo, and on DDR3, whose
    passes never fold, every map's passes are simulated.  The outputs
    are equal in every case."""
    for w, maps, sub_passes in (
            (workload([conv_layer(4, 5)], (10, 7, 7), True, seed=9), 4, 2),
            # 7x7 over 16 input maps: four sub-passes, so the evaluated
            # maps' partial sums cross three preload boundaries.
            (workload([conv_layer(3, 7)], (16, 9, 9), True, seed=12), 3,
             4)):
        every_map = [f"conv.m{m}.s{j}" for m in range(maps)
                     for j in range(sub_passes)]
        outputs = []
        for cfg, labels in (
                (config().with_(sim_memoize=True), every_map[:sub_passes]),
                (config(), every_map),
                (config("ddr3").with_(sim_memoize=True), every_map)):
            pass_labels.clear()
            outputs.append(simulate(cfg, w).output)
            assert pass_labels == labels
        for output in outputs[1:]:
            np.testing.assert_array_equal(output, outputs[0])
        assert len({output.tobytes() for output in outputs[0]}) == maps
        # Each sub-pass boundary rounds the stored partial sums.
        expected = w.net.forward(w.x[np.newaxis])[0]
        assert np.abs(outputs[0] - expected).max() <= 2 * Q.resolution


@pytest.mark.parametrize("kind", [MaxPool2D, AvgPool2D])
def test_pool_maps_share_the_first_maps_pass(kind, pass_labels):
    """A functional four-map pool simulates only its first map's pass
    under memo, the other maps' write-backs evaluated from their own
    vault images, and every map's pass without memo; on DDR3, whose
    passes never fold, every map is simulated even under memo."""
    w = pool(kind, 4, seed=10)
    every_map = [f"pool.m{m}.s0" for m in range(4)]
    expected = w.net.forward(w.x[np.newaxis])[0]
    assert len({output.tobytes() for output in expected}) == 4
    for cfg, labels in (
            (config().with_(sim_memoize=True), ["pool.m0.s0"]),
            (config(), every_map),
            (config("ddr3").with_(sim_memoize=True), every_map)):
        pass_labels.clear()
        np.testing.assert_array_equal(simulate(cfg, w).output, expected)
        assert pass_labels == labels


def test_follower_blocks_split_maps_rows_and_connections(monkeypatch,
                                                         pass_labels):
    """With evaluator blocks of three elements, the follower maps of a
    shared conv (two and four sub-passes) and of a four-map max and
    average pool are evaluated in blocks that split their maps, rows
    and connections; the outputs still equal every map simulated on
    its own."""
    monkeypatch.setattr(fold, "_BLOCK", 3)
    shapes: list[tuple[int, int, int]] = []
    evaluate = fold.evaluate

    def recording(streams, images, group, preload, *args):
        shapes.append((*preload.shape, group.n_connections))
        return evaluate(streams, images, group, preload, *args)

    monkeypatch.setattr(fold, "evaluate", recording)
    for w, sub_passes in (
            (workload([conv_layer(4, 5)], (10, 7, 7), True, seed=9), 2),
            (workload([conv_layer(3, 7)], (16, 9, 9), True, seed=12), 4),
            (pool(MaxPool2D, 4, seed=10), 1),
            (pool(AvgPool2D, 4, seed=10), 1)):
        name = w.net.layers[0].name
        shapes.clear()
        pass_labels.clear()
        shared = simulate(config().with_(sim_memoize=True), w).output
        assert pass_labels == [f"{name}.m0.s{j}" for j in range(sub_passes)]
        assert any(maps > 1 and rows > 1 and connections > 3
                   for maps, rows, connections in shapes)
        assert np.array_equal(shared, simulate(config(), w).output)


def test_lateral_packet_reruns_a_folded_pass_in_full(monkeypatch):
    """A pass wrongly taken to fold, whose vaults feed other nodes'
    PEs, raises at the first packet that leaves its node; the pass then
    runs in full and gives the unfolded result."""
    cfg = config().with_(sim_memoize=True)
    net = models.single_conv_layer(12, 12, 3, qformat=None)
    desc = compile_inference(net, cfg, duplicate=False).descriptors[0]
    plan = build_conv_pass(desc, cfg, None, None, 0.0, None)
    monkeypatch.setattr(scheduler.PassPlan, "slice_classes",
                        lambda self, config: [list(range(16))])
    attempts: list[tuple[bool, str]] = []
    simulate_pass = NeurocubeSimulator._simulate

    def recording(self, plan, *args):
        folded = args[-1] is not None
        try:
            result = simulate_pass(self, plan, *args)
        except SimulationError as error:
            attempts.append((folded, str(error)))
            raise
        attempts.append((folded, "ok"))
        return result

    monkeypatch.setattr(NeurocubeSimulator, "_simulate", recording)
    result = NeurocubeSimulator(cfg).run_pass(plan)
    assert [folded for folded, _ in attempts] == [True, False]
    assert "left their node" in attempts[0][1]
    reference = NeurocubeSimulator(config()).run_pass(
        build_conv_pass(desc, cfg, None, None, 0.0, None))
    assert result.cycles == reference.cycles
    assert result.outputs == reference.outputs
    assert result.noc == reference.noc


def smoke_conv_plan(config, functional=False):
    """The smoke conv layer's pass: timing-only, or with input, a
    kernel and a bias."""
    net = models.single_conv_layer(24, 24, 3, qformat=None)
    desc = compile_inference(net, config).descriptors[0]
    if not functional:
        return build_conv_pass(desc, config, None, None, 0.0, None)
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, (1, 24, 24))
    kernel = rng.uniform(-0.5, 0.5, (1, 3, 3))
    bias = float(rng.uniform(-0.2, 0.2))
    return build_conv_pass(desc, config, x, kernel, bias,
                           ActivationLUT(Tanh()))


def mlp_hidden_plan(config, functional=False, hidden_units=16, layer=0):
    """The MNIST MLP's hidden layer (or its ``layer``-th layer):
    timing-only, or with input, weights and biases."""
    net = models.mnist_mlp(hidden_units)
    desc = compile_inference(net, config).descriptors[layer]
    if not functional:
        return build_fc_pass(desc, config, None, None, None, None)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, desc.connections)
    weights = rng.uniform(-0.1, 0.1, (desc.neurons_per_pass,
                                      desc.connections))
    biases = rng.uniform(-0.2, 0.2, desc.neurons_per_pass)
    return build_fc_pass(desc, config, x, weights, biases,
                         ActivationLUT(Tanh()))


def functional_conv_plan(config):
    return smoke_conv_plan(config, functional=True)


def functional_mlp_hidden_plan(config):
    return mlp_hidden_plan(config, functional=True)


def mlp_output_plan(config, functional=False):
    """The 64-unit MNIST MLP's 64 -> 10 output layer: ten PEs own one
    neuron each, and six are idle."""
    return mlp_hidden_plan(config, functional, hidden_units=64, layer=1)


def functional_mlp_output_plan(config):
    return mlp_output_plan(config, functional=True)


@pytest.mark.parametrize(("build", "representatives"), [
    # 22x22 outputs over a 4x4 PE grid: 6x6, 6x5 or 5x6, and 5x5 each.
    (smoke_conv_plan, {0, 1, 5}),
    # One hidden neuron per PE.
    (mlp_hidden_plan, {0}),
    # The same passes carrying data: each member's write-backs come
    # from its own vault image.
    (functional_conv_plan, {0, 1, 5}),
    (functional_mlp_hidden_plan, {0}),
    # Ten alike slices and one class of six idle ones.
    (mlp_output_plan, {0, 10}),
    (functional_mlp_output_plan, {0, 10}),
])
def test_symmetric_timing_pass_steps_one_pe_per_class(build,
                                                      representatives,
                                                      monkeypatch):
    """With memo on, a pass whose node slices are alike steps one PE
    per timing class, and its result equals the full run's: cycles,
    every neuron's write-back, per-PE and per-PNG statistics, the NoC
    totals and, when the pass carries data, every vault image."""
    stepped: set[int] = set()
    step = ProcessingElement.step

    def recording(self):
        stepped.add(self.pe_id)
        step(self)

    monkeypatch.setattr(ProcessingElement, "step", recording)
    results, images = {}, {}
    for memoize in (False, True):
        stepped.clear()
        cfg = config().with_(sim_skip_ahead=True, sim_memoize=memoize)
        plan = build(cfg)
        results[memoize] = NeurocubeSimulator(cfg).run_pass(plan)
        images[memoize] = plan.vault_data
        assert stepped == (representatives if memoize else set(range(16)))
    full, folded = results[False], results[True]
    assert folded.cycles == full.cycles
    assert folded.outputs == full.outputs
    assert folded.pe_stats == full.pe_stats
    assert folded.png_stats == full.png_stats
    assert folded.noc == full.noc
    assert folded.noc.injected - folded.noc.delivered - folded.noc.dropped == 0
    if not plan.timing_only:
        assert len(set(full.outputs.values())) > 1
        for got, want in zip(images[True], images[False], strict=True):
            np.testing.assert_array_equal(got, want)


def test_pass_reading_its_output_region_folds_only_timing_only():
    """A pass carrying data folds only when no stream reads an address
    its vault's write-backs land on; a timing-only pass, whose values
    never depend on what it reads, still folds."""
    cfg = config().with_(sim_memoize=True)
    for functional in (True, False):
        assert (mlp_hidden_plan(cfg, functional).slice_classes(cfg)
                == [list(range(16))])
        plan = mlp_hidden_plan(cfg, functional)
        for node, stream in enumerate(plan.vault_emissions):
            first_output = min(address for channel, address
                               in plan.out_addresses.values()
                               if channel == node)
            plan.vault_emissions[node] = RegisterStream(
                dataclasses.replace(stream.registers,
                                    addr_last=first_output),
                stream.dst, stream.neurons)
        assert plan.timing_only is not functional
        assert ((plan.slice_classes(cfg) is None) is functional)


def test_idle_slice_expects_nothing():
    """A slice is idle only when it has no schedule, no groups and no
    write-backs to wait for: an empty schedule with a group or an
    expected write-back left over keeps the pass from folding."""
    cfg = config().with_(sim_memoize=True)
    plan = mlp_output_plan(cfg)
    assert plan.slice_classes(cfg) == [list(range(10)), list(range(10, 16))]
    writes_back = mlp_output_plan(cfg)
    writes_back.expected_writebacks[10] = 1
    owns_group = mlp_output_plan(cfg)
    owns_group.pe_groups[10] = owns_group.pe_groups[9]
    for plan in (writes_back, owns_group):
        assert not plan.vault_emissions[10]
        assert plan.slice_classes(cfg) is None
