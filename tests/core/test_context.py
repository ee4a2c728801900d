"""RunContext: hook precedence, the ambient stack, worker-safe contexts,
host-phase timing."""

from __future__ import annotations

import time

import pytest

from repro.core import (
    MemoDir,
    MultiCubeConfig,
    NeurocubeConfig,
    NeurocubeSimulator,
    RunContext,
    compile_inference,
)
from repro.core.context import current_context, resolve
from repro.core.shard import ShardedSimulator
from repro.faults import CheckpointSpec, FaultConfig
from repro.memo import MemoStore
from repro.nn import models
from repro.obs import TraceOptions

from tests.core.test_shard_equivalence import conv_input, conv_network

ARG = "argument"
CONTEXT = "context"

FAULTS = {ARG: FaultConfig(seed=1), CONTEXT: FaultConfig(seed=3)}
TRACES = {ARG: TraceOptions(sample_interval=8),
          CONTEXT: TraceOptions(sample_interval=16)}
CHECKPOINTS = {ARG: CheckpointSpec(directory="arg", every=10),
               CONTEXT: CheckpointSpec(directory="ctx", every=20)}


@pytest.mark.parametrize("hook, given, winner", [
    ("faults", (ARG, CONTEXT), ARG),
    ("faults", (ARG,), ARG),
    ("faults", (CONTEXT,), CONTEXT),
    ("faults", (), None),
    ("trace", (ARG, CONTEXT), ARG),
    ("trace", (CONTEXT,), CONTEXT),
    ("checkpoint", (ARG, CONTEXT), ARG),
    ("checkpoint", (CONTEXT,), CONTEXT),
    ("memo", (ARG, CONTEXT), ARG),
    ("memo", (CONTEXT,), CONTEXT),
    ("memo", (), None),
])
def test_resolve_precedence(tmp_path, hook, given, winner):
    """Simulator argument, then the context, for every hook."""
    config = NeurocubeConfig.hmc_15nm()
    values = {"faults": FAULTS, "trace": TRACES,
              "checkpoint": CHECKPOINTS,
              "memo": {ARG: MemoStore(tmp_path / "arg", config),
                       CONTEXT: MemoDir(tmp_path / "ctx")}}[hook]
    ambient = RunContext(**{hook: values[CONTEXT]}
                         if CONTEXT in given else {})
    explicit = {hook: values[ARG]} if ARG in given else {}
    with ambient:
        resolved = getattr(resolve(config, **explicit), hook)
    if winner is None:
        assert resolved is None
    elif hook == "memo" and winner == CONTEXT:
        assert resolved is values[CONTEXT].store_for(config)
    else:
        assert resolved is values[winner]


def test_resolved_context_shares_the_ambient_log():
    with RunContext() as ambient:
        resolved = resolve(NeurocubeConfig.hmc_15nm())
    assert resolved.runs is ambient.runs


def test_equal_nested_contexts_pop_by_identity():
    with RunContext() as outer:
        with RunContext() as inner:
            assert inner == outer and inner is not outer
            assert current_context() is inner
        assert current_context() is outer
    assert current_context() is None


def test_worker_form_strips_parent_state(tmp_path):
    ctx = RunContext(trace=TraceOptions(), faults=FaultConfig(seed=4),
                     memo=MemoDir(tmp_path), validate=True)
    ctx.runs.append(object())
    ctx.phases["simulate"] = 1.0
    worker = ctx.for_worker()
    assert worker.memo is None and not hasattr(worker, "live")
    assert worker.runs == [] and worker.phases == {}
    assert ctx.phases == {"simulate": 1.0}
    assert (worker.trace, worker.faults, worker.validate) == (
        ctx.trace, ctx.faults, ctx.validate)


def test_sharded_run_log_is_worker_count_independent():
    """Cube jobs see the same context at every worker count, and the
    parent records their runs in cube order."""
    cluster = MultiCubeConfig(cube=NeurocubeConfig(), n_cubes=2)
    logs = []
    for workers in (1, 2):
        with RunContext(trace=TraceOptions()) as ctx:
            ShardedSimulator(cluster, workers=workers).run_network(
                conv_network(), conv_input())
        logs.append(ctx)
    serial, parallel = logs
    assert len(serial.runs) == 6
    assert serial.total_cycles == 4_834
    assert ([run.to_stats() for run in serial.runs]
            == [run.to_stats() for run in parallel.runs])
    assert (serial.merged_trace().to_dict()
            == parallel.merged_trace().to_dict())


def test_run_log_holds_runs_without_outputs(monkeypatch):
    """The run log never pins a layer output; the runs the simulator
    returns keep theirs."""
    returned = []
    run_descriptor = NeurocubeSimulator.run_descriptor

    def recording(self, *args, **kwargs):
        returned.append(run_descriptor(self, *args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(NeurocubeSimulator, "run_descriptor", recording)
    with RunContext() as ctx:
        NeurocubeSimulator(NeurocubeConfig()).run_network(
            conv_network(), conv_input())
    assert len(ctx.runs) == len(returned) == 3
    assert all(run.output is None for run in ctx.runs)
    assert all(run.output is not None for run in returned)
    assert ([run.to_stats() for run in ctx.runs]
            == [run.to_stats() for run in returned])


# -- host phases -----------------------------------------------------------

def timing_only_conv(config, size=10, out_maps=1):
    net = models.single_conv_layer(size, size, 3, out_maps=out_maps,
                                   qformat=None)
    return compile_inference(net, config).descriptors[0]


def test_checkpointed_run_bills_each_second_once(config, tmp_path):
    """Checkpoint I/O inside a run is billed to ``checkpoint`` and taken
    out of ``simulate``, so the phases never sum past the wall time."""
    desc = timing_only_conv(config, size=24, out_maps=16)
    spec = CheckpointSpec(directory=str(tmp_path), every=20)
    started = time.perf_counter()
    with RunContext(checkpoint=spec) as ctx:
        NeurocubeSimulator(config).run_descriptor(desc)
    wall = time.perf_counter() - started
    assert ctx.phases["checkpoint"] > 0.0 and ctx.phases["simulate"] > 0.0
    assert sum(ctx.phases.values()) <= wall
    assert ctx.phases["simulate"] < ctx.total_host_seconds


def test_nested_contexts_bill_the_innermost(config):
    desc = timing_only_conv(config)
    with RunContext() as outer:
        with RunContext() as inner:
            NeurocubeSimulator(config).run_descriptor(desc)
        assert current_context() is outer
    assert inner.phases["simulate"] > 0.0
    assert outer.phases == {} and outer.runs == []
