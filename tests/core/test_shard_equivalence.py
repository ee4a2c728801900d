"""Sharded execution: link faults, checkpoints, plans and entry points.

That sharded runs equal the single-cube reference — a 1-cube shard
equals the plain run, and a 2-cube shard gives the same report serially
and as one process per cube, with reference outputs — is asserted on
every draw of ``tests/core/test_mode_matrix.py``.  The tests here cover
what only a cluster has: inter-cube link faults (identical serial and
parallel at 2 and 4 cubes, rate 0 invisible, lost frames degraded),
per-cube checkpoint namespaces, the exchange barrier against the link
model, shard-plan invariants (exchange schedule and bytes, capacity,
the validate hook) and the ``run_network(cubes=N)`` entry point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    MultiCubeConfig,
    MultiCubeModel,
    NeurocubeConfig,
    NeurocubeSimulator,
    RunContext,
)
from repro.core.shard import ShardedSimulator, ShardPlan, shard_network
from repro.errors import MappingError
from repro.faults import CheckpointSpec, FaultConfig
from repro.nn.activations import Sigmoid, Tanh
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.models import small_lstm
from repro.nn.network import Network
from repro.obs import TraceOptions

LOCK_STEP = NeurocubeConfig(sim_skip_ahead=False)
SKIP_AHEAD = NeurocubeConfig(sim_skip_ahead=True)

#: High inter-cube rates so every exchange exercises the retry path.
LOSSY_LINKS = FaultConfig(seed=11, intercube_corrupt_rate=0.4,
                          intercube_drop_rate=0.3, max_retries=2)


def conv_network() -> Network:
    """Conv stack whose every layer splits across 4 cubes (>= 4 rows
    per cube against the 4x4 vault grid)."""
    return Network([
        Conv2D(2, 3, activation=Tanh(), name="conv"),
        MaxPool2D(2, name="pool"),
        Flatten(name="flatten"),
        Dense(16, activation=Sigmoid(), name="fc"),
    ], input_shape=(1, 18, 12), name="shard_conv", seed=3)


def conv_input() -> np.ndarray:
    return np.random.default_rng(7).uniform(-1.0, 1.0, (1, 18, 12))


def cluster(config: NeurocubeConfig, cubes: int,
            **kwargs) -> MultiCubeConfig:
    return MultiCubeConfig(cube=config, n_cubes=cubes, **kwargs)


def exchange_faults(plan: ShardPlan,
                    config: MultiCubeConfig) -> list[str]:
    """What is wrong with ``plan``'s exchange schedule; empty if nothing.

    One cube exchanges nothing.  On more, every layer after the first
    consumes one exchange, indexed 0, 1, 2, ... in layer order and
    naming that layer: an fc layer all-gathers connections x (n - 1)
    items, any other layer receives a halo of one band (half
    ``MultiCubeModel.comm_bytes``) at each edge cube and two inside.
    Every byte count is an ``int``.  A dropped exchange changes no
    output, only cycles, so this is what catches one.
    """
    n = plan.n_cubes
    if n == 1:
        return [f"1-cube plan exchanges for {e.layer!r}"
                for e in plan.exchanges]
    faults = []
    if plan.layers[0].exchange is not None:
        faults.append(f"first layer {plan.layers[0].name!r} exchanges")
    model = MultiCubeModel(config)
    item_bytes = config.cube.qformat.total_bits // 8
    for index, entry in enumerate(plan.layers[1:]):
        exchange = entry.exchange
        where = f"layer {entry.name!r}"
        if exchange is None:
            faults.append(f"{where} has no exchange")
            continue
        if exchange.index != index:
            faults.append(f"{where}: exchange index {exchange.index}, "
                          f"expected {index}")
        if exchange.layer != entry.name:
            faults.append(f"{where}: exchange names {exchange.layer!r}")
        sent = list(exchange.sent_bytes)
        if any(type(b) is not int for b in sent):
            faults.append(f"{where}: non-integer bytes {sent}")
        if entry.kind == "fc":
            total = entry.base.connections * (n - 1) * item_bytes
            if exchange.kind != "all_gather" or sum(sent) != total:
                faults.append(f"{where}: {exchange.kind} of {sum(sent)} "
                              f"bytes, expected an all_gather of {total}")
            continue
        band = model.comm_bytes(entry.base) / 2
        expected = [band if cube in (0, n - 1) else 2 * band
                    for cube in range(n)]
        if exchange.kind != "halo" or band <= 0 or sent != expected:
            faults.append(f"{where}: {exchange.kind} bytes {sent}, "
                          f"expected a halo of {expected} "
                          f"(comm_bytes band {band})")
    return faults


def assert_reports_identical(serial, parallel) -> None:
    """Every observable of the two shard reports must match exactly."""
    assert serial.total_cycles == parallel.total_cycles
    assert serial.report.layers == parallel.report.layers
    assert serial.cube_layers == parallel.cube_layers
    assert ([e.cycles for e in serial.exchanges]
            == [e.cycles for e in parallel.exchanges])
    assert ([e.per_cube_cycles for e in serial.exchanges]
            == [e.per_cube_cycles for e in parallel.exchanges])
    assert serial.link == parallel.link
    if serial.fault_stats is None:
        assert parallel.fault_stats is None
    else:
        assert (serial.fault_stats.as_dict()
                == parallel.fault_stats.as_dict())
    assert (len(serial.report.degraded)
            == len(parallel.report.degraded))


class TestFunctionalEquivalence:
    def test_functional_lstm_directs_to_run_timing(self):
        net = small_lstm(inputs=16, hidden_units=32, steps=4)
        x = np.zeros((4, 16))
        with pytest.raises(MappingError, match="run_timing"):
            ShardedSimulator(cluster(SKIP_AHEAD, 2)).run_network(net, x)

    def test_simulator_cubes_flag_delegates(self):
        net, x = conv_network(), conv_input()
        ref_out, _ = NeurocubeSimulator(SKIP_AHEAD).run_network(net, x)
        out, report = NeurocubeSimulator(SKIP_AHEAD).run_network(
            net, x, cubes=2)
        assert np.array_equal(out, ref_out)
        assert report.source == "cycle"
        assert [layer.name for layer in report.layers] == [
            "conv", "pool", "fc"]

    def test_simulator_cubes_flag_keeps_its_own_trace(self):
        net, x = conv_network(), conv_input()
        with RunContext() as ctx:
            NeurocubeSimulator(SKIP_AHEAD, trace=TraceOptions()).run_network(
                net, x, cubes=2)
        assert ctx.runs
        assert all(run.trace is not None for run in ctx.runs)

    def test_simulator_cubes_flag_keeps_explicit_faults_first(self):
        # Explicit faults beat the ambient context on the sharded path
        # too.
        net, x = conv_network(), conv_input()
        _, bare = NeurocubeSimulator(SKIP_AHEAD).run_network(
            net, x, cubes=2)
        with RunContext(faults=FaultConfig(seed=1, vault_jitter_rate=0.5)):
            _, jittery = NeurocubeSimulator(SKIP_AHEAD).run_network(
                net, x, cubes=2)
            _, explicit = NeurocubeSimulator(
                SKIP_AHEAD, faults=FaultConfig(seed=1)).run_network(
                net, x, cubes=2)
        assert jittery.total_cycles != bare.total_cycles
        assert explicit.total_cycles == bare.total_cycles


class TestTimingEquivalence:
    def test_exchange_barrier_is_additive(self):
        """Layer cycles = exchange barrier + slowest cube's compute."""
        net, x = conv_network(), conv_input()
        _, report = ShardedSimulator(
            cluster(SKIP_AHEAD, 2), workers=1).run_network(net, x)
        by_layer = {o.exchange.layer: o.cycles for o in report.exchanges}
        for entry, stats in zip(report.plan.layers, report.report.layers,
                                strict=True):
            cube_max = max(s.cycles for s in
                           report.cube_layers[entry.index])
            assert stats.cycles == cube_max + by_layer.get(entry.name, 0)

    def test_fault_free_barriers_equal_link_model(self):
        """Each fault-free barrier pays the link model's prediction."""
        mc = cluster(SKIP_AHEAD, 4)
        report = ShardedSimulator(mc, workers=1).run_timing(conv_network())
        links = mc.link_model()
        assert report.exchanges
        for outcome in report.exchanges:
            assert outcome.cycles == links.barrier_cycles(
                outcome.exchange.sent_bytes)


class TestFaultEquivalence:
    @pytest.mark.parametrize("cubes", [2, 4])
    def test_lossy_links_identical_serial_vs_parallel(self, cubes):
        net, x = conv_network(), conv_input()
        mc = cluster(SKIP_AHEAD, cubes)
        serial_out, serial = ShardedSimulator(
            mc, workers=1, faults=LOSSY_LINKS).run_network(net, x)
        parallel_out, parallel = ShardedSimulator(
            mc, workers=cubes, faults=LOSSY_LINKS).run_network(net, x)
        assert np.array_equal(serial_out, parallel_out)
        assert_reports_identical(serial, parallel)
        stats = serial.fault_stats
        assert stats.intercube_corruptions + stats.intercube_drops > 0

    def test_reused_simulator_reports_identically(self):
        """One simulator, two lossy runs: no state leaks between runs
        (lost frames zero the region each cube received last layer)."""
        net, x = conv_network(), conv_input()
        faults = FaultConfig(seed=2, intercube_drop_rate=0.95,
                             max_retries=1)
        sharded = ShardedSimulator(cluster(SKIP_AHEAD, 2), workers=1,
                                   faults=faults)
        first_out, first = sharded.run_network(net, x)
        again_out, again = sharded.run_network(net, x)
        assert np.array_equal(first_out, again_out)
        assert_reports_identical(first, again)
        assert first.fault_stats.intercube_frames_lost > 0

    def test_silent_corruption_without_crc(self):
        net, x = conv_network(), conv_input()
        ref_out, _ = NeurocubeSimulator(SKIP_AHEAD).run_network(net, x)
        faults = FaultConfig(seed=5, intercube_corrupt_rate=0.9,
                             crc=False)
        mc = cluster(SKIP_AHEAD, 4)
        serial_out, serial = ShardedSimulator(
            mc, workers=1, faults=faults).run_network(net, x)
        parallel_out, parallel = ShardedSimulator(
            mc, workers=4, faults=faults).run_network(net, x)
        assert np.array_equal(serial_out, parallel_out)
        assert_reports_identical(serial, parallel)
        assert serial.fault_stats.intercube_silent_corruptions > 0
        # Silent corruption must actually corrupt.
        assert not np.array_equal(serial_out, ref_out)

    def test_rate_zero_pinned_to_injector_free(self):
        net, x = conv_network(), conv_input()
        mc = cluster(SKIP_AHEAD, 4)
        zero_out, zero = ShardedSimulator(
            mc, workers=1, faults=FaultConfig(seed=11)).run_network(
                net, x)
        bare_out, bare = ShardedSimulator(mc, workers=1).run_network(
            net, x)
        ref_out, _ = NeurocubeSimulator(SKIP_AHEAD).run_network(net, x)
        # Row and neuron partitioning never changes arithmetic.
        assert np.array_equal(bare_out, ref_out)
        assert np.array_equal(zero_out, bare_out)
        assert zero.total_cycles == bare.total_cycles
        assert zero.report.layers == bare.report.layers
        assert ([e.cycles for e in zero.exchanges]
                == [e.cycles for e in bare.exchanges])

    def test_lost_frames_degrade_gracefully(self):
        """Exhausted retries zero the received region and say so."""
        net, x = conv_network(), conv_input()
        faults = FaultConfig(seed=2, intercube_drop_rate=0.95,
                             max_retries=1)
        mc = cluster(SKIP_AHEAD, 2)
        serial_out, serial = ShardedSimulator(
            mc, workers=1, faults=faults).run_network(net, x)
        parallel_out, parallel = ShardedSimulator(
            mc, workers=2, faults=faults).run_network(net, x)
        assert np.array_equal(serial_out, parallel_out)
        assert_reports_identical(serial, parallel)
        assert serial.fault_stats.intercube_frames_lost > 0
        kinds = {d.kind for d in serial.report.degraded}
        assert "intercube_frame_lost" in kinds


class TestCheckpointAcrossCubes:
    def test_resume_across_cubes_is_bit_identical(self, tmp_path):
        """Snapshots land in per-cube namespaces and resume cleanly."""
        net, x = conv_network(), conv_input()
        mc = cluster(LOCK_STEP, 2)
        save = CheckpointSpec(directory=str(tmp_path), every=100)
        base_out, base = ShardedSimulator(
            mc, workers=1, checkpoint=save).run_network(net, x)
        snapshots = list(tmp_path.glob("*.pkl"))
        assert snapshots
        # Per-cube descriptor names namespace the snapshot labels.
        assert any(".cube0" in p.name for p in snapshots)
        assert any(".cube1" in p.name for p in snapshots)
        resume = CheckpointSpec(directory=str(tmp_path), resume=True)
        resumed_out, resumed = ShardedSimulator(
            mc, workers=2, checkpoint=resume).run_network(net, x)
        assert np.array_equal(resumed_out, base_out)
        assert resumed.total_cycles == base.total_cycles
        assert resumed.report.layers == base.report.layers


class TestPlanInvariants:
    def test_too_many_cubes_for_small_layer(self):
        net = conv_network()
        with pytest.raises(MappingError, match="cannot shard"):
            shard_network(net, cluster(SKIP_AHEAD, 64))

    def test_capacity_refuses_single_cube_admits_four(self):
        net = conv_network()
        fits4 = shard_network(net, cluster(SKIP_AHEAD, 4))
        alone = shard_network(net, cluster(SKIP_AHEAD, 1))
        capacity = (max(fits4.per_cube_bytes)
                    + alone.per_cube_bytes[0]) / 2
        heaviest = max(alone.layers,
                       key=lambda entry: entry.base.layout.total_bytes)
        tight = cluster(SKIP_AHEAD, 1, cube_capacity_bytes=capacity)
        # One error type for one defect, whatever ``validate`` says.
        for validate in (False, True):
            with pytest.raises(MappingError, match="does not fit") as info:
                shard_network(net, tight, validate=validate)
            message = str(info.value)
            assert "cube 0 needs" in message
            assert f"heaviest layer {heaviest.name!r}" in message
            assert "over budget" in message
        plan = shard_network(net, cluster(SKIP_AHEAD, 4,
                                          cube_capacity_bytes=capacity))
        assert plan.n_cubes == 4

    def test_exchange_bytes_mirror_analytic_model(self):
        """Every exchange is scheduled, in order, with the analytic
        model's bytes, for this suite's conv network at 1, 2 and 4
        cubes (ext_shard's workload: ``test_shardcheck``)."""
        for cubes in (1, 2, 4):
            mc = cluster(SKIP_AHEAD, cubes)
            plan = shard_network(conv_network(), mc)
            assert exchange_faults(plan, mc) == [], f"{cubes} cube(s)"

    def test_shard_network_follows_context_validate(self, monkeypatch):
        """``validate`` runs nccheck over the base program, and None
        follows the run context."""
        from repro.analysis import nccheck

        calls = []
        monkeypatch.setattr(
            nccheck, "check_program",
            lambda program, config, max_stream_items=0: calls.append(1))
        mc = cluster(SKIP_AHEAD, 2)
        shard_network(conv_network(), mc)
        assert not calls
        with RunContext(validate=True):
            shard_network(conv_network(), mc)
            assert calls, "context validate did not reach the compiler"
            calls.clear()
            shard_network(conv_network(), mc, validate=False)
            assert not calls

    def test_one_cube_plan_keeps_descriptor_names(self):
        plan = shard_network(conv_network(), cluster(SKIP_AHEAD, 1))
        for entry in plan.layers:
            assert entry.descriptors == (entry.base,)
        assert not plan.exchanges
