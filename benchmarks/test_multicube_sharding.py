"""Multi-cube sharded execution benchmark.

Not a paper artifact: this is the acceptance benchmark for the §IX
sharded executor (:mod:`repro.core.shard`).  One over-capacity workload
— a per-cube DRAM budget deliberately set between the single-cube and
the four-cube footprint, so the network *cannot* run on one cube —
is sharded across four cubes and run twice, serially (every cube in one
process) and in parallel (one process per cube).

Hard gates, in order of importance:

* bit-identity — the parallel sharded run matches the serial sharded
  run (outputs, cycles, per-layer stats) and both match the single-cube
  reference output;
* comm fidelity — measured inter-cube exchange cycles land within 20%
  of the analytic :class:`repro.core.MultiCubeModel` prediction;
* speedup — on hosts with at least four usable cores the parallel run
  is at least 2x faster wall-clock than the serial sharded run (a
  single-core container cannot physically show parallel speedup, so
  there only identity and comm fidelity are checked).

The workload is sized well above the ``ext_shard`` demo so per-cube
compute dominates the per-layer process-pool spawn — otherwise the
speedup gate would measure pool startup, not the executor.
"""

import dataclasses
import time

import numpy as np
import pytest

from repro import nn
from repro.core import (
    MultiCubeConfig,
    MultiCubeModel,
    NeurocubeConfig,
    NeurocubeSimulator,
)
from repro.core.shard import ShardedSimulator, shard_network
from repro.errors import MappingError
from repro.nn.activations import Sigmoid, Tanh

CUBES = 4


def _workload() -> nn.Network:
    """Conv front end over an fc classifier, sized for the speedup gate."""
    layers = [
        nn.Conv2D(4, 5, activation=Tanh(), name="conv"),
        nn.MaxPool2D(2, name="pool"),
        nn.Flatten(name="flatten"),
        nn.Dense(64, activation=Sigmoid(), name="classify"),
    ]
    return nn.Network(layers, input_shape=(1, 52, 28),
                      name="bench_shard", seed=5)


def test_multicube_sharded_speedup(speedup_gate):
    """4-cube sharded run of an over-capacity workload (gates above)."""
    config = NeurocubeConfig.hmc_15nm()
    network = _workload()
    x = np.random.default_rng(5).uniform(-1.0, 1.0, (1, 52, 28))

    # Pick a per-cube DRAM budget between the four-cube and the
    # single-cube footprint: the workload physically needs the cluster.
    open_cluster = MultiCubeConfig(cube=config, n_cubes=CUBES)
    plan = shard_network(network, open_cluster)
    single = shard_network(network, MultiCubeConfig(cube=config, n_cubes=1))
    capacity = (max(plan.per_cube_bytes) + single.per_cube_bytes[0]) / 2
    cluster = dataclasses.replace(open_cluster,
                                  cube_capacity_bytes=capacity)
    with pytest.raises(MappingError):
        shard_network(network, dataclasses.replace(cluster, n_cubes=1))
    shard_network(network, cluster)  # the budget admits four cubes

    reference_out, _ = NeurocubeSimulator(config).run_network(network, x)

    start = time.perf_counter()
    serial_out, serial = ShardedSimulator(
        cluster, workers=1).run_network(network, x)
    serial_seconds = time.perf_counter() - start

    parallel_sim = ShardedSimulator(cluster, workers=CUBES)
    start = time.perf_counter()
    parallel_out, parallel = parallel_sim.run_network(network, x)
    parallel_seconds = time.perf_counter() - start

    np.testing.assert_array_equal(serial_out, parallel_out)
    np.testing.assert_array_equal(parallel_out, reference_out)
    assert serial.total_cycles == parallel.total_cycles
    assert serial.report.layers == parallel.report.layers

    analytic = MultiCubeModel(open_cluster).evaluate_network(network)
    analytic_comm = sum(layer.comm_cycles
                        for layer in analytic.layers[1:])
    assert analytic_comm > 0
    assert abs(parallel.comm_cycles - analytic_comm) \
        <= 0.20 * analytic_comm

    speedup = serial_seconds / parallel_seconds
    print(f"\n{CUBES} cubes: {parallel.comm_cycles} comm cycles "
          f"({analytic_comm:.0f} analytic), {speedup:.2f}x speedup")
    speedup_gate(speedup)
