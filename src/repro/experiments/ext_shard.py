"""Extension experiment: cycle-accurate multi-cube sharded execution.

Not a paper figure — the executable counterpart of the §IX scaling
model.  One conv+pool+fc workload runs three ways:

* single-cube reference (:meth:`NeurocubeSimulator.run_network`),
* sharded **serially** (:class:`repro.core.shard.ShardedSimulator`
  with ``workers=1`` — every cube in one process), and
* sharded **in parallel** (one process per cube).

The experiment asserts the bit-identity contract in-line — outputs,
total cycles and per-layer stats must match between the serial and
parallel sharded runs, and the sharded *outputs* must match the
single-cube reference — and cross-validates the measured inter-cube
communication cycles against the analytic
:class:`repro.core.MultiCubeModel` prediction.

The runner's ``--cubes N`` flag overrides the cube count via
:func:`set_cube_count` (the CI benchmark job runs ``--cubes 2`` and
asserts ``bit_identical`` from the JSON output).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import nn
from repro.core import (
    MultiCubeConfig,
    MultiCubeModel,
    NeurocubeConfig,
    NeurocubeSimulator,
)
from repro.core.shard import ShardedSimulator
from repro.errors import ConfigurationError
from repro.experiments.registry import register
from repro.nn.activations import Sigmoid, Tanh

#: Cubes used when no ``--cubes N`` override is active.
DEFAULT_CUBES = 2

#: Deterministic seeds: network parameters and the input sample.
_NET_SEED = 23
_INPUT_SEED = 23

_cube_count: int | None = None


def set_cube_count(cubes: int | None) -> None:
    """Override the cube count (the runner's ``--cubes N``).

    None restores the default.
    """
    if cubes is not None and cubes < 1:
        raise ConfigurationError(
            f"cube count must be >= 1, got {cubes}")
    global _cube_count
    _cube_count = cubes


def shard_workload() -> nn.Network:
    """The sharded workload: a conv front end over an fc classifier.

    Sized so every layer splits cleanly across up to 4 cubes (the conv
    output keeps >= 4 rows per cube against the 4x4 vault grid).
    """
    layers = [
        nn.Conv2D(2, 3, activation=Tanh(), name="conv"),
        nn.MaxPool2D(2, name="pool"),
        nn.Flatten(name="flatten"),
        nn.Dense(32, activation=Sigmoid(), name="classify"),
    ]
    return nn.Network(layers, input_shape=(1, 34, 20),
                      name="shard_convfc", seed=_NET_SEED)


def input_sample() -> np.ndarray:
    """One deterministic input frame."""
    rng = np.random.default_rng(_INPUT_SEED)
    return rng.uniform(-1.0, 1.0, (1, 34, 20))


@dataclass
class ShardLayerRow:
    """One layer of the sharded run, for the table."""

    name: str
    kind: str
    compute_cycles: int
    exchange_cycles: int


@dataclass
class ShardReport:
    """Serial-vs-parallel sharded comparison plus analytic cross-check."""

    network_name: str
    n_cubes: int
    single_cube_cycles: float
    sharded_cycles: float
    comm_cycles: int
    analytic_comm_cycles: float
    bit_identical: bool
    outputs_match_reference: bool
    link_occupancy: list = field(default_factory=list)
    layers: list = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Simulated-cycle speedup over the single-cube run."""
        return (self.single_cube_cycles / self.sharded_cycles
                if self.sharded_cycles else 0.0)

    def to_table(self) -> str:
        header = (f"{'layer':<22}{'kind':<6}{'compute c':>12}"
                  f"{'exchange c':>12}")
        lines = [
            f"{self.network_name} sharded across {self.n_cubes} cube(s)",
            header, "-" * len(header)]
        for row in self.layers:
            lines.append(f"{row.name:<22}{row.kind:<6}"
                         f"{row.compute_cycles:>12}"
                         f"{row.exchange_cycles:>12}")
        occupancy = ", ".join(
            f"cube{cube}={100 * value:.1f}%"
            for cube, value in enumerate(self.link_occupancy))
        lines.append(
            f"cycles {self.sharded_cycles:.0f} vs single-cube "
            f"{self.single_cube_cycles:.0f} ({self.speedup:.2f}x), "
            f"comm {self.comm_cycles} measured vs "
            f"{self.analytic_comm_cycles:.0f} analytic")
        lines.append(
            f"serial == parallel bit-identical: {self.bit_identical}; "
            f"outputs match single-cube reference: "
            f"{self.outputs_match_reference}; link occupancy "
            f"{occupancy or 'n/a'}")
        return "\n".join(lines)


@register("ext_shard", "Multi-cube sharded execution (serial-vs-parallel "
                       "bit-identity + analytic comm cross-check)")
def run(cubes: int | None = None) -> ShardReport:
    """Run the sharded workload serial and parallel; compare everything.

    Args:
        cubes: cube count; None uses the ``--cubes N`` override when
            active, else :data:`DEFAULT_CUBES`.
    """
    if cubes is None:
        cubes = _cube_count if _cube_count is not None else DEFAULT_CUBES
    config = NeurocubeConfig.hmc_15nm()
    cluster = MultiCubeConfig(cube=config, n_cubes=cubes)
    network = shard_workload()
    x = input_sample()

    reference_out, reference = NeurocubeSimulator(config).run_network(
        network, x)
    serial_out, serial = ShardedSimulator(
        cluster, workers=1).run_network(network, x)
    parallel_out, parallel = ShardedSimulator(
        cluster, workers=cubes).run_network(network, x)

    bit_identical = (
        np.array_equal(serial_out, parallel_out)
        and serial.total_cycles == parallel.total_cycles
        and serial.report.layers == parallel.report.layers
        and [e.cycles for e in serial.exchanges]
            == [e.cycles for e in parallel.exchanges])

    # The analytic model charges comm once per descriptor after the
    # first — the same exchange schedule the executor runs.
    analytic = MultiCubeModel(cluster).evaluate_network(network)
    analytic_comm = sum(layer.comm_cycles
                        for layer in analytic.layers[1:])

    exchange_by_layer = {
        outcome.exchange.layer: outcome.cycles
        for outcome in serial.exchanges}
    rows = [
        ShardLayerRow(
            name=entry.name, kind=entry.kind,
            compute_cycles=int(stats.cycles
                               - exchange_by_layer.get(entry.name, 0)),
            exchange_cycles=exchange_by_layer.get(entry.name, 0))
        for entry, stats in zip(serial.plan.layers, serial.report.layers,
                                strict=True)]
    return ShardReport(
        network_name=network.name, n_cubes=cubes,
        single_cube_cycles=reference.total_cycles,
        sharded_cycles=serial.total_cycles,
        comm_cycles=serial.comm_cycles,
        analytic_comm_cycles=analytic_comm,
        bit_identical=bool(bit_identical),
        outputs_match_reference=bool(
            np.array_equal(serial_out, reference_out)),
        link_occupancy=[serial.link_occupancy(cube)
                        for cube in range(cubes)],
        layers=rows)
