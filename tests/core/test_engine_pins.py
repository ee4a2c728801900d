"""Simulated statistics pinned across commits.

``test_mode_matrix.py`` proves lock-step and skip-ahead agree
with each other, but both share the router, PE and MAC code, so a
behaviour change there moves both modes together and passes.  These
pins compare against fixed numbers instead: any change to what the
cycle engine simulates — not just to how fast — fails here.

The smoke layers never cross a mesh link (lateral fraction 0.0), so the
fabric also gets a seeded all-to-all traffic pin on both topologies,
with two-deep buffers so arbitration and backpressure are exercised.

A third pin counts the cycles skip-ahead steps rather than jumps.

The plan builders get their own pin: the structural hash of the smoke
conv plan and of the MLP's FC plans, plus a digest of their vault
images, which the structural hash leaves out.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import numpy as np
import pytest

from repro.core import NeurocubeConfig, NeurocubeSimulator, compile_inference
from repro.core.scheduler import build_conv_pass, build_fc_pass
from repro.nn import models
from repro.nn.activations import ActivationLUT, Sigmoid
from repro.noc import FullyConnected, Interconnect, Mesh2D, Packet, PacketKind
from repro.noc.routing import Port

#: The smoke conv layer's folded statistics, identical on both
#: topologies and both engine modes.
SMOKE_PIN = {
    "cycles": 581,
    "packets": 4840,
    "mean_packet_latency": 1.415702479338843,
    "macs_fired": 4356,
    "pe_busy_cycles": 5184,
    "pe_idle_cycles": 2320,
    "cache_peak": 42,
    "lateral_fraction": 0.0,
}

#: ``mnist_mlp(16)`` cycles per descriptor (hidden, output).
MLP_PIN = (12685, 397)

#: With skip-ahead on, how many of those cycles the engine steps (calls
#: to ``Interconnect.step``) rather than jumps, over idle spans or
#: whole steady-state periods: the smoke conv layer, then
#: ``mnist_mlp(16)``'s two descriptors.  Bit-identity alone would not
#: notice a change that stops either jump.
STEPPED_PIN = {"smoke_conv": 354, "mnist_mlp": (103, 66)}

#: Seeded all-to-all traffic: sha256 of the ejection sequence, the
#: folded NocStats, per-router switched packets and arbiter grants.
#: Every grant moves one packet, so ``grants`` equals ``switched``.
TRAFFIC_PIN = {
    "mesh": {
        "ejections": ("6a80060532afa62111a03db3d29967146259d00c063f75b2"
                      "5728b07b9eff845e"),
        "stats": {"injected": 2850, "delivered": 2850, "lateral": 2690,
                  "link_traversals": 7187, "total_latency": 17144,
                  "rejected_injections": 49, "dropped": 0},
        "switched": [443, 617, 638, 450, 614, 796, 826, 631,
                     618, 794, 814, 630, 447, 627, 644, 448],
        "grants": [443, 617, 638, 450, 614, 796, 826, 631,
                   618, 794, 814, 630, 447, 627, 644, 448],
    },
    "fully_connected": {
        "ejections": ("4e96cf61647e5e0ecf3ad5f80749b0a4f12fcdab5d3d69c5"
                      "26000a860a8196f3"),
        "stats": {"injected": 2894, "delivered": 2894, "lateral": 2727,
                  "link_traversals": 2727, "total_latency": 8230,
                  "rejected_injections": 5, "dropped": 0},
        "switched": [351, 349, 367, 359, 347, 351, 352, 354,
                     352, 339, 333, 348, 356, 346, 368, 349],
        "grants": [351, 349, 367, 359, 347, 351, 352, 354,
                   352, 339, 333, 348, 356, 346, 368, 349],
    },
}


#: ``(structural_hash(), sha256 of the vault images)`` per plan: the
#: smoke conv layer and ``mnist_mlp(16)``'s hidden layer, timing-only
#: and functional with seeded inputs.
PLAN_PIN = {
    "smoke_conv": (
        "31acfc0a1d5b65bb06cd2f6b7310b96b47f49257446a05dd4b7245c4f0b1a123",
        "cd9f9a99ba0355bb337d0533fac239006bd680b93f9cf46084363473240096e7"),
    "mlp_hidden_timing": (
        "fce0502dcc14221e5b84a23843dd33458427d0b17b55f6d35db2405caef62985",
        "19037e0390a3aac600e49a084231c5ca35f58c6e74448bc7f98bc7b8cd430481"),
    "mlp_hidden_functional": (
        "fce0502dcc14221e5b84a23843dd33458427d0b17b55f6d35db2405caef62985",
        "4585c1ee25d6a156f20976a657bdb996f40cfbeb13e2462c12c2d94961980701"),
}


def _config(topology: str, skip_ahead: bool) -> NeurocubeConfig:
    return NeurocubeConfig.hmc_15nm(sim_workers=1, noc_topology=topology,
                                    sim_skip_ahead=skip_ahead)


ENGINE_MODES = [(topology, skip)
                for topology in ("mesh", "fully_connected")
                for skip in (True, False)]


@pytest.mark.parametrize(("topology", "skip_ahead"), ENGINE_MODES)
def test_smoke_conv_pin(topology, skip_ahead):
    config = _config(topology, skip_ahead)
    network = models.single_conv_layer(24, 24, 3, qformat=None)
    descriptor = compile_inference(network, config).descriptors[0]
    run = NeurocubeSimulator(config).run_descriptor(descriptor)
    assert {name: getattr(run, name) for name in SMOKE_PIN} == SMOKE_PIN
    assert run.trace is None


@pytest.mark.parametrize(("topology", "skip_ahead"), ENGINE_MODES)
def test_mnist_mlp_pin(topology, skip_ahead):
    config = _config(topology, skip_ahead)
    program = compile_inference(models.mnist_mlp(16), config)
    simulator = NeurocubeSimulator(config)
    cycles = tuple(simulator.run_descriptor(descriptor).cycles
                   for descriptor in program.descriptors)
    assert cycles == MLP_PIN


@pytest.mark.parametrize("topology", ["mesh", "fully_connected"])
def test_stepped_cycle_pin(topology, monkeypatch):
    stepped = [0]
    step = Interconnect.step

    def counting_step(self):
        stepped[0] += 1
        step(self)

    monkeypatch.setattr(Interconnect, "step", counting_step)
    config = _config(topology, skip_ahead=True)
    simulator = NeurocubeSimulator(config)
    network = models.single_conv_layer(24, 24, 3, qformat=None)
    simulator.run_descriptor(compile_inference(network,
                                               config).descriptors[0])
    assert stepped[0] == STEPPED_PIN["smoke_conv"]
    counts = []
    for descriptor in compile_inference(models.mnist_mlp(16),
                                        config).descriptors:
        stepped[0] = 0
        simulator.run_descriptor(descriptor)
        counts.append(stepped[0])
    assert tuple(counts) == STEPPED_PIN["mnist_mlp"]


def _random_traffic(topology, cycles: int = 300, seed: int = 7) -> dict:
    """Drive seeded all-to-all traffic through a fresh fabric.

    Every cycle each node offers a packet with probability 0.6 (data
    into the MEM input, write-backs into the PE input, as the PNG and PE
    inject them), the fabric steps, and each local output is drained by
    a random 0-2 packets so full buffers back up into the routers.
    After ``cycles`` the fabric drains completely.
    """
    rng = random.Random(seed)
    fabric = Interconnect(topology, buffer_depth=2)
    n = topology.n_nodes
    kinds = (PacketKind.WEIGHT, PacketKind.STATE, PacketKind.WRITEBACK)
    digest = hashlib.sha256()
    op_id = 0
    for cycle in range(cycles * 4):
        offering = cycle < cycles
        if not offering and not fabric.in_fabric:
            break
        for node in range(n):
            if offering and rng.random() < 0.6:
                kind = rng.choice(kinds)
                packet = Packet(src=node, dst=rng.randrange(n),
                                mac_id=rng.randrange(16), op_id=op_id,
                                kind=kind, inject_cycle=fabric.cycle)
                op_id += 1
                port = Port.PE if kind is PacketKind.WRITEBACK else Port.MEM
                fabric.inject(node, packet, port)
        fabric.step()
        for node in range(n):
            for port in (Port.PE, Port.MEM):
                limit = rng.randrange(3) if offering else None
                for packet in fabric.eject(node, port, limit=limit):
                    digest.update(
                        f"{fabric.cycle}:{node}:{port.value}:{packet.src}:"
                        f"{packet.dst}:{packet.mac_id}:{packet.op_id}:"
                        f"{packet.kind.value};".encode())
    assert not fabric.in_fabric, "fabric did not drain"
    stats = dataclasses.asdict(fabric.stats)
    stats.pop("_cycle")
    return {
        "ejections": digest.hexdigest(),
        "stats": stats,
        "switched": [router.switched_packets for router in fabric.routers],
        "grants": [sum(arbiter["grants"]
                       for arbiter in router.state_dict()["arbiters"].values())
                   for router in fabric.routers],
    }


@pytest.mark.parametrize("name", ["mesh", "fully_connected"])
def test_random_traffic_pin(name):
    topology = Mesh2D(4, 4) if name == "mesh" else FullyConnected(16)
    assert _random_traffic(topology) == TRAFFIC_PIN[name]


def _plan(name: str):
    config = NeurocubeConfig.hmc_15nm(sim_workers=1)
    if name == "smoke_conv":
        network = models.single_conv_layer(24, 24, 3, qformat=None)
        descriptor = compile_inference(network, config).descriptors[0]
        return build_conv_pass(descriptor, config, None, None, 0.0, None)
    network = models.mnist_mlp(16)
    descriptor = compile_inference(network, config).descriptors[0]
    if name == "mlp_hidden_timing":
        return build_fc_pass(descriptor, config, None, None, None, None)
    hidden = network.layers[1]
    x = np.random.default_rng(3).uniform(-1, 1, descriptor.connections)
    return build_fc_pass(descriptor, config, x, hidden.params["weight"],
                         hidden.params["bias"], ActivationLUT(Sigmoid()))


@pytest.mark.parametrize("name", sorted(PLAN_PIN))
def test_plan_layout_pin(name):
    plan = _plan(name)
    images = hashlib.sha256()
    for array in plan.vault_data:
        images.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
        images.update(b"|")
    assert (plan.structural_hash(), images.hexdigest()) == PLAN_PIN[name]
