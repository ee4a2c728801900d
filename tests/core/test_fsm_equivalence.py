"""Register-FSM vs scheduler equivalence.

The strongest fidelity claim in the repository: for every pass in which
each vault feeds only its own PE (a duplicated layout with one vault per
PE), the emission schedule the host-side scheduler builds is *exactly*
the stream the paper's three-counter FSM produces from the
configuration registers — same operations, same MAC lanes, same Eq. 4/5
addresses, same order.  Each case checks every vault's schedule three
ways: against ``AddressGenerator.events()`` over the vault's registers,
and against the records of the materialised builder (the reference
kept for passes whose vaults feed several PEs).
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import NeurocubeConfig, compile_inference
from repro.core import scheduler
from repro.core.host import feeds_own_pe_only, registers_for_vault_pass
from repro.core.png import AddressGenerator, EmissionRecord, RegisterStream
from repro.core.scheduler import build_conv_pass, build_fc_pass
from repro.errors import ConfigurationError
from repro.nn import models
from repro.nn.layers import AvgPool2D, MaxPool2D
from repro.nn.network import Network
from repro.noc.packet import PacketKind


@dataclass(frozen=True)
class Case:
    """One duplicated pass: a network and the descriptor to schedule."""

    name: str
    network: Network
    descriptor: int = 0
    mode: str = "mac"


def pool_net(layer):
    return Network([layer(2, name="pool")], input_shape=(1, 22, 22))


CASES = [
    Case("multi-map conv", models.single_conv_layer(
        20, 20, 3, in_maps=3, qformat=None)),
    # Eight 7x7 maps (392 weights) overflow the 225-item weight
    # register: two sub-passes of four maps.
    Case("sub-passed conv", models.single_conv_layer(
        24, 24, 7, in_maps=8, qformat=None)),
    # 11 outputs per row over 4 tile columns: every PE owns several
    # windows per row, so the stride register matters.
    Case("max pool", pool_net(MaxPool2D), mode="max"),
    Case("avg pool", pool_net(AvgPool2D)),
    Case("scene pool1", models.scene_labeling_convnn(
        24, 24, kernel=3, conv_maps=(4, 8, 8), hidden_units=32,
        qformat=None), descriptor=1, mode="max"),
    Case("fc 40->24", models.fully_connected_classifier(
        40, 24, qformat=None)),
    # Fewer neurons than PEs: six vaults stream nothing.
    Case("fc 24->10", models.fully_connected_classifier(
        24, 10, qformat=None)),
]


def build(desc, config, mode):
    if desc.kind == "fc":
        return build_fc_pass(desc, config, None, None, None, None)
    return build_conv_pass(desc, config, None, None, 0.0, None, mode=mode)


def fsm_records(registers, pe, tags):
    """The emission records ``AddressGenerator.events()`` denotes: one
    state per event, plus its weight for fully connected registers."""
    records = []
    for event in AddressGenerator(registers).events():
        op = (event.neuron // registers.n_mac * registers.n_connections
              + event.connection)
        tag = tags[event.neuron]
        records.append(EmissionRecord(event.state_address, pe, event.mac,
                                      op, PacketKind.STATE, tag))
        if not registers.offsets:
            records.append(EmissionRecord(event.weight_address, pe,
                                          event.mac, op,
                                          PacketKind.WEIGHT, tag))
    return records


@pytest.mark.parametrize("height,width,kernel",
                         [(20, 20, 3), (24, 32, 5), (17, 19, 3)])
def test_conv_schedule_equals_register_fsm(height, width, kernel,
                                           monkeypatch):
    net = models.single_conv_layer(height, width, kernel, qformat=None)
    check_schedule(Case("conv", net), monkeypatch)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_schedule_equals_register_fsm(case, monkeypatch):
    check_schedule(case, monkeypatch)


def check_schedule(case, monkeypatch):
    config = NeurocubeConfig.hmc_15nm()
    desc = compile_inference(case.network, config,
                             duplicate=True).descriptors[case.descriptor]
    plan = build(desc, config, case.mode)
    monkeypatch.setattr(scheduler, "feeds_own_pe_only",
                        lambda *args: False)
    reference = build(desc, config, case.mode)
    assert plan.stream_items == reference.stream_items
    # RegisterStream.lines() must hash exactly like the listed records.
    assert plan.structural_hash() == reference.structural_hash()
    assert plan.out_addresses == reference.out_addresses
    assert plan.expected_writebacks == reference.expected_writebacks
    streamed = 0
    for vault in range(config.n_channels):
        registers = registers_for_vault_pass(desc, config, vault)
        schedule = plan.vault_emissions[vault]
        records = list(schedule)
        assert records == list(schedule), f"vault {vault}: re-iteration"
        assert len(schedule) == len(records)
        assert records == list(reference.vault_emissions[vault]), (
            f"vault {vault}: materialised reference")
        streamed += len(records)
        if registers is None:
            assert records == []
            continue
        assert isinstance(schedule, RegisterStream)
        assert schedule.highest_address() == max(
            record.address for record in records)
        tags = [slot.neuron for group in plan.pe_groups[vault]
                for slot in group.slots]
        assert fsm_records(registers, vault, tags) == records, (
            f"vault {vault}: register FSM")
    assert streamed == plan.stream_items


def test_fsm_neuron_totals_cover_layer():
    """The per-vault register rectangles tile the whole output layer."""
    config = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(30, 30, 5, qformat=None)
    desc = compile_inference(net, config, duplicate=True).descriptors[0]
    total = 0
    for vault in range(config.n_channels):
        registers = registers_for_vault_pass(desc, config, vault)
        if registers is not None:
            total += registers.n_neurons
    assert total == desc.neurons_per_pass


def test_duplication_aligns_origins():
    """With duplication, each vault's stored halo starts exactly where
    its PE's first window begins, so Addr_last is zero for every vault —
    the layout is designed so the FSM needs no per-vault base offset.
    Edge vaults still differ in their clipped rectangle widths."""
    config = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(40, 40, 3, qformat=None)
    desc = compile_inference(net, config, duplicate=True).descriptors[0]
    widths = set()
    for vault in range(config.n_channels):
        registers = registers_for_vault_pass(desc, config, vault)
        assert registers.addr_last == 0, vault
        widths.add(registers.output_width)
    assert len(widths) > 1  # interior vs boundary rectangles differ


def test_rejects_non_native_cases():
    """Registers are per-vault only where each vault feeds one PE; the
    scheduler materialises these passes' records instead."""
    config = NeurocubeConfig.hmc_15nm()
    net = models.fully_connected_classifier(16, 8, qformat=None)
    desc = compile_inference(net, config, False).descriptors[0]
    assert not feeds_own_pe_only(desc, config)
    with pytest.raises(ConfigurationError):
        registers_for_vault_pass(desc, config, 0)
    ddr3 = NeurocubeConfig.ddr3()
    desc = compile_inference(net, ddr3, True).descriptors[0]
    assert not feeds_own_pe_only(desc, ddr3)
    with pytest.raises(ConfigurationError):
        registers_for_vault_pass(desc, ddr3, 0)
    # 3x3 pooling windows reach two pixels past a tile edge, one more
    # than the duplicated halo.
    net = Network([MaxPool2D(3, name="pool")], input_shape=(1, 22, 22))
    desc = compile_inference(net, config, True).descriptors[0]
    assert not feeds_own_pe_only(desc, config)
    with pytest.raises(ConfigurationError, match="stored tile"):
        for vault in range(config.n_channels):
            registers_for_vault_pass(desc, config, vault)
    plan = build_conv_pass(desc, config, None, None, 0.0, None, mode="max")
    assert all(isinstance(records, list)
               for records in plan.vault_emissions)


def test_register_errors_reach_the_caller(monkeypatch):
    """A pass that qualifies for register streams never falls back to
    the materialised builder: a register fault surfaces as an error."""
    config = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(20, 20, 3, qformat=None)
    desc = compile_inference(net, config, duplicate=True).descriptors[0]
    assert feeds_own_pe_only(desc, config)

    def broken(*args):
        raise ConfigurationError("register fault")

    monkeypatch.setattr(scheduler, "registers_for_vault_pass", broken)
    with pytest.raises(ConfigurationError, match="register fault"):
        build(desc, config, "mac")


def test_functional_run_from_fsm_registers(rng):
    """End to end: addresses generated by the register FSM read the
    correct pixels out of the vault image (spot-checked)."""
    config = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(20, 20, 3, qformat=None, seed=2)
    desc = compile_inference(net, config, duplicate=True).descriptors[0]
    x = rng.uniform(-1, 1, (1, 20, 20))
    plan = build_conv_pass(desc, config, x, np.zeros((1, 3, 3)), 0.0,
                           None)
    from repro.fixedpoint import from_float

    raw = from_float(x, config.qformat)
    for vault in (0, 5, 15):
        registers = registers_for_vault_pass(desc, config, vault)
        if registers is None:
            continue
        stored = desc.layout.stored_tiles[vault]
        for event in list(AddressGenerator(registers).events())[:50]:
            value = plan.vault_data[vault][event.state_address]
            # Recover the global pixel this address denotes.
            local_y, local_x = divmod(event.state_address, stored.width)
            assert value == raw[0, stored.y0 + local_y,
                                stored.x0 + local_x]
