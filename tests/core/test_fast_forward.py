"""A folded pass fast-forwarded through its steady state equals stepping.

With memo and skip-ahead on, a folded pass jumps whole periods of a
repeated timing state (:mod:`repro.core.forward`).  It must equal the
same pass stepped with skip-ahead off (still folded, never forwarded)
and the unfolded pass (memo off) on cycles, outputs, every PE, PNG,
vault and NoC statistic and every vault image.  Each agent's timing
signature must cover its whole checkpoint state but for named
exemptions, so a field added later cannot slip past the repeat check.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NeurocubeConfig, NeurocubeSimulator, compile_inference
from repro.core.forward import SteadyState
from repro.core.pe import ProcessingElement
from repro.core.png import NeurosequenceGenerator
from repro.core.scheduler import build_conv_pass, build_fc_pass
from repro.memory.vault import VaultChannel
from repro.nn import models
from repro.noc import Interconnect, Mesh2D
from repro.noc.interconnect import FoldedInterconnect

from tests.core.test_engine_pins import STEPPED_PIN
from tests.core.test_mode_matrix import (
    assert_equal,
    config,
    conv_layer,
    fc,
    mlp_hidden_plan,
    mlp_output_plan,
    simulate,
    smoke_conv_plan,
    workload,
)


def mnist_hidden_plan(cfg):
    """The functional MNIST MLP's 784 -> 64 pass: one slice class."""
    return mlp_hidden_plan(cfg, functional=True, hidden_units=64)


def lstm_gate_plan(cfg):
    """A timing-only gate of the small LSTM."""
    desc = compile_inference(models.small_lstm(), cfg).descriptors[0]
    return build_fc_pass(desc, cfg, None, None, None, None)


def mlp_output_functional_plan(cfg):
    """The MLP's 64 -> 10 pass: ten alike slices and six idle ones,
    whose steady state repeats every three operations."""
    return mlp_output_plan(cfg, functional=True)


def long_group_conv_plan(cfg):
    """The first sub-pass of a 7x7 conv over 16 input maps: four maps
    per sub-pass, so 196 operations per neuron group."""
    w = workload([conv_layer(3, 7)], (16, 14, 14), True, seed=12)
    layer = w.net.layers[0]
    desc = compile_inference(w.net, cfg).descriptors[0]
    assert desc.sub_passes == 4
    return build_conv_pass(desc, cfg, w.x[0:4], layer.params["weight"][0, 0:4],
                           float(layer.params["bias"][0]), None)


@pytest.fixture
def vaults(monkeypatch) -> list[VaultChannel]:
    """Every vault a pass builds, in construction order."""
    built: list[VaultChannel] = []
    init = VaultChannel.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(VaultChannel, "__init__", recording)
    return built


@pytest.fixture
def fabrics(monkeypatch) -> list[Interconnect]:
    """Every interconnect a pass builds, in construction order."""
    built: list[Interconnect] = []
    init = Interconnect.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Interconnect, "__init__", recording)
    return built


@pytest.mark.parametrize("build", [
    mnist_hidden_plan, lstm_gate_plan, mlp_output_functional_plan,
    long_group_conv_plan])
def test_forwarded_pass_equals_stepping(build, vaults, fabrics):
    runs = {}
    for mode, memoize, skip_ahead in (("forwarded", True, True),
                                      ("lock-step", True, False),
                                      ("unfolded", False, True)):
        vaults.clear()
        cfg = config().with_(sim_memoize=memoize, sim_skip_ahead=skip_ahead)
        plan = build(cfg)
        result = NeurocubeSimulator(cfg).run_pass(plan)
        runs[mode] = (result, plan, {vault.vault_id: vault.counters()
                                     for vault in vaults}, fabrics[-1])
    forwarded, plan, vault_counters, fabric = runs["forwarded"]
    assert forwarded.forwarded > 0
    assert runs["lock-step"][0].forwarded == 0
    if not plan.timing_only:
        assert len(set(forwarded.outputs.values())) > 1
    for mode in ("lock-step", "unfolded"):
        result, other_plan, other_vaults, other_fabric = runs[mode]
        assert forwarded.cycles == result.cycles, mode
        assert forwarded.outputs == result.outputs, mode
        assert forwarded.pe_stats == result.pe_stats, mode
        assert forwarded.png_stats == result.png_stats, mode
        assert forwarded.noc == result.noc, mode
        for got, want in zip(plan.vault_data, other_plan.vault_data,
                             strict=True):
            np.testing.assert_array_equal(got, want, err_msg=mode)
        # The simulated slices' vaults and routers, statistic by
        # statistic (the unfolded pass has every other slice too).
        assert vault_counters == {vault: counters for vault, counters
                                  in other_vaults.items()
                                  if vault in vault_counters}, mode
        for node in vault_counters:
            assert (fabric.routers[node].counters()
                    == other_fabric.routers[node].counters()), mode


def test_mode_matrix_fc_draw_jumps(monkeypatch):
    """The mode matrix's pinned ``fc(272, 12)`` draw, functional, jumps
    inside its 12-operation groups and equals the lock-step reference."""
    forwarded: list[int] = []
    run_pass = NeurocubeSimulator.run_pass

    def recording(self, plan, **kwargs):
        result = run_pass(self, plan, **kwargs)
        forwarded.append(result.forwarded)
        return result

    monkeypatch.setattr(NeurocubeSimulator, "run_pass", recording)
    w = fc(272, 12)
    ref = simulate(config(), w)
    assert not any(forwarded)
    got = simulate(config().with_(sim_skip_ahead=True, sim_memoize=True), w)
    assert_equal("forwarded", got, ref)
    assert sum(forwarded) > 0


def test_smoke_conv_takes_no_signature(monkeypatch):
    """The smoke conv layer's 9-operation groups cannot hold a jump: no
    signature is taken, and the engine steps the pinned cycles."""
    signatures, stepped, forwarded = [0], [0], []
    signature, step = SteadyState._signature, Interconnect.step
    run_pass = NeurocubeSimulator.run_pass

    def counting_signature(self, *args):
        signatures[0] += 1
        return signature(self, *args)

    def counting_step(self):
        stepped[0] += 1
        step(self)

    def recording(self, plan, **kwargs):
        result = run_pass(self, plan, **kwargs)
        forwarded.append(result.forwarded)
        return result

    monkeypatch.setattr(SteadyState, "_signature", counting_signature)
    monkeypatch.setattr(Interconnect, "step", counting_step)
    monkeypatch.setattr(NeurocubeSimulator, "run_pass", recording)
    cfg = NeurocubeConfig.hmc_15nm(sim_workers=1)
    assert cfg.sim_memoize and cfg.sim_skip_ahead
    assert smoke_conv_plan(cfg).slice_classes(cfg) is not None
    network = models.single_conv_layer(24, 24, 3, qformat=None)
    run = NeurocubeSimulator(cfg).run_descriptor(
        compile_inference(network, cfg).descriptors[0])
    assert run.cycles == 581
    assert forwarded == [0]
    assert signatures[0] == 0
    assert stepped[0] == STEPPED_PIN["smoke_conv"]


#: The categories an agent's state may be left out of its timing
#: signature for.
EXEMPTIONS = {"data", "addresses", "statistics", "position", "faults"}


def test_signatures_cover_every_state_entry():
    """Every :meth:`state_dict` entry of each agent is either in its
    timing signature or exempt for a named reason."""
    cfg = NeurocubeConfig.hmc_15nm()
    topology = Mesh2D.for_nodes(cfg.n_pe)
    fabric = Interconnect(topology)
    folded = FoldedInterconnect(topology, [1] * cfg.n_pe)
    vault = VaultChannel(cfg.channel_timing)
    png = NeurosequenceGenerator(vault, node=0, interconnect=fabric)
    pe = ProcessingElement(0, cfg, fabric)
    ops = dict.fromkeys(range(cfg.n_pe), 0)
    signatures = [
        (pe, pe.timing_signature()),
        (png, png.timing_signature(0)),
        (vault, vault.timing_signature(png.tag_key(0))),
        (fabric.routers[0], fabric.routers[0].timing_signature(0, 0)),
        (fabric, fabric.timing_signature(ops)),
        (folded, folded.timing_signature(ops)),
    ]
    for agent, signature in signatures:
        exempt = type(agent).SIGNATURE_EXEMPT
        name = type(agent).__name__
        assert set(signature) | set(exempt) == set(agent.state_dict()), name
        assert not set(signature) & set(exempt), name
        for reason in exempt.values():
            assert reason.split(":")[0] in EXEMPTIONS, (name, reason)
