"""Fixture tests for every nccheck plan check (NC201–NC207).

Mirrors the shipped ``nccheck --self-test`` as individual pytest cases
(one seeded violation per check, plus silence on the clean plan), and
adds the headline cross-check: a plan nccheck statically rejects as a
deadlock wedges the cycle simulator at the *same* PE/OP boundary.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.analysis import nccheck
from repro.core.compiler import compile_inference
from repro.core.config import NeurocubeConfig
from repro.core.simulator import NeurocubeSimulator
from repro.errors import PlanCheckError, SimulationError
from repro.nn.layers import Dense
from repro.nn.network import Network


@pytest.fixture(scope="module")
def small_config() -> NeurocubeConfig:
    return NeurocubeConfig.hmc_15nm(n_channels=4, n_pe=4, n_mac=4)


@pytest.fixture(scope="module")
def clean_plan(small_config):
    network = Network([Dense(2 * small_config.n_pe)],
                      input_shape=(3 * small_config.n_channels,),
                      name="nccheck-fixture")
    desc = compile_inference(network, small_config).descriptors[0]
    return nccheck._timing_plan(desc, small_config)


def listed(plan) -> list[list]:
    """The plan's schedules as lists to edit: a register stream yields
    fresh (equal) records on every pass."""
    return [list(records) for records in plan.vault_emissions]


def fired(plan, config, code: str) -> list:
    return [v for v in nccheck.verify_plan(plan, config, select=[code])
            if v.code == code]


def test_clean_plan_is_silent(clean_plan, small_config):
    assert nccheck.verify_plan(clean_plan, small_config) == []


def test_catalogue_covers_all_checks():
    assert [e.code for e in nccheck.CHECK_CATALOGUE] == [
        "NC201", "NC202", "NC203", "NC204", "NC205", "NC206", "NC207"]


def test_nc201_missing_producer(clean_plan, small_config):
    schedules = listed(clean_plan)
    victim = schedules[0][0]
    mutated = replace(clean_plan, vault_emissions=[
        [r for r in records if r is not victim]
        for records in schedules])
    violations = fired(mutated, small_config, "NC201")
    assert violations
    # The violation localises the stall: the starved PE and the first
    # OP-counter value it can never advance past.
    assert violations[0].pe == victim.dst
    assert violations[0].op >= 0
    assert "no producer" in violations[0].message


def test_nc202_duplicate_producer(clean_plan, small_config):
    mutated = replace(clean_plan, vault_emissions=[
        records + ([records[0]] if channel == 0 else [])
        for channel, records in enumerate(listed(clean_plan))])
    assert any("duplicate" in v.message
               for v in fired(mutated, small_config, "NC202"))


def test_nc202_out_of_range_destination(clean_plan, small_config):
    schedules = listed(clean_plan)
    bad = replace(schedules[0][0], dst=small_config.n_pe + 3)
    mutated = replace(clean_plan, vault_emissions=(
        [[bad] + schedules[0][1:]] + schedules[1:]))
    assert fired(mutated, small_config, "NC202")


def test_nc203_cache_overflow(clean_plan, small_config):
    flooded = list(clean_plan.vault_emissions[0])
    sample = flooded[-1]
    flooded.extend(
        [sample] * (small_config.cache_entries_per_subbank + 1))
    mutated = replace(clean_plan, vault_emissions=(
        [flooded] + [list(r) for r in clean_plan.vault_emissions[1:]]))
    violations = fired(mutated, small_config, "NC203")
    assert violations
    assert "sub-bank" in violations[0].message


def test_nc204_read_outside_image(clean_plan, small_config):
    schedules = listed(clean_plan)
    bad = replace(schedules[0][0], address=10 ** 9)
    mutated = replace(clean_plan, vault_emissions=(
        [[bad] + schedules[0][1:]] + schedules[1:]))
    assert any("outside" in v.message
               for v in fired(mutated, small_config, "NC204"))


def test_nc204_writeback_aliases_streamed_input(clean_plan, small_config):
    streamed = next(r.address
                    for r in clean_plan.vault_emissions[0]
                    if r.address >= 0)
    neuron = next(n for n, (ch, _a) in clean_plan.out_addresses.items()
                  if ch == 0)
    out = dict(clean_plan.out_addresses)
    out[neuron] = (0, streamed)
    mutated = replace(clean_plan, out_addresses=out)
    assert any("aliases" in v.message
               for v in fired(mutated, small_config, "NC204"))


def test_nc205_unroutable_destination(clean_plan, small_config):
    schedules = listed(clean_plan)
    bad = replace(schedules[0][0], dst=small_config.n_pe + 7)
    mutated = replace(clean_plan, vault_emissions=(
        [[bad] + schedules[0][1:]] + schedules[1:]))
    assert fired(mutated, small_config, "NC205")


def test_nc206_understated_writebacks(clean_plan, small_config):
    expected = list(clean_plan.expected_writebacks)
    expected[0] -= 1
    mutated = replace(clean_plan, expected_writebacks=expected)
    assert any("expected_writebacks" in v.message
               for v in fired(mutated, small_config, "NC206"))


def test_nc207_memo_key_drift(clean_plan):
    drifted = replace(clean_plan,
                      stream_items=clean_plan.stream_items + 1)
    assert nccheck.verify_memo_pairs([("k", clean_plan),
                                      ("k", drifted)])
    # Distinct keys may hash differently — that is the normal case.
    assert not nccheck.verify_memo_pairs([("a", clean_plan),
                                          ("b", drifted)])


def test_self_test_passes():
    assert nccheck.self_test() == []


# -- fail-fast surface -----------------------------------------------------

def test_check_plan_raises_with_violations(clean_plan, small_config):
    mutated = replace(clean_plan, total_neurons=clean_plan.total_neurons + 5)
    with pytest.raises(PlanCheckError) as excinfo:
        nccheck.check_plan(mutated, small_config, label="unit plan")
    assert "unit plan" in str(excinfo.value)
    assert excinfo.value.violations
    assert all(v.code.startswith("NC2")
               for v in excinfo.value.violations)


# -- the deadlock cross-check ----------------------------------------------

def _drop_sole_producer(plan):
    """Remove one record that is its operand's only producer."""
    producers = nccheck._producer_index(plan)
    schedules = listed(plan)
    for records in schedules:
        for record in records:
            key = (record.dst, record.op_id, record.kind, record.mac_id)
            if producers[key] == 1:
                mutated = replace(plan, vault_emissions=[
                    [r for r in recs if r is not record]
                    for recs in schedules])
                return mutated, record
    raise AssertionError("plan has no single-producer operand")


def test_static_and_dynamic_stall_boundaries_agree(clean_plan,
                                                   small_config):
    """nccheck rejects a deadlocking plan at the exact PE/OP boundary
    the cycle simulator would wedge at.

    This is the contract that makes the static report actionable: a
    developer reading ``NC201 ... PE 2: op=5`` sees the same
    coordinates a two-minute simulation run would have printed.
    """
    mutated, victim = _drop_sole_producer(clean_plan)

    static = nccheck.stall_boundaries(
        nccheck.verify_plan(mutated, small_config, select=["NC201"]))
    assert static, "static checker missed the seeded deadlock"
    assert victim.dst in static

    simulator = NeurocubeSimulator(small_config)
    with pytest.raises(SimulationError) as excinfo:
        simulator.run_pass(mutated, stall_limit=3_000,
                           max_cycles=300_000)
    detail = str(excinfo.value)
    assert "stalled" in detail

    dynamic = {int(pe): int(op) for pe, op
               in re.findall(r"PE (\d+): op=(\d+)", detail)}
    for pe, op in static.items():
        assert dynamic.get(pe) == op, (
            f"static boundary PE {pe}: op={op} but simulator reported "
            f"op={dynamic.get(pe)}")


def test_check_plan_message_matches_simulator_format(clean_plan,
                                                     small_config):
    mutated, _victim = _drop_sole_producer(clean_plan)
    with pytest.raises(PlanCheckError) as excinfo:
        nccheck.check_plan(mutated, small_config)
    boundaries = nccheck.stall_boundaries(excinfo.value.violations)
    for pe, op in boundaries.items():
        assert f"PE {pe}: op={op}" in str(excinfo.value)
