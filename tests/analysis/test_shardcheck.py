"""Fixture tests for every ncshardcheck (NC3xx) static check.

Mirrors ``test_nccheck.py``: each check must (a) fire on a seeded
mutation of a clean shard plan and (b) stay silent on the clean plan —
and the real ``ext_shard`` workload must verify clean at 1/2/4 cubes
(`test_clean_gate`), which is what makes the CI ``nccheck --cubes``
step a meaningful gate rather than a tautology.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import shardcheck
from repro.core.config import NeurocubeConfig
from repro.core.multicube import LINKS_PER_CUBE, MultiCubeConfig
from repro.core.shard import ShardedSimulator, shard_network
from repro.errors import MappingError, PlanCheckError
from repro.memory.specs import HMC_EXT
from repro.nn.activations import Sigmoid, Tanh
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.network import Network


def _network(name: str = "shardcheck-fixture") -> Network:
    return Network(
        [Conv2D(2, 3, activation=Tanh(), name="conv"),
         MaxPool2D(2, name="pool"),
         Flatten(name="flatten"),
         Dense(16, activation=Sigmoid(), name="classify")],
        input_shape=(1, 18, 12), name=name, seed=7)


@pytest.fixture(scope="module")
def cluster() -> MultiCubeConfig:
    return MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(), n_cubes=2)


@pytest.fixture(scope="module")
def plan(cluster):
    return shard_network(_network(), cluster, validate=False)


def codes(plan, cluster, select=None) -> set[str]:
    return {v.code
            for v in shardcheck.verify_shard_plan(plan, cluster,
                                                  select=select)}


def _halo_position(plan) -> int:
    return next(i for i, entry in enumerate(plan.layers)
                if entry.exchange is not None
                and entry.exchange.kind == "halo")


def _gather_position(plan) -> int:
    return next(i for i, entry in enumerate(plan.layers)
                if entry.exchange is not None
                and entry.exchange.kind == "all_gather")


def _with_sent(plan, position, sent_bytes):
    exchange = dataclasses.replace(plan.layers[position].exchange,
                                   sent_bytes=tuple(sent_bytes))
    layers = list(plan.layers)
    layers[position] = dataclasses.replace(layers[position],
                                           exchange=exchange)
    return dataclasses.replace(plan, layers=tuple(layers))


# -- clean baselines -------------------------------------------------------

def test_clean_plan_has_no_violations(plan, cluster):
    assert shardcheck.verify_shard_plan(plan, cluster) == []


def test_clean_gate():
    """The real ext_shard plan verifies clean at every cube count."""
    assert shardcheck.clean_gate((1, 2, 4)) == {1: 0, 2: 0, 4: 0}


def test_self_test_covers_every_check():
    assert shardcheck.self_test() == []


def test_catalogue_documents_every_check():
    entries = shardcheck.SHARD_CHECK_CATALOGUE
    assert [e.code for e in entries] == [
        "NC301", "NC302", "NC303", "NC304", "NC305", "NC306"]
    for entry in entries:
        assert entry.title and entry.guarantee


# -- NC301: exchange completeness ------------------------------------------

def test_nc301_fires_on_missing_gather_exchange(plan, cluster):
    position = _gather_position(plan)
    layers = list(plan.layers)
    layers[position] = dataclasses.replace(layers[position],
                                           exchange=None)
    mutated = dataclasses.replace(plan, layers=tuple(layers))
    assert "NC301" in codes(mutated, cluster, select=["NC301"])


def test_nc301_fires_on_broken_edge_topology(plan, cluster):
    position = _halo_position(plan)
    sent = plan.layers[position].exchange.sent_bytes
    # Edge cubes of a two-cube ring must send equal one-band halos.
    mutated = _with_sent(plan, position, (sent[0], sent[1] * 3))
    assert "NC301" in codes(mutated, cluster, select=["NC301"])


def test_nc301_fires_on_wrong_exchange_identity(plan, cluster):
    position = _halo_position(plan)
    exchange = dataclasses.replace(plan.layers[position].exchange,
                                   layer="somebody-else")
    layers = list(plan.layers)
    layers[position] = dataclasses.replace(layers[position],
                                           exchange=exchange)
    mutated = dataclasses.replace(plan, layers=tuple(layers))
    assert "NC301" in codes(mutated, cluster, select=["NC301"])


def test_nc301_single_cube_plans_never_exchange():
    single = MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(), n_cubes=1)
    plan1 = shard_network(_network(), single, validate=False)
    assert plan1.exchanges == ()
    assert shardcheck.verify_shard_plan(plan1, single) == []


# -- NC302: byte accounting ------------------------------------------------

def test_nc302_fires_on_inflated_halo_bytes(plan, cluster):
    position = _halo_position(plan)
    sent = plan.layers[position].exchange.sent_bytes
    mutated = _with_sent(plan, position, (sent[0] + 64,) + sent[1:])
    violations = shardcheck.verify_shard_plan(mutated, cluster,
                                              select=["NC302"])
    assert violations
    assert "comm" in violations[0].message or "drift" in \
        violations[0].message


def test_nc302_fires_on_gather_total_mismatch(plan, cluster):
    position = _gather_position(plan)
    sent = plan.layers[position].exchange.sent_bytes
    mutated = _with_sent(plan, position,
                         tuple(value * 2 for value in sent))
    assert "NC302" in codes(mutated, cluster, select=["NC302"])


# -- NC303: capacity feasibility -------------------------------------------

def test_nc303_skipped_without_budget(plan, cluster):
    assert cluster.cube_capacity_bytes is None
    assert shardcheck.capacity_violations(plan, cluster) == []


def test_nc303_reports_cube_layer_and_overage(plan, cluster):
    tight = MultiCubeConfig(
        cube=cluster.cube, n_cubes=cluster.n_cubes,
        cube_capacity_bytes=max(plan.per_cube_bytes) - 1)
    violations = shardcheck.capacity_violations(plan, tight)
    assert violations
    worst = violations[0]
    assert worst.code == "NC303"
    assert worst.cube >= 0
    assert worst.layer  # names the heaviest layer
    assert "over budget" in worst.message
    assert "shard across more cubes" in worst.message


def test_nc303_mapping_error_backstop_carries_diagnosis():
    """validate=False still refuses over-capacity plans, and the
    MappingError now carries the NC303 static diagnosis."""
    tight = MultiCubeConfig(
        cube=NeurocubeConfig.hmc_15nm(), n_cubes=2,
        cube_capacity_bytes=1)
    with pytest.raises(MappingError, match="does not fit") as excinfo:
        shard_network(_network(), tight, validate=False)
    assert "over budget" in str(excinfo.value)


# -- NC304: shard geometry -------------------------------------------------

def test_nc304_fires_on_overlapping_shards(plan, cluster):
    position = _halo_position(plan)
    slices = list(plan.layers[position].slices)
    slices[1] = dataclasses.replace(slices[1],
                                    out_lo=slices[1].out_lo - 1)
    layers = list(plan.layers)
    layers[position] = dataclasses.replace(layers[position],
                                           slices=tuple(slices))
    mutated = dataclasses.replace(plan, layers=tuple(layers))
    violations = shardcheck.verify_shard_plan(mutated, cluster,
                                              select=["NC304"])
    assert any("overlap" in v.message for v in violations)


def test_nc304_fires_on_gapped_tiling(plan, cluster):
    position = _halo_position(plan)
    slices = list(plan.layers[position].slices)
    slices[0] = dataclasses.replace(slices[0],
                                    out_hi=slices[0].out_hi - 1)
    layers = list(plan.layers)
    layers[position] = dataclasses.replace(layers[position],
                                           slices=tuple(slices))
    mutated = dataclasses.replace(plan, layers=tuple(layers))
    violations = shardcheck.verify_shard_plan(mutated, cluster,
                                              select=["NC304"])
    assert any("gap" in v.message for v in violations)


def test_nc304_fires_on_footprint_drift(plan, cluster):
    mutated = dataclasses.replace(
        plan, per_cube_bytes=tuple(b + 1 for b in plan.per_cube_bytes))
    assert "NC304" in codes(mutated, cluster, select=["NC304"])


# -- NC305: barrier/fold determinism ---------------------------------------

def test_nc305_fires_on_fractional_bytes(plan, cluster):
    position = _halo_position(plan)
    sent = plan.layers[position].exchange.sent_bytes
    mutated = _with_sent(plan, position,
                         (float(sent[0]) + 0.5,) + sent[1:])
    assert "NC305" in codes(mutated, cluster, select=["NC305"])


def test_nc305_fires_on_negative_bytes(plan, cluster):
    position = _halo_position(plan)
    sent = plan.layers[position].exchange.sent_bytes
    mutated = _with_sent(plan, position, (-sent[0],) + sent[1:])
    assert "NC305" in codes(mutated, cluster, select=["NC305"])


def test_nc305_prediction_is_integer(plan, cluster):
    predicted = shardcheck.predict_exchange_cycles(plan, cluster)
    assert set(predicted) == {e.index for e in plan.exchanges}
    for cycles in predicted.values():
        assert isinstance(cycles, int) and cycles >= 1


def test_nc305_dynamic_cross_check_pins_simulated_barriers(cluster):
    """A fault-free sharded run pays exactly the statically predicted
    barrier cycles at every exchange — the dynamic half of NC305."""
    network = _network("shardcheck-dynamic")
    result = ShardedSimulator(cluster, workers=1).run_timing(network)
    predicted = shardcheck.predict_exchange_cycles(result.plan, cluster)
    assert result.exchanges  # the cross-check must check something
    for outcome in result.exchanges:
        assert outcome.cycles == predicted[outcome.exchange.index]


# -- NC306: link sanity ----------------------------------------------------

def test_nc306_fires_on_unphysical_bandwidth(plan, cluster):
    inflated = MultiCubeConfig(
        cube=cluster.cube, n_cubes=cluster.n_cubes,
        link_bandwidth=HMC_EXT.peak_bandwidth * 4)
    violations = shardcheck.verify_shard_plan(plan, inflated,
                                              select=["NC306"])
    assert any("Table-I" in v.message for v in violations)


def test_nc306_fires_on_too_many_links(plan, cluster):
    overbuilt = MultiCubeConfig(
        cube=cluster.cube, n_cubes=cluster.n_cubes,
        links_per_cube=LINKS_PER_CUBE * 2)
    assert "NC306" in codes(plan, overbuilt, select=["NC306"])


# -- fail-fast hook and reporting ------------------------------------------

def test_check_shard_plan_clean_is_silent(plan, cluster):
    shardcheck.check_shard_plan(plan, cluster)  # must not raise


def test_check_shard_plan_raises_with_violations(plan, cluster):
    tight = MultiCubeConfig(
        cube=cluster.cube, n_cubes=cluster.n_cubes,
        cube_capacity_bytes=1)
    with pytest.raises(PlanCheckError, match="ncshardcheck") as excinfo:
        shardcheck.check_shard_plan(plan, tight, label="tight plan")
    assert "tight plan" in str(excinfo.value)
    assert {v.code for v in excinfo.value.violations} == {"NC303"}


def test_shard_network_validate_hook_fires(monkeypatch):
    def boom(plan, config, label="shard plan"):
        raise PlanCheckError("seeded shard failure", violations=())

    monkeypatch.setattr(shardcheck, "check_shard_plan", boom)
    cluster = MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(),
                              n_cubes=2)
    with pytest.raises(PlanCheckError, match="seeded shard failure"):
        shard_network(_network(), cluster, validate=True)
    # Off by default: the same call without the flag never invokes it.
    shard_network(_network(), cluster)


def test_shard_network_follows_context_validate(monkeypatch):
    from repro.core import RunContext

    calls = []
    monkeypatch.setattr(shardcheck, "check_shard_plan",
                        lambda plan, config, label="": calls.append(1))
    cluster = MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(),
                              n_cubes=2)
    with RunContext(validate=True):
        shard_network(_network(), cluster)
        assert calls, "default-on validate hook did not run"
        calls.clear()
        shard_network(_network(), cluster, validate=False)
        assert not calls


def test_report_distinguishes_skipped_from_passed(plan, cluster):
    report = shardcheck.report_shard_plan(plan, cluster, label="clean")
    assert report["kind"] == "ncshardcheck-report"
    assert report["label"] == "clean"
    assert report["n_cubes"] == 2
    assert report["violation_count"] == 0
    statuses = {c["code"]: c["status"] for c in report["checks"]}
    assert statuses["NC303"] == "skipped"  # no capacity budget
    skipped = {c["code"]: c["skipped"] for c in report["checks"]}
    assert "not evaluated" in skipped["NC303"]
    for code in ("NC301", "NC302", "NC304", "NC305", "NC306"):
        assert statuses[code] == "passed"
        assert skipped[code] == ""


def test_report_marks_budgeted_capacity_passed(plan, cluster):
    roomy = MultiCubeConfig(
        cube=cluster.cube, n_cubes=cluster.n_cubes,
        cube_capacity_bytes=max(plan.per_cube_bytes) * 2)
    report = shardcheck.report_shard_plan(plan, roomy)
    statuses = {c["code"]: c["status"] for c in report["checks"]}
    assert statuses["NC303"] == "passed"


def test_report_marks_failed_checks(plan, cluster):
    tight = MultiCubeConfig(
        cube=cluster.cube, n_cubes=cluster.n_cubes,
        cube_capacity_bytes=1)
    report = shardcheck.report_shard_plan(plan, tight)
    statuses = {c["code"]: c["status"] for c in report["checks"]}
    assert statuses["NC303"] == "failed"
    assert report["violation_count"] >= 1
