"""Shard plans held without a static verifier.

Each seeded defect in a clean two-cube plan's exchange schedule is
caught by ``exchange_faults`` (the invariant the exchange test asserts
on real plans), ext_shard's workload has a clean schedule at 1, 2 and
4 cubes, an over-capacity plan is refused with a diagnosis, and links
beyond the paper's Table-I figures are refused.  The ``nc30x`` in a
test's name is the code of the retired ncshardcheck check that held
the same property.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import NeurocubeConfig
from repro.core.multicube import LINKS_PER_CUBE, MultiCubeConfig
from repro.core.shard import shard_network
from repro.errors import ConfigurationError, MappingError
from repro.memory.specs import HMC_EXT
from repro.nn.activations import Sigmoid, Tanh
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.network import Network
from tests.core.test_shard_equivalence import exchange_faults


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
    clean = shard_network(_network(), cluster, validate=False)
    assert exchange_faults(clean, cluster) == []
    return clean


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


def _faults_at(plan, cluster, position) -> list[str]:
    """The faults found, each of which must name the mutated layer."""
    faults = exchange_faults(plan, cluster)
    assert faults
    name = plan.layers[position].name
    assert all(f"layer {name!r}" in fault for fault in faults), faults
    return faults


def test_clean_gate():
    """ext_shard's workload has a clean schedule at every cube count."""
    from repro.experiments.ext_shard import shard_workload

    for cubes in (1, 2, 4):
        mc = MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(),
                             n_cubes=cubes)
        plan = shard_network(shard_workload(), mc)
        assert exchange_faults(plan, mc) == [], f"{cubes} cube(s)"


# -- exchange completeness -------------------------------------------------

def test_nc301_fires_on_missing_gather_exchange(plan, cluster):
    position = _gather_position(plan)
    layers = list(plan.layers)
    layers[position] = dataclasses.replace(layers[position],
                                           exchange=None)
    mutated = dataclasses.replace(plan, layers=tuple(layers))
    faults = _faults_at(mutated, cluster, position)
    assert any("has no exchange" in fault for fault in faults)


def test_nc301_fires_on_broken_edge_topology(plan, cluster):
    position = _halo_position(plan)
    sent = plan.layers[position].exchange.sent_bytes
    # Edge cubes of a two-cube ring must send equal one-band halos.
    mutated = _with_sent(plan, position, (sent[0], sent[1] * 3))
    faults = _faults_at(mutated, cluster, position)
    assert any("expected a halo" in fault for fault in faults)


def test_nc301_single_cube_plans_never_exchange():
    single = MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(), n_cubes=1)
    plan1 = shard_network(_network(), single, validate=False)
    assert plan1.exchanges == ()
    assert exchange_faults(plan1, single) == []


# -- byte accounting -------------------------------------------------------

def test_nc302_fires_on_inflated_halo_bytes(plan, cluster):
    position = _halo_position(plan)
    sent = plan.layers[position].exchange.sent_bytes
    mutated = _with_sent(plan, position, (sent[0] + 64,) + sent[1:])
    faults = _faults_at(mutated, cluster, position)
    assert any("comm_bytes" in fault for fault in faults)


def test_nc302_fires_on_gather_total_mismatch(plan, cluster):
    position = _gather_position(plan)
    sent = plan.layers[position].exchange.sent_bytes
    mutated = _with_sent(plan, position,
                         tuple(value * 2 for value in sent))
    faults = _faults_at(mutated, cluster, position)
    assert any("expected an all_gather" in fault for fault in faults)


# -- capacity feasibility --------------------------------------------------

def test_nc303_reports_cube_layer_and_overage(plan, cluster):
    capacity = max(plan.per_cube_bytes) - 1
    cube = next(c for c, total in enumerate(plan.per_cube_bytes)
                if total > capacity)
    heaviest = max(
        plan.layers,
        key=lambda entry: entry.descriptors[cube].layout.total_bytes)
    tight = MultiCubeConfig(cube=cluster.cube, n_cubes=cluster.n_cubes,
                            cube_capacity_bytes=capacity)
    with pytest.raises(MappingError, match="does not fit") as excinfo:
        shard_network(_network(), tight, validate=False)
    message = str(excinfo.value)
    assert f"cube {cube} needs" in message
    assert f"heaviest layer {heaviest.name!r}" in message
    assert "over budget" in message
    assert "shard across more cubes" in message


def test_nc303_mapping_error_backstop_carries_diagnosis():
    """validate=False still refuses over-capacity plans, with the
    diagnosis in the MappingError."""
    tight = MultiCubeConfig(
        cube=NeurocubeConfig.hmc_15nm(), n_cubes=2,
        cube_capacity_bytes=1)
    with pytest.raises(MappingError, match="does not fit") as excinfo:
        shard_network(_network(), tight, validate=False)
    assert "over budget" in str(excinfo.value)


# -- integer byte counts ---------------------------------------------------

def test_nc305_fires_on_fractional_bytes(plan, cluster):
    position = _halo_position(plan)
    sent = plan.layers[position].exchange.sent_bytes
    mutated = _with_sent(plan, position,
                         (float(sent[0]) + 0.5,) + sent[1:])
    faults = _faults_at(mutated, cluster, position)
    assert any("non-integer bytes" in fault for fault in faults)


# -- link sanity -----------------------------------------------------------

def test_nc306_fires_on_unphysical_bandwidth(cluster):
    with pytest.raises(ConfigurationError, match="Table-I"):
        MultiCubeConfig(cube=cluster.cube, n_cubes=cluster.n_cubes,
                        link_bandwidth=HMC_EXT.peak_bandwidth * 4)


def test_nc306_fires_on_too_many_links(cluster):
    with pytest.raises(ConfigurationError, match="4 links"):
        MultiCubeConfig(cube=cluster.cube, n_cubes=cluster.n_cubes,
                        links_per_cube=LINKS_PER_CUBE + 1)
