"""ncshardcheck — static verifier for multi-cube shard plans (NC3xx).

PR 8's sharded executor (:mod:`repro.core.shard`) partitions a compiled
network across cubes and synchronizes them with conservative barrier
cycles.  A malformed :class:`~repro.core.shard.ShardPlan` does not fail
loudly — a missing halo exchange silently under-charges communication,
an over-capacity cube raises a :class:`~repro.errors.MappingError` deep
inside layout planning, and a non-integer byte count would poison the
parent-side barrier fold.  ``ncshardcheck`` proves the plan well-formed
*before* a single cube process is spawned, the same way ``nccheck``
(NC2xx) proves single-cube pass plans:

======  ==========================================================
NC301   exchange completeness (halo coverage, all-gather producers,
        edge/interior neighbour topology, exchange identity)
NC302   byte-accounting equality vs ``MultiCubeModel.comm_bytes``
NC303   per-cube DRAM capacity feasibility vs ``cube_capacity_bytes``
NC304   shard-geometry reconstruction (shards tile the base layer,
        vault layouts mirrored, footprint accounting exact)
NC305   barrier/fold determinism (integer cube-order fold, link-model
        barrier arithmetic reproducible)
NC306   link-bandwidth sanity vs the Table-I HMC-Ext figures
======  ==========================================================

Use :func:`verify_shard_plan` for a violation list,
:func:`check_shard_plan` to fail fast (raises
:class:`repro.errors.PlanCheckError` — the ``validate=`` hook on
:func:`repro.core.shard.shard_network`), and :func:`report_shard_plan`
for the JSON-ready report with per-check ``skipped`` metadata.

NC305's static half proves the barrier arithmetic *can only* be a
cube-order fold over integers; its dynamic half —
:func:`predict_exchange_cycles` — recomputes every exchange's barrier
delay from the plan alone, and the test suite pins a fault-free
simulated run's :class:`~repro.core.shard.ExchangeOutcome` cycles to it
exactly, mirroring how NC201 stall boundaries pin the simulator's
deadlock diagnostics.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.nccheck import CheckCatalogueEntry
from repro.core.multicube import (
    LINK_LATENCY_S,
    LINKS_PER_CUBE,
    MultiCubeConfig,
    MultiCubeModel,
)
from repro.core.shard import ShardedLayer, ShardPlan
from repro.errors import PlanCheckError
from repro.memory.specs import HMC_EXT
from repro.noc.cubelink import CubeLinkModel


@dataclass(frozen=True)
class ShardViolation:
    """One static check failure inside a shard plan.

    ``cube`` is set when the violation localises to one cube (-1
    otherwise); ``layer`` names the sharded layer when it localises to
    one ("" otherwise).
    """

    code: str
    message: str
    cube: int = -1
    layer: str = ""

    def format(self) -> str:
        return f"{self.code} {self.message}"


SHARD_CHECK_CATALOGUE: tuple[CheckCatalogueEntry, ...] = (
    CheckCatalogueEntry(
        "NC301", "exchange completeness",
        "every conv/pool halo row and fc all-gather slice has exactly "
        "one producing cube and reaches every consuming cube, halos "
        "never span past an immediate neighbour, edge/interior "
        "neighbour topology matches the row partition, and exchange "
        "records carry consistent identities (the fault-salt keys)"),
    CheckCatalogueEntry(
        "NC302", "byte-accounting equality",
        "per-cube exchange bytes equal the analytic "
        "MultiCubeModel.comm_bytes charge — interior halo cubes at the "
        "full two-neighbour rate, edge cubes at half, all-gather shares "
        "summing to inputs x (n-1) x item bytes — so measured and "
        "modelled communication can never drift apart"),
    CheckCatalogueEntry(
        "NC303", "per-cube DRAM capacity feasibility",
        "every cube's vault DRAM footprint fits cube_capacity_bytes, "
        "reported with the violating cube, its heaviest layer and the "
        "bytes over budget — statically, instead of a MappingError "
        "deep inside run-time layout planning"),
    CheckCatalogueEntry(
        "NC304", "shard-geometry reconstruction",
        "the union of per-cube shards tiles the base layer with no gap "
        "or overlap, every shard descriptor's geometry and vault "
        "layout mirror the base descriptor's, and the plan's per-cube "
        "byte accounting matches the shard layouts exactly"),
    CheckCatalogueEntry(
        "NC305", "barrier/fold determinism",
        "the parent-side cluster-cycle arithmetic is a cube-order fold "
        "over non-negative integer outcomes, and every exchange's "
        "barrier delay is reproducible from the plan through the "
        "integer CubeLinkModel arithmetic alone (the simulated "
        "reference cross-check pins the dynamic side)"),
    CheckCatalogueEntry(
        "NC306", "link-bandwidth sanity",
        "the cluster's SerDes link parameters stay within the paper's "
        "Table-I HMC-Ext figures (per-channel bandwidth, four links "
        "per cube, non-negative latency) so barrier cycles are never "
        "computed against unphysical links"),
)

#: NC303 skip reason when the cluster declares no capacity budget.
_NC303_SKIP = ("no cube_capacity_bytes budget configured on the "
               "cluster; capacity feasibility not evaluated")


# ---------------------------------------------------------------------
# shared geometry reconstruction
# ---------------------------------------------------------------------

def _total_out_units(entry: ShardedLayer) -> int:
    """Total output units sharded: image rows (conv/pool), neurons (fc)."""
    base = entry.base
    if base.kind == "conv":
        return base.in_height - base.kernel + 1
    if base.kind == "pool":
        return base.in_height // base.kernel
    return base.neurons_per_pass


def _owned_items(entry: ShardedLayer) -> list[int]:
    """Each cube's output item count — its share of a following
    all-gather — mirroring ``_shard_descriptor``'s ``owned`` totals."""
    base = entry.base
    if base.kind == "conv":
        maps = base.passes // base.sub_passes
    elif base.kind == "pool":
        maps = base.passes
    else:
        maps = 1
    return [maps * desc.neurons_per_pass for desc in entry.descriptors]


def _halo_band_bytes(entry: ShardedLayer, item_bytes: int) -> int:
    """Bytes of one ``kernel - 1``-row halo band of ``entry``'s input."""
    base = entry.base
    halo_rows = max(0, base.kernel - 1)
    in_maps = max(1, base.connections // max(1, base.kernel ** 2))
    return halo_rows * base.in_width * in_maps * item_bytes


def _gather_shares(plan: ShardPlan, position: int) -> list[int]:
    """Per-cube input shares of the all-gather feeding layer ``position``.

    Mirrors ``_exchange_bytes``: the previous layer's owned output items
    when they sum to the input vector, an even split otherwise (the
    LSTM ``[x, h]`` case, where the consumed vector is not the previous
    descriptor's output).
    """
    entry = plan.layers[position]
    inputs = entry.base.connections
    prev_owned = _owned_items(plan.layers[position - 1])
    if sum(prev_owned) == inputs:
        return prev_owned
    return [int(part.size)
            for part in np.array_split(np.arange(inputs), plan.n_cubes)]


def _is_int(value: object) -> bool:
    """True for plain non-bool integers (numpy integers included)."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def link_model_for(config: MultiCubeConfig) -> CubeLinkModel:
    """The inter-cube link model a cluster's sharded run would build.

    One definition shared by the executor
    (:meth:`repro.core.shard.ShardedSimulator`) and the static barrier
    prediction, so NC305 verifies the arithmetic the run actually uses.
    """
    return CubeLinkModel(
        n_cubes=config.n_cubes,
        links_per_cube=config.links_per_cube,
        link_bandwidth=config.link_bandwidth,
        latency_s=LINK_LATENCY_S,
        f_clk_hz=config.cube.f_pe_hz)


def predict_exchange_cycles(plan: ShardPlan,
                            config: MultiCubeConfig) -> dict[int, int]:
    """Statically predicted barrier delay per exchange index.

    A fault-free sharded run must pay exactly these cycles at each
    exchange barrier (``ExchangeOutcome.cycles``); the equivalence
    suite pins a simulated reference layer against this prediction, the
    dynamic half of NC305.
    """
    links = link_model_for(config)
    return {exchange.index: links.barrier_cycles(exchange.sent_bytes)
            for exchange in plan.exchanges}


# ---------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------

def _check_exchanges(plan: ShardPlan,
                     config: MultiCubeConfig) -> list[ShardViolation]:
    """NC301: exchange completeness and neighbour topology."""
    violations: list[ShardViolation] = []
    n = plan.n_cubes
    item_bytes = config.cube.qformat.total_bits // 8
    if n == 1:
        for entry in plan.layers:
            if entry.exchange is not None:
                violations.append(ShardViolation(
                    code="NC301", layer=entry.name,
                    message=(f"{entry.name}: single-cube plan schedules "
                             f"an exchange; nothing to exchange with")))
        return violations

    expected_index = 0
    for position, entry in enumerate(plan.layers):
        exchange = entry.exchange
        if position == 0:
            if exchange is not None:
                violations.append(ShardViolation(
                    code="NC301", layer=entry.name,
                    message=(f"{entry.name}: first layer has an "
                             f"exchange, but its inputs come from the "
                             f"host, not another cube")))
            continue

        if entry.kind in ("conv", "pool"):
            needed = _halo_band_bytes(entry, item_bytes) > 0
        else:
            needed = True  # all-gather always moves the input vector
        if exchange is None:
            if needed:
                violations.append(ShardViolation(
                    code="NC301", layer=entry.name,
                    message=(f"{entry.name}: consuming layer has no "
                             f"exchange scheduled; its halo/gather "
                             f"inputs would never arrive from the "
                             f"producing cubes")))
            continue

        # Identity: indices sequential in plan order (the fault-salt
        # key), the record names its consuming layer, one entry per
        # cube.
        if exchange.index != expected_index:
            violations.append(ShardViolation(
                code="NC301", layer=entry.name,
                message=(f"{entry.name}: exchange index "
                         f"{exchange.index}, expected {expected_index} "
                         f"in plan order; inter-cube fault draws keyed "
                         f"by this index would alias")))
        expected_index += 1
        if exchange.layer != entry.name:
            violations.append(ShardViolation(
                code="NC301", layer=entry.name,
                message=(f"{entry.name}: exchange names layer "
                         f"{exchange.layer!r}, not its consuming "
                         f"layer")))
        if len(exchange.sent_bytes) != n:
            violations.append(ShardViolation(
                code="NC301", layer=entry.name,
                message=(f"{entry.name}: exchange carries "
                         f"{len(exchange.sent_bytes)} per-cube byte "
                         f"counts for {n} cubes")))
            continue

        if entry.kind in ("conv", "pool"):
            expected_kind = "halo"
            violations.extend(_check_halo_topology(entry, n))
        else:
            expected_kind = "all_gather"
            violations.extend(_check_gather_producers(plan, position))
        if exchange.kind != expected_kind:
            violations.append(ShardViolation(
                code="NC301", layer=entry.name,
                message=(f"{entry.name}: {entry.kind} layer's exchange "
                         f"is {exchange.kind!r}, expected "
                         f"{expected_kind!r}")))
    return violations


def _check_halo_topology(entry: ShardedLayer,
                         n: int) -> list[ShardViolation]:
    """Halo-specific NC301 conditions against the row partition."""
    violations: list[ShardViolation] = []
    base = entry.base
    halo_rows = max(0, base.kernel - 1)
    exchange = entry.exchange
    # Every halo row must come from the immediate neighbour: a cube
    # owning fewer output rows than the halo is wide cannot source its
    # neighbour's halo alone, and the flat neighbour exchange would be
    # incomplete.
    for slice_ in entry.slices:
        rows = slice_.out_hi - slice_.out_lo
        if base.kind == "conv" and 0 < rows < halo_rows:
            violations.append(ShardViolation(
                code="NC301", cube=slice_.cube, layer=entry.name,
                message=(f"{entry.name}: cube {slice_.cube} owns "
                         f"{rows} output row(s), fewer than the "
                         f"{halo_rows}-row kernel halo; its "
                         f"neighbour's halo would span past it and "
                         f"the neighbour-only exchange is incomplete")))
    # Edge/interior weighting: cubes 0 and n-1 exchange one band, the
    # interior two.  Any positive band makes all entries positive.
    sent = exchange.sent_bytes
    edge = {0, n - 1}
    nonzero = [b for b in sent if b]
    if nonzero:
        for cube, value in enumerate(sent):
            expected_bands = 1 if cube in edge else 2
            reference = sent[0]
            if cube in edge and value != reference:
                violations.append(ShardViolation(
                    code="NC301", cube=cube, layer=entry.name,
                    message=(f"{entry.name}: edge cubes 0 and {n - 1} "
                             f"must send equal one-neighbour halos, "
                             f"got {sent[0]} and {value} bytes")))
            elif cube not in edge and value != 2 * reference:
                violations.append(ShardViolation(
                    code="NC301", cube=cube, layer=entry.name,
                    message=(f"{entry.name}: interior cube {cube} "
                             f"sends {value} bytes, expected the "
                             f"two-neighbour rate "
                             f"{2 * reference} ({expected_bands} "
                             f"bands); neighbour topology does not "
                             f"match the partition")))
    return violations


def _check_gather_producers(plan: ShardPlan,
                            position: int) -> list[ShardViolation]:
    """All-gather-specific NC301 conditions: producer coverage."""
    violations: list[ShardViolation] = []
    entry = plan.layers[position]
    shares = _gather_shares(plan, position)
    inputs = entry.base.connections
    if sum(shares) != inputs:
        violations.append(ShardViolation(
            code="NC301", layer=entry.name,
            message=(f"{entry.name}: producing shares sum to "
                     f"{sum(shares)} input items of {inputs}; some "
                     f"input slice has no (or more than one) "
                     f"producing cube")))
    return violations


def _check_byte_accounting(plan: ShardPlan,
                           config: MultiCubeConfig) -> list[ShardViolation]:
    """NC302: exchange bytes equal the analytic model's charge."""
    violations: list[ShardViolation] = []
    n = plan.n_cubes
    if n == 1:
        return violations
    item_bytes = config.cube.qformat.total_bits // 8
    model = MultiCubeModel(config)
    for position, entry in enumerate(plan.layers):
        exchange = entry.exchange
        if exchange is None or len(exchange.sent_bytes) != n:
            continue  # absence/shape is NC301's finding
        analytic = model.comm_bytes(entry.base)
        if entry.kind in ("conv", "pool"):
            band = _halo_band_bytes(entry, item_bytes)
            if 2 * band != analytic:
                violations.append(ShardViolation(
                    code="NC302", layer=entry.name,
                    message=(f"{entry.name}: reconstructed halo band "
                             f"({band} bytes) disagrees with the "
                             f"analytic interior charge "
                             f"({analytic:.0f} bytes); the byte "
                             f"semantics have drifted from "
                             f"MultiCubeModel.comm_bytes")))
            for cube, value in enumerate(exchange.sent_bytes):
                expected = band * (1 if cube in (0, n - 1) else 2)
                if value != expected:
                    violations.append(ShardViolation(
                        code="NC302", cube=cube, layer=entry.name,
                        message=(f"{entry.name}: cube {cube} halo "
                                 f"bytes {value} != analytic "
                                 f"{expected} "
                                 f"({'edge' if cube in (0, n - 1) else 'interior'} "
                                 f"rate); measured and modelled "
                                 f"communication would drift apart")))
        else:
            shares = _gather_shares(plan, position)
            total_expected = entry.base.connections * (n - 1) * item_bytes
            total = sum(exchange.sent_bytes)
            if total != total_expected:
                violations.append(ShardViolation(
                    code="NC302", layer=entry.name,
                    message=(f"{entry.name}: all-gather moves {total} "
                             f"bytes, analytic total is "
                             f"{total_expected} (= inputs x (n-1) x "
                             f"item bytes = n x comm_bytes)")))
            for cube, value in enumerate(exchange.sent_bytes):
                expected = shares[cube] * (n - 1) * item_bytes
                if value != expected:
                    violations.append(ShardViolation(
                        code="NC302", cube=cube, layer=entry.name,
                        message=(f"{entry.name}: cube {cube} sends "
                                 f"{value} all-gather bytes for its "
                                 f"{shares[cube]}-item share, "
                                 f"expected {expected}")))
    return violations


def capacity_violations(plan: ShardPlan,
                        config: MultiCubeConfig) -> list[ShardViolation]:
    """NC303: per-cube DRAM footprint vs ``cube_capacity_bytes``.

    Exposed on its own (not only through :func:`verify_shard_plan`)
    because :func:`repro.core.shard.shard_network` reports capacity
    failures through it even with the validate hook off — the static
    report replaces the old bare run-time ``MappingError``.
    """
    capacity = config.cube_capacity_bytes
    if capacity is None:
        return []
    violations: list[ShardViolation] = []
    for cube in range(plan.n_cubes):
        total = sum(entry.descriptors[cube].layout.total_bytes
                    for entry in plan.layers)
        if total <= capacity:
            continue
        heaviest = max(
            plan.layers,
            key=lambda entry: entry.descriptors[cube].layout.total_bytes)
        heaviest_bytes = heaviest.descriptors[cube].layout.total_bytes
        violations.append(ShardViolation(
            code="NC303", cube=cube, layer=heaviest.name,
            message=(f"cube {cube} needs {total / 1e6:.2f} MB against "
                     f"a capacity of {capacity / 1e6:.2f} MB on "
                     f"{plan.n_cubes} cube(s) — "
                     f"{(total - capacity) / 1e6:.2f} MB over budget; "
                     f"heaviest layer {heaviest.name!r} holds "
                     f"{heaviest_bytes / 1e6:.2f} MB; shard across "
                     f"more cubes")))
    return violations


def _check_capacity(plan: ShardPlan,
                    config: MultiCubeConfig) -> list[ShardViolation]:
    return capacity_violations(plan, config)


def _flat_out_items(entry: ShardedLayer) -> int:
    """Total flat output items of a layer (all maps), base geometry."""
    base = entry.base
    if base.kind == "pool":
        return base.passes * base.neurons_per_pass
    if base.kind == "conv":
        return (base.passes // base.sub_passes) * base.neurons_per_pass
    return base.neurons_per_pass


def _check_single_cube_geometry(plan: ShardPlan) -> list[ShardViolation]:
    """NC304 for ``n_cubes == 1``: the one slice owns everything.

    A single-cube plan keeps the base descriptor unrenamed and its
    slice spans the *flat* output item range (there is no row
    partition to reconstruct).
    """
    violations: list[ShardViolation] = []
    for entry in plan.layers:
        if len(entry.descriptors) != 1 or len(entry.slices) != 1:
            violations.append(ShardViolation(
                code="NC304", layer=entry.name,
                message=(f"{entry.name}: single-cube plan carries "
                         f"{len(entry.descriptors)} descriptor(s) / "
                         f"{len(entry.slices)} slice(s)")))
            continue
        if entry.descriptors[0] is not entry.base:
            violations.append(ShardViolation(
                code="NC304", cube=0, layer=entry.name,
                message=(f"{entry.name}: single-cube shard is not the "
                         f"base descriptor itself; fault salts and "
                         f"memo keys would diverge from the unsharded "
                         f"run")))
        slice_ = entry.slices[0]
        items = _flat_out_items(entry)
        if (slice_.out_lo, slice_.out_hi) != (0, items):
            violations.append(ShardViolation(
                code="NC304", cube=0, layer=entry.name,
                message=(f"{entry.name}: single cube owns output items "
                         f"[{slice_.out_lo}, {slice_.out_hi}) of "
                         f"[0, {items})")))
        if (slice_.in_lo, slice_.in_hi) != (0, entry.base.in_height):
            violations.append(ShardViolation(
                code="NC304", cube=0, layer=entry.name,
                message=(f"{entry.name}: single cube streams input "
                         f"rows [{slice_.in_lo}, {slice_.in_hi}) of "
                         f"[0, {entry.base.in_height})")))
    recomputed = sum(entry.descriptors[0].layout.total_bytes
                     for entry in plan.layers
                     if len(entry.descriptors) == 1)
    if plan.per_cube_bytes != (recomputed,):
        violations.append(ShardViolation(
            code="NC304", cube=0,
            message=(f"plan claims {plan.per_cube_bytes} footprint "
                     f"bytes, its layouts hold {recomputed}")))
    return violations


def _check_geometry(plan: ShardPlan,
                    config: MultiCubeConfig) -> list[ShardViolation]:
    """NC304: shards tile the base layer; layouts and bytes agree."""
    if plan.n_cubes == 1:
        return _check_single_cube_geometry(plan)
    violations: list[ShardViolation] = []
    n = plan.n_cubes
    for entry in plan.layers:
        base = entry.base
        if len(entry.descriptors) != n or len(entry.slices) != n:
            violations.append(ShardViolation(
                code="NC304", layer=entry.name,
                message=(f"{entry.name}: {len(entry.descriptors)} "
                         f"shard descriptor(s) / {len(entry.slices)} "
                         f"slice(s) for {n} cube(s)")))
            continue
        total = _total_out_units(entry)
        cursor = 0
        for cube, slice_ in enumerate(entry.slices):
            if slice_.cube != cube:
                violations.append(ShardViolation(
                    code="NC304", cube=cube, layer=entry.name,
                    message=(f"{entry.name}: slice at position {cube} "
                             f"claims cube {slice_.cube}")))
            if slice_.out_lo != cursor:
                gap = "overlap" if slice_.out_lo < cursor else "gap"
                violations.append(ShardViolation(
                    code="NC304", cube=cube, layer=entry.name,
                    message=(f"{entry.name}: cube {cube}'s output "
                             f"share starts at {slice_.out_lo}, "
                             f"previous share ended at {cursor} — a "
                             f"{gap} in the tiling; some output "
                             f"would be produced twice or never")))
            if slice_.out_hi <= slice_.out_lo:
                violations.append(ShardViolation(
                    code="NC304", cube=cube, layer=entry.name,
                    message=(f"{entry.name}: cube {cube} owns the "
                             f"empty output range "
                             f"[{slice_.out_lo}, {slice_.out_hi})")))
            cursor = max(cursor, slice_.out_hi)
            violations.extend(_check_shard_descriptor(entry, cube))
        if cursor != total:
            violations.append(ShardViolation(
                code="NC304", layer=entry.name,
                message=(f"{entry.name}: shards cover output units "
                         f"[0, {cursor}) of [0, {total}); the union "
                         f"does not reconstruct the base layer")))
    for cube in range(min(n, len(plan.per_cube_bytes))):
        recomputed = sum(entry.descriptors[cube].layout.total_bytes
                         for entry in plan.layers
                         if len(entry.descriptors) == n)
        if plan.per_cube_bytes[cube] != recomputed:
            violations.append(ShardViolation(
                code="NC304", cube=cube,
                message=(f"plan claims {plan.per_cube_bytes[cube]} "
                         f"footprint bytes for cube {cube}, its shard "
                         f"layouts hold {recomputed}")))
    if len(plan.per_cube_bytes) != n:
        violations.append(ShardViolation(
            code="NC304",
            message=(f"plan carries {len(plan.per_cube_bytes)} per-cube "
                     f"footprints for {n} cube(s)")))
    return violations


def _check_shard_descriptor(entry: ShardedLayer,
                            cube: int) -> list[ShardViolation]:
    """One shard descriptor's geometry/layout against base + slice."""
    violations: list[ShardViolation] = []
    base = entry.base
    desc = entry.descriptors[cube]
    slice_ = entry.slices[cube]
    rows = slice_.out_hi - slice_.out_lo

    def bad(message: str) -> None:
        violations.append(ShardViolation(code="NC304", cube=cube,
                                         layer=entry.name,
                                         message=message))

    if base.kind == "conv":
        out_w = base.in_width - base.kernel + 1
        if desc.neurons_per_pass != rows * out_w:
            bad(f"{entry.name}: cube {cube} descriptor computes "
                f"{desc.neurons_per_pass} neurons/pass for a "
                f"{rows}-row share of width {out_w} "
                f"(expected {rows * out_w})")
        if (slice_.in_lo != slice_.out_lo
                or slice_.in_hi != slice_.out_hi + base.kernel - 1):
            bad(f"{entry.name}: cube {cube} input rows "
                f"[{slice_.in_lo}, {slice_.in_hi}) do not equal its "
                f"output rows plus the {base.kernel - 1}-row halo")
    elif base.kind == "pool":
        out_w = base.in_width // base.kernel
        if desc.neurons_per_pass != rows * out_w:
            bad(f"{entry.name}: cube {cube} descriptor computes "
                f"{desc.neurons_per_pass} neurons/pass for a "
                f"{rows}-pooled-row share of width {out_w}")
        if (slice_.in_lo != slice_.out_lo * base.kernel
                or slice_.in_hi != slice_.out_hi * base.kernel):
            bad(f"{entry.name}: cube {cube} input rows "
                f"[{slice_.in_lo}, {slice_.in_hi}) are not its pooled "
                f"share times the {base.kernel}-row window")
    else:
        if desc.neurons_per_pass != rows:
            bad(f"{entry.name}: cube {cube} descriptor holds "
                f"{desc.neurons_per_pass} output neurons for the "
                f"[{slice_.out_lo}, {slice_.out_hi}) share")
        if slice_.in_lo != 0 or slice_.in_hi != base.connections:
            bad(f"{entry.name}: cube {cube} fc input range "
                f"[{slice_.in_lo}, {slice_.in_hi}) is not the full "
                f"all-gathered vector [0, {base.connections})")
    if entry.name != base.name:
        bad(f"sharded layer {entry.name!r} wraps base descriptor "
            f"{base.name!r}")
    if len(entry.descriptors) > 1:
        expected_name = f"{base.name}.cube{cube}"
        if desc.name != expected_name:
            bad(f"{entry.name}: cube {cube} shard named {desc.name!r}, "
                f"expected {expected_name!r}; fault salts and "
                f"checkpoint namespaces key on the shard name")
    if desc.in_height != slice_.in_hi - slice_.in_lo and base.kind != "fc":
        bad(f"{entry.name}: cube {cube} descriptor streams "
            f"{desc.in_height} input rows, its slice spans "
            f"{slice_.in_hi - slice_.in_lo}")
    layout, ref = desc.layout, base.layout
    if layout.vaults != ref.vaults or layout.duplicate != ref.duplicate:
        bad(f"{entry.name}: cube {cube} layout uses {layout.vaults} "
            f"vault(s), duplicate={layout.duplicate}; the base layer "
            f"maps {ref.vaults} vault(s), duplicate={ref.duplicate}")
    if layout.packets_per_connection != ref.packets_per_connection:
        bad(f"{entry.name}: cube {cube} layout ships "
            f"{layout.packets_per_connection} packet(s) per "
            f"connection, base ships {ref.packets_per_connection}; "
            f"the compiler's streamed-weight override was not "
            f"mirrored")
    if ref.weight_bytes == 0 and layout.weight_bytes != 0:
        bad(f"{entry.name}: cube {cube} layout stores "
            f"{layout.weight_bytes} weight bytes for a weightless "
            f"base layer")
    if ref.remote_state_fraction == 0.0 and layout.remote_state_fraction:
        bad(f"{entry.name}: cube {cube} layout claims remote state "
            f"traffic on a vault-local base layer")
    return violations


def _check_fold_determinism(plan: ShardPlan,
                            config: MultiCubeConfig) -> list[ShardViolation]:
    """NC305: barrier arithmetic is an integer cube-order fold."""
    violations: list[ShardViolation] = []
    links = link_model_for(config)
    for exchange in plan.exchanges:
        bad_items = [(cube, value)
                     for cube, value in enumerate(exchange.sent_bytes)
                     if not _is_int(value) or value < 0]
        for cube, value in bad_items:
            violations.append(ShardViolation(
                code="NC305", cube=cube, layer=exchange.layer,
                message=(f"{exchange.layer}: cube {cube} exchange "
                         f"payload is {value!r}; the barrier fold is "
                         f"integer arithmetic over cube-order "
                         f"outcomes, and a non-integer (or negative) "
                         f"byte count would poison every downstream "
                         f"cluster cycle")))
        if bad_items:
            continue
        forward = links.barrier_cycles(exchange.sent_bytes)
        reversed_fold = links.barrier_cycles(
            tuple(reversed(exchange.sent_bytes)))
        if not _is_int(forward) or forward != reversed_fold:
            violations.append(ShardViolation(
                code="NC305", layer=exchange.layer,
                message=(f"{exchange.layer}: barrier fold is not a "
                         f"cube-order-independent integer "
                         f"({forward!r} forward vs {reversed_fold!r} "
                         f"reversed); the conservative sync would "
                         f"depend on execution order")))
    return violations


def _check_link_sanity(plan: ShardPlan,
                       config: MultiCubeConfig) -> list[ShardViolation]:
    """NC306: link parameters stay within the Table-I figures."""
    violations: list[ShardViolation] = []
    if config.link_bandwidth > HMC_EXT.peak_bandwidth:
        violations.append(ShardViolation(
            code="NC306",
            message=(f"per-link bandwidth "
                     f"{config.link_bandwidth / 1e9:.1f} GB/s exceeds "
                     f"the Table-I HMC-Ext channel figure "
                     f"({HMC_EXT.peak_bandwidth / 1e9:.1f} GB/s); "
                     f"barrier cycles would be computed against "
                     f"unphysical links")))
    if config.links_per_cube > LINKS_PER_CUBE:
        violations.append(ShardViolation(
            code="NC306",
            message=(f"{config.links_per_cube} SerDes links per cube "
                     f"exceeds the paper's {LINKS_PER_CUBE} "
                     f"(SS VII: '4 links (SERDES)')")))
    links = link_model_for(config)
    largest = max((max(e.sent_bytes) for e in plan.exchanges
                   if e.sent_bytes), default=0)
    if largest and links.serialization_cycles(int(largest)) < 1:
        violations.append(ShardViolation(
            code="NC306",
            message=(f"a {largest}-byte frame serializes in zero "
                     f"cycles; link arithmetic lost its >= 1 cycle "
                     f"floor")))
    return violations


_SHARD_CHECKS = (
    ("NC301", _check_exchanges),
    ("NC302", _check_byte_accounting),
    ("NC303", _check_capacity),
    ("NC304", _check_geometry),
    ("NC305", _check_fold_determinism),
    ("NC306", _check_link_sanity),
)


# ---------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------

def verify_shard_plan(plan: ShardPlan, config: MultiCubeConfig,
                      select: Iterable[str] | None = None,
                      ) -> list[ShardViolation]:
    """Run the static shard-plan checks; returns all violations found."""
    wanted = set(select) if select is not None else None
    violations: list[ShardViolation] = []
    for code, check in _SHARD_CHECKS:
        if wanted is not None and code not in wanted:
            continue
        violations.extend(check(plan, config))
    return violations


def check_shard_plan(plan: ShardPlan, config: MultiCubeConfig,
                     label: str = "shard plan") -> None:
    """Fail-fast hook: raise :class:`PlanCheckError` on any violation.

    The ``validate=`` hook of :func:`repro.core.shard.shard_network`
    (and, through it, ``run_network(cubes=N)``) calls this before any
    cube process is spawned.
    """
    violations = verify_shard_plan(plan, config)
    if not violations:
        return
    lines = [f"ncshardcheck: {label} failed "
             f"{len(violations)} static check(s):"]
    lines.extend(f"  {v.format()}" for v in violations)
    raise PlanCheckError("\n".join(lines), violations=violations)


def report_shard_plan(plan: ShardPlan, config: MultiCubeConfig,
                      label: str = "") -> dict:
    """JSON-compatible verification report with per-check status.

    Every catalogue check carries an explicit ``status`` —
    ``passed`` / ``failed`` / ``skipped`` — plus a ``skipped`` reason
    when it was not evaluated (NC303 without a capacity budget), so a
    CI artifact distinguishes "verified clean" from "not evaluated".
    """
    violations = verify_shard_plan(plan, config)
    by_code: dict[str, list[ShardViolation]] = {}
    for violation in violations:
        by_code.setdefault(violation.code, []).append(violation)
    checks = []
    for entry in SHARD_CHECK_CATALOGUE:
        skipped = ""
        if (entry.code == "NC303"
                and config.cube_capacity_bytes is None):
            skipped = _NC303_SKIP
        found = by_code.get(entry.code, [])
        status = ("failed" if found
                  else "skipped" if skipped else "passed")
        checks.append({"code": entry.code, "title": entry.title,
                       "guarantee": entry.guarantee, "status": status,
                       "skipped": skipped,
                       "violations": [vars(v) for v in found]})
    return {
        "kind": "ncshardcheck-report",
        "label": label or plan.network_name,
        "network": plan.network_name,
        "n_cubes": plan.n_cubes,
        "exchanges": len(plan.exchanges),
        "per_cube_bytes": list(plan.per_cube_bytes),
        "violation_count": len(violations),
        "checks": checks,
    }


# ---------------------------------------------------------------------
# self-test: every check must fire on a seeded violation
# ---------------------------------------------------------------------

def _seed_plan() -> tuple[ShardPlan, MultiCubeConfig]:
    """A small, clean two-cube conv/pool/fc plan to mutate."""
    from repro.core.config import NeurocubeConfig
    from repro.core.shard import shard_network
    from repro.nn.activations import Sigmoid, Tanh
    from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
    from repro.nn.network import Network

    network = Network(
        [Conv2D(2, 3, activation=Tanh(), name="conv"),
         MaxPool2D(2, name="pool"),
         Flatten(name="flatten"),
         Dense(16, activation=Sigmoid(), name="classify")],
        input_shape=(1, 18, 12), name="shardcheck-selftest", seed=7)
    config = MultiCubeConfig(cube=NeurocubeConfig.hmc_15nm(), n_cubes=2)
    return shard_network(network, config, validate=False), config


def _replace_layer(plan: ShardPlan, position: int,
                   **changes) -> ShardPlan:
    import dataclasses

    layers = list(plan.layers)
    layers[position] = dataclasses.replace(layers[position], **changes)
    return dataclasses.replace(plan, layers=tuple(layers))


def _mutate_exchange(plan: ShardPlan, position: int,
                     **changes) -> ShardPlan:
    import dataclasses

    exchange = plan.layers[position].exchange
    return _replace_layer(plan, position,
                          exchange=dataclasses.replace(exchange,
                                                       **changes))


def self_test() -> list[str]:
    """Prove every NC3xx check fires on a seeded violation and stays
    silent on a clean plan.  Returns failure descriptions (empty =
    pass)."""
    import dataclasses

    failures: list[str] = []
    plan, config = _seed_plan()
    baseline = verify_shard_plan(plan, config)
    if baseline:
        failures.append(
            f"clean plan raised {[v.format() for v in baseline]}")
    halo_at = next(i for i, entry in enumerate(plan.layers)
                   if entry.exchange is not None
                   and entry.exchange.kind == "halo")
    gather_at = next(i for i, entry in enumerate(plan.layers)
                     if entry.exchange is not None
                     and entry.exchange.kind == "all_gather")

    def expect(code: str, mutated: ShardPlan, note: str,
               cluster: MultiCubeConfig | None = None) -> None:
        codes = {v.code
                 for v in verify_shard_plan(mutated, cluster or config,
                                            select=[code])}
        if code not in codes:
            failures.append(f"{code} did not fire on {note}")

    # NC301: drop the all-gather exchange feeding the fc layer.
    expect("NC301", _replace_layer(plan, gather_at, exchange=None),
           "a plan missing its all-gather exchange")
    # NC302: inflate one cube's halo byte count.
    sent = plan.layers[halo_at].exchange.sent_bytes
    expect("NC302", _mutate_exchange(plan, halo_at,
                                     sent_bytes=(sent[0] + 64,)
                                     + sent[1:]),
           "a plan with an inflated halo byte count")
    # NC303: shrink the capacity budget below the heaviest cube.
    tight = MultiCubeConfig(
        cube=config.cube, n_cubes=config.n_cubes,
        cube_capacity_bytes=max(plan.per_cube_bytes) - 1)
    expect("NC303", plan, "a plan over a shrunken capacity budget",
           cluster=tight)
    # NC304: overlap two shards' output ranges.
    slices = list(plan.layers[halo_at].slices)
    slices[1] = dataclasses.replace(slices[1],
                                    out_lo=slices[1].out_lo - 1)
    expect("NC304", _replace_layer(plan, halo_at,
                                   slices=tuple(slices)),
           "a plan with overlapping shard geometry")
    # NC305: a fractional byte count in the barrier fold.
    expect("NC305", _mutate_exchange(plan, halo_at,
                                     sent_bytes=(float(sent[0]) + 0.5,)
                                     + sent[1:]),
           "a plan folding non-integer exchange bytes")
    # NC306: a link claiming more than the Table-I channel bandwidth.
    inflated = MultiCubeConfig(
        cube=config.cube, n_cubes=config.n_cubes,
        link_bandwidth=HMC_EXT.peak_bandwidth * 4)
    expect("NC306", plan, "a cluster with unphysical link bandwidth",
           cluster=inflated)
    return failures


def clean_gate(cube_counts: Sequence[int] = (1, 2, 4)) -> dict[int, int]:
    """Verify the ``ext_shard`` workload plan at several cube counts.

    Returns ``{cube_count: violation_count}`` — the CI clean-tree gate
    (``nccheck --cubes 1,2,4``) asserts every value is zero.
    """
    from repro.core.config import NeurocubeConfig
    from repro.core.shard import shard_network
    from repro.experiments.ext_shard import shard_workload

    network = shard_workload()
    cube = NeurocubeConfig.hmc_15nm()
    results: dict[int, int] = {}
    for count in cube_counts:
        cluster = MultiCubeConfig(cube=cube, n_cubes=count)
        plan = shard_network(network, cluster, validate=False)
        results[count] = len(verify_shard_plan(plan, cluster))
    return results
