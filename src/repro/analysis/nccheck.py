"""nccheck — static verifier for compiled neurosequence plans.

A :class:`~repro.core.scheduler.PassPlan` is the PNG loop program the
host would upload to the cube: per-vault emission schedules, per-PE
group schedules, memory images and the write-back map.  A malformed
plan does not fail loudly — it deadlocks mid-simulation (a PE waiting
forever on an operand that has no producer), corrupts state (a
write-back address aliasing streamed input), or silently breaks the
memoization invariant.  ``nccheck`` proves the plan well-formed *before*
a single cycle is simulated:

======  ==========================================================
NC201   producer/consumer completeness (static deadlock-freedom)
NC202   OP-ID validity: in-range, unambiguous, no duplicate producers
NC203   worst-case cache sub-bank occupancy within the emission window
NC204   DRAM address ranges and write-back aliasing vs vault geometry
NC205   NoC route validity (walked against the routing tables)
NC206   write-back accounting (counts, map, neuron totals)
NC207   structural_hash consistency with the memoization key
======  ==========================================================

Use :func:`verify_plan` for a violation list, :func:`check_plan` to
fail fast (raises :class:`repro.errors.PlanCheckError`), and
:func:`verify_program` to sweep every descriptor of a compiled
:class:`~repro.core.layerdesc.NeurocubeProgram` with timing-only plans.

When NC201 fires, the violations carry the exact per-PE stall boundary
— the first OP-counter value each starved PE would wedge at — in the
same ``PE {pe}: op={op}`` shape the cycle simulator's deadlock
diagnostics print, so a static report and a dynamic stall trace can be
diffed line against line (the cross-check test pins this).
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

from repro.core.config import NeurocubeConfig
from repro.core.layerdesc import LayerDescriptor, NeurocubeProgram
from repro.core.pe import GroupPlan
from repro.core.scheduler import PassPlan
from repro.errors import PlanCheckError, ReproError
from repro.noc.packet import Packet, PacketKind
from repro.noc.routing import LOCAL_PORTS, local_delivery_port
from repro.noc.topology import FullyConnected, Mesh2D, Topology

#: Descriptors whose timing-only plan would exceed this many streamed
#: items are skipped by :func:`verify_program` (reported as a note, not
#: a pass): building the full emission schedule of a paper-scale layer
#: in Python costs as much as scheduling it for simulation would.
DEFAULT_MAX_STREAM_ITEMS = 2_000_000


@dataclass(frozen=True)
class PlanViolation:
    """One static check failure inside a plan.

    ``pe``/``op`` are set when the violation localises to a PE's
    OP-counter position (NC201 stall boundaries); -1 otherwise.
    """

    code: str
    message: str
    pe: int = -1
    op: int = -1

    def format(self) -> str:
        return f"{self.code} {self.message}"


@dataclass(frozen=True)
class CheckCatalogueEntry:
    code: str
    title: str
    guarantee: str


CHECK_CATALOGUE: tuple[CheckCatalogueEntry, ...] = (
    CheckCatalogueEntry(
        "NC201", "producer/consumer completeness",
        "every operand every PE waits on has at least one producer "
        "record in some vault's emission schedule — the plan cannot "
        "statically deadlock on a missing packet"),
    CheckCatalogueEntry(
        "NC202", "OP-ID validity",
        "every emission record targets an existing PE, a defined "
        "operation, a valid MAC lane, exactly once; group OP ranges "
        "never overlap, so an OP-ID names one operation unambiguously"),
    CheckCatalogueEntry(
        "NC203", "cache sub-bank occupancy bound",
        "under the emission-horizon window, the packets of the ops that "
        "can be in flight simultaneously fit their cache sub-banks — "
        "no head-of-line deadlock from a full sub-bank"),
    CheckCatalogueEntry(
        "NC204", "vault address ranges",
        "every streamed read and every write-back address falls inside "
        "its vault image, write-back slots are unique, and no "
        "write-back aliases an address the plan also streams as input"),
    CheckCatalogueEntry(
        "NC205", "mesh route validity",
        "every (source, destination, kind) the plan ships walks the "
        "routing tables to its destination's correct local port in "
        "exactly the minimal hop count"),
    CheckCatalogueEntry(
        "NC206", "write-back accounting",
        "per-channel expected write-back counts, the write-back "
        "address map and the PE group slots all agree, and their total "
        "matches the plan's neuron count"),
    CheckCatalogueEntry(
        "NC207", "memoization-key consistency",
        "plans built from tasks with equal structural keys have equal "
        "structural hashes — replaying a memoized outcome is sound"),
)


def _topology_for(config: NeurocubeConfig) -> Topology:
    if config.noc_topology == "fully_connected":
        return FullyConnected(config.n_pe)
    return Mesh2D.for_nodes(config.n_pe)


# ---------------------------------------------------------------------
# consumer-side demand model
# ---------------------------------------------------------------------

def _group_ranges(groups: Sequence[GroupPlan]) -> list[tuple[int, int]]:
    """Per-group ``[start, end)`` OP-ID ranges under the PE numbering.

    The PE computes ``op = group_idx * n_connections + conn`` with the
    *current* group's connection count (:attr:`ProcessingElement.
    op_counter`); the scheduler must number emissions identically.
    """
    return [(g * group.n_connections,
             g * group.n_connections + group.n_connections)
            for g, group in enumerate(groups)]


def _demand_for(group: GroupPlan) -> list[tuple[PacketKind, int]]:
    """Operand kinds/lanes one operation of ``group`` waits on."""
    demand: list[tuple[PacketKind, int]] = []
    if group.shared_state:
        demand.append((PacketKind.STATE, -1))  # any lane satisfies it
    else:
        demand.extend((PacketKind.STATE, lane)
                      for lane in range(len(group.slots)))
    if group.mode == "mac" and not group.weights_resident:
        demand.extend((PacketKind.WEIGHT, lane)
                      for lane in range(len(group.slots)))
    return demand


def _producer_index(plan: PassPlan) -> dict:
    """``(pe, op, kind, lane) -> count`` over all emission schedules."""
    producers: Counter = Counter()
    for records in plan.vault_emissions:
        for record in records:
            producers[(record.dst, record.op_id, record.kind,
                       record.mac_id)] += 1
    return producers


# ---------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------

def _check_producers(plan: PassPlan,
                     config: NeurocubeConfig) -> list[PlanViolation]:
    """NC201: every consumed operand has a producer (deadlock-freedom)."""
    producers = _producer_index(plan)
    shared_counts: Counter = Counter()
    for (pe, op, kind, _lane), count in producers.items():
        if kind == PacketKind.STATE:
            shared_counts[(pe, op)] += count
    violations: list[PlanViolation] = []
    for pe, groups in enumerate(plan.pe_groups):
        boundary: tuple[int, list[str]] | None = None
        for g, group in enumerate(groups):
            start = g * group.n_connections
            for conn in range(group.n_connections):
                op = start + conn
                missing = []
                for kind, lane in _demand_for(group):
                    if lane < 0:
                        if shared_counts[(pe, op)] == 0:
                            missing.append(f"{kind.name} (shared)")
                    elif producers[(pe, op, kind, lane)] == 0:
                        missing.append(f"{kind.name} lane {lane}")
                if missing and (boundary is None or op < boundary[0]):
                    boundary = (op, missing)
        if boundary is not None:
            op, missing = boundary
            violations.append(PlanViolation(
                code="NC201", pe=pe, op=op,
                message=(f"static deadlock: PE {pe}: op={op} has no "
                         f"producer for {', '.join(missing)}; the PE "
                         f"would wedge there with operands parked "
                         f"behind it")))
    return violations


def _check_op_ids(plan: PassPlan,
                  config: NeurocubeConfig) -> list[PlanViolation]:
    """NC202: producer records target real, unambiguous operations."""
    violations: list[PlanViolation] = []
    n_pe = len(plan.pe_groups)
    ranges = [_group_ranges(groups) for groups in plan.pe_groups]
    for pe, pe_ranges in enumerate(ranges):
        for g in range(1, len(pe_ranges)):
            prev_end = pe_ranges[g - 1][1]
            start = pe_ranges[g][0]
            if start < prev_end:
                violations.append(PlanViolation(
                    code="NC202", pe=pe,
                    message=(f"PE {pe}: group {g} OP range "
                             f"[{start}, {pe_ranges[g][1]}) overlaps "
                             f"group {g - 1} ending at {prev_end}; "
                             f"OP-IDs would be ambiguous (groups with "
                             f"different connection counts)")))

    def op_valid(pe: int, op: int) -> bool:
        return any(start <= op < end for start, end in ranges[pe])

    def group_of(pe: int, op: int) -> GroupPlan | None:
        for (start, end), group in zip(ranges[pe], plan.pe_groups[pe], strict=True):
            if start <= op < end:
                return group
        return None

    seen: Counter = Counter()
    for channel, records in enumerate(plan.vault_emissions):
        for record in records:
            if not 0 <= record.dst < n_pe:
                violations.append(PlanViolation(
                    code="NC202",
                    message=(f"vault {channel} emits to PE {record.dst}, "
                             f"outside 0..{n_pe - 1}")))
                continue
            if record.op_id < 0 or not op_valid(record.dst, record.op_id):
                violations.append(PlanViolation(
                    code="NC202", pe=record.dst, op=record.op_id,
                    message=(f"vault {channel} emits op {record.op_id} "
                             f"to PE {record.dst}, which defines no "
                             f"such operation")))
                continue
            group = group_of(record.dst, record.op_id)
            if record.mac_id >= len(group.slots) or record.mac_id < 0:
                violations.append(PlanViolation(
                    code="NC202", pe=record.dst, op=record.op_id,
                    message=(f"vault {channel} emits lane "
                             f"{record.mac_id} to PE {record.dst} op "
                             f"{record.op_id}, but that group has only "
                             f"{len(group.slots)} slots")))
                continue
            if not group.shared_state:
                key = (record.dst, record.op_id, record.kind,
                       record.mac_id)
                seen[key] += 1
                if seen[key] == 2:  # report each duplicate slot once
                    violations.append(PlanViolation(
                        code="NC202", pe=record.dst, op=record.op_id,
                        message=(f"duplicate producer for PE "
                                 f"{record.dst} op {record.op_id} "
                                 f"{record.kind.name} lane "
                                 f"{record.mac_id}; the later packet "
                                 f"would overwrite the earlier "
                                 f"operand")))
    return violations


def _check_cache_occupancy(plan: PassPlan,
                           config: NeurocubeConfig) -> list[PlanViolation]:
    """NC203: in-window packets fit the cache sub-banks.

    Under the emission-horizon window ``W`` (``config.emission_window``)
    a PE at OP-counter ``cur`` can have packets parked for ops in
    ``(cur, cur + W]``; ops congruent mod ``cache_subbanks`` share a
    sub-bank.  The worst case over every window position must stay
    within ``cache_entries_per_subbank``, or the PE back-pressures the
    mesh into a head-of-line deadlock.  Scheduler-built plans satisfy
    this by construction (the window is derived from the same
    geometry); the check guards hand-built or mutated plans.
    """
    window = config.emission_window
    if window <= 0:
        return []  # strict lock-step: nothing ever parks
    subbanks = config.cache_subbanks
    capacity = config.cache_entries_per_subbank
    violations: list[PlanViolation] = []
    per_pe: dict[int, Counter] = {}
    for records in plan.vault_emissions:
        for record in records:
            per_pe.setdefault(record.dst, Counter())[record.op_id] += 1
    for pe in sorted(per_pe):
        by_class: dict[int, list[tuple[int, int]]] = {}
        for op in sorted(per_pe[pe]):
            by_class.setdefault(op % subbanks, []).append(
                (op, per_pe[pe][op]))
        for bank, entries in sorted(by_class.items()):
            left = 0
            occupancy = 0
            for right, (op, count) in enumerate(entries):
                occupancy += count
                while entries[left][0] < op - window + 1:
                    occupancy -= entries[left][1]
                    left += 1
                if occupancy > capacity:
                    violations.append(PlanViolation(
                        code="NC203", pe=pe, op=op,
                        message=(f"PE {pe} sub-bank {bank}: ops "
                                 f"{entries[left][0]}..{op} can park "
                                 f"{occupancy} packets inside one "
                                 f"emission window (limit {capacity} "
                                 f"entries); the mesh would deadlock "
                                 f"head-of-line")))
                    break
    return violations


def _check_addresses(plan: PassPlan,
                     config: NeurocubeConfig) -> list[PlanViolation]:
    """NC204: reads and write-backs stay inside their vault images."""
    violations: list[PlanViolation] = []
    n_channels = len(plan.vault_data)
    read_addresses: list[set[int]] = [set() for _ in range(n_channels)]
    for channel, records in enumerate(plan.vault_emissions):
        size = len(plan.vault_data[channel])
        for record in records:
            if record.address == -1:
                continue  # synthesised item: no DRAM access
            if not 0 <= record.address < size:
                violations.append(PlanViolation(
                    code="NC204",
                    message=(f"vault {channel} reads address "
                             f"{record.address}, outside its "
                             f"{size}-item image")))
            else:
                read_addresses[channel].add(record.address)
    slots_seen: dict[tuple[int, int], object] = {}
    for neuron, (channel, address) in plan.out_addresses.items():
        if not 0 <= channel < n_channels:
            violations.append(PlanViolation(
                code="NC204",
                message=(f"write-back for {neuron} targets channel "
                         f"{channel}, outside 0..{n_channels - 1}")))
            continue
        size = len(plan.vault_data[channel])
        if not 0 <= address < size:
            violations.append(PlanViolation(
                code="NC204",
                message=(f"write-back for {neuron} targets vault "
                         f"{channel} address {address}, outside its "
                         f"{size}-item image")))
            continue
        key = (channel, address)
        if key in slots_seen:
            violations.append(PlanViolation(
                code="NC204",
                message=(f"write-back slot vault {channel} address "
                         f"{address} assigned to both "
                         f"{slots_seen[key]} and {neuron}")))
        slots_seen[key] = neuron
        if address in read_addresses[channel]:
            violations.append(PlanViolation(
                code="NC204",
                message=(f"write-back for {neuron} aliases vault "
                         f"{channel} address {address}, which the plan "
                         f"also streams as input — a read-after-write "
                         f"hazard")))
    return violations


def _walk_route(topology: Topology, src: int, dst: int,
                kind: PacketKind) -> str | None:
    """Walk one packet through the routing tables; None when clean."""
    probe = Packet(src=src, dst=dst, mac_id=0, op_id=0, kind=kind)
    node = src
    hops = 0
    limit = topology.n_nodes + 2
    try:
        while True:
            port = topology.next_port(node, probe)
            if port in LOCAL_PORTS:
                if node != dst:
                    return (f"delivered locally at node {node}, "
                            f"destination was {dst}")
                expected = local_delivery_port(kind)
                if port != expected:
                    return (f"{kind.name} delivered to {port}, "
                            f"expected {expected}")
                break
            node, _ = topology.link_target(node, port)
            hops += 1
            if hops > limit:
                return f"no delivery within {limit} hops"
        minimal = topology.min_hops(src, dst)
        if hops != minimal:
            return (f"took {hops} hops, minimal route is {minimal}")
    except ReproError as error:
        return f"unroutable: {error}"
    return None


def _check_routes(plan: PassPlan,
                  config: NeurocubeConfig) -> list[PlanViolation]:
    """NC205: every shipped (src, dst, kind) routes to its local port."""
    topology = _topology_for(config)
    pairs: set[tuple[int, int, PacketKind]] = set()
    for channel, records in enumerate(plan.vault_emissions):
        if channel >= config.n_channels:
            continue  # geometry mismatch reported by NC206
        src = config.pe_of_channel(channel)
        for record in records:
            pairs.add((src, record.dst, record.kind))
    for pe, groups in enumerate(plan.pe_groups):
        for group in groups:
            for slot in group.slots:
                if 0 <= slot.home_vault < config.n_channels:
                    dst = config.pe_of_channel(slot.home_vault)
                else:
                    dst = slot.home_vault
                pairs.add((pe, dst, PacketKind.WRITEBACK))
    violations = []
    for src, dst, kind in sorted(pairs, key=lambda p: (p[0], p[1],
                                                       p[2].value)):
        problem = _walk_route(topology, src, dst, kind)
        if problem is not None:
            violations.append(PlanViolation(
                code="NC205",
                message=(f"route {src} -> {dst} ({kind.name}): "
                         f"{problem}")))
    return violations


def _check_writebacks(plan: PassPlan,
                      config: NeurocubeConfig) -> list[PlanViolation]:
    """NC206: write-back counts, map and group slots agree."""
    violations: list[PlanViolation] = []
    slot_counts = [0] * len(plan.vault_data)
    total_slots = 0
    for pe, groups in enumerate(plan.pe_groups):
        for group in groups:
            for slot in group.slots:
                total_slots += 1
                if not 0 <= slot.home_vault < len(slot_counts):
                    violations.append(PlanViolation(
                        code="NC206", pe=pe,
                        message=(f"PE {pe} slot for {slot.neuron} has "
                                 f"home vault {slot.home_vault}, "
                                 f"outside the plan's "
                                 f"{len(slot_counts)} channels")))
                    continue
                slot_counts[slot.home_vault] += 1
                mapped = plan.out_addresses.get(slot.neuron)
                if mapped is None:
                    violations.append(PlanViolation(
                        code="NC206", pe=pe,
                        message=(f"neuron {slot.neuron} (PE {pe}) has "
                                 f"no write-back address")))
                elif mapped[0] != slot.home_vault:
                    violations.append(PlanViolation(
                        code="NC206", pe=pe,
                        message=(f"neuron {slot.neuron}: group says "
                                 f"home vault {slot.home_vault}, "
                                 f"write-back map says {mapped[0]}; "
                                 f"the sink would reject the packet")))
    expected = list(plan.expected_writebacks)
    if expected != slot_counts:
        violations.append(PlanViolation(
            code="NC206",
            message=(f"expected_writebacks {expected} disagrees with "
                     f"the {slot_counts} write-backs the PE groups "
                     f"actually produce; PNGs would wait forever (or "
                     f"finish early)")))
    if plan.total_neurons != total_slots:
        violations.append(PlanViolation(
            code="NC206",
            message=(f"plan claims {plan.total_neurons} neurons but "
                     f"the PE groups hold {total_slots} slots")))
    if len(plan.out_addresses) != total_slots:
        violations.append(PlanViolation(
            code="NC206",
            message=(f"write-back map has {len(plan.out_addresses)} "
                     f"entries for {total_slots} group slots")))
    return violations


_PLAN_CHECKS = (
    ("NC201", _check_producers),
    ("NC202", _check_op_ids),
    ("NC203", _check_cache_occupancy),
    ("NC204", _check_addresses),
    ("NC205", _check_routes),
    ("NC206", _check_writebacks),
)


def verify_plan(plan: PassPlan, config: NeurocubeConfig,
                select: Iterable[str] | None = None) -> list[PlanViolation]:
    """Run the static plan checks; returns all violations found."""
    wanted = set(select) if select is not None else None
    violations: list[PlanViolation] = []
    for code, check in _PLAN_CHECKS:
        if wanted is not None and code not in wanted:
            continue
        violations.extend(check(plan, config))
    return violations


def stall_boundaries(violations: Iterable[PlanViolation]) -> dict[int, int]:
    """Per-PE static stall boundary from NC201 violations.

    Maps each starved PE to the first OP-counter value it can never
    advance past — the ``op=`` the simulator's deadlock diagnostics
    would print for that PE.
    """
    boundaries: dict[int, int] = {}
    for violation in violations:
        if violation.code != "NC201" or violation.pe < 0:
            continue
        if (violation.pe not in boundaries
                or violation.op < boundaries[violation.pe]):
            boundaries[violation.pe] = violation.op
    return boundaries


def check_plan(plan: PassPlan, config: NeurocubeConfig,
               label: str = "plan") -> None:
    """Fail-fast hook: raise :class:`PlanCheckError` on any violation.

    The message mirrors the simulator's stall diagnostics — NC201
    boundaries print as ``PE {pe}: op={op}`` lines — so a static
    rejection and a dynamic deadlock report read the same.
    """
    violations = verify_plan(plan, config)
    if not violations:
        return
    lines = [f"nccheck: {label} failed "
             f"{len(violations)} static check(s):"]
    lines.extend(f"  {v.format()}" for v in violations)
    boundaries = stall_boundaries(violations)
    if boundaries:
        lines.append("  static stall boundary:")
        lines.extend(f"  PE {pe}: op={op}"
                     for pe, op in sorted(boundaries.items()))
    raise PlanCheckError("\n".join(lines), violations=violations)


def verify_memo_pairs(pairs: Iterable[tuple[object, PassPlan]],
                      ) -> list[PlanViolation]:
    """NC207: equal structural keys must mean equal structural hashes.

    ``pairs`` are ``(structural_key, plan)`` tuples, e.g. one per
    :class:`~repro.core.parallel.MapTask` with the plan its worker
    would build.  Timing-pass memoization simulates one representative
    per key and replays its outcome for the rest; that is only sound
    when every plan in the class has the same timing-relevant
    structure.
    """
    by_key: dict[object, list[str]] = {}
    violations: list[PlanViolation] = []
    for key, plan in pairs:
        digest = plan.structural_hash()
        hashes = by_key.setdefault(key, [])
        if hashes and digest != hashes[0]:
            violations.append(PlanViolation(
                code="NC207",
                message=(f"structural key {key!r} maps to plans with "
                         f"hashes {hashes[0][:12]}... and "
                         f"{digest[:12]}...; memoized replay would be "
                         f"unsound for this class")))
        hashes.append(digest)
    return violations


# ---------------------------------------------------------------------
# program-level sweep
# ---------------------------------------------------------------------

@dataclass
class DescriptorReport:
    """Verification outcome for one descriptor."""

    name: str
    checked: bool
    violations: list[PlanViolation]
    note: str = ""


def _timing_plan(desc: LayerDescriptor,
                 config: NeurocubeConfig) -> PassPlan:
    from repro.core.scheduler import build_conv_pass, build_fc_pass
    from repro.memory.layout import ConvLayout

    # Dispatch on the layout, not the kind: training programs emit
    # update passes that keep the layer's kind ("conv") but stream
    # vault-locally through an FC-style layout.
    if isinstance(desc.layout, ConvLayout):
        return build_conv_pass(desc, config, None, None, 0.0, None,
                               mode="mac")
    return build_fc_pass(desc, config, None, None, None, None)


def _estimated_stream_items(desc: LayerDescriptor) -> int:
    packets = 2 if not desc.weights_resident else 1
    return desc.neurons_per_pass * desc.connections * packets


def verify_program(program: NeurocubeProgram, config: NeurocubeConfig,
                   max_stream_items: int = DEFAULT_MAX_STREAM_ITEMS,
                   ) -> list[DescriptorReport]:
    """Statically verify every descriptor of a compiled program.

    Each descriptor is lowered to one timing-only pass plan (the
    structure every pass of the descriptor shares) and run through the
    plan checks.  Descriptors whose schedule would exceed
    ``max_stream_items`` streamed items are skipped with a note —
    checking a paper-scale schedule walks every one of its records,
    which defeats the point of a static pass (see
    ``docs/static_analysis.md`` for this limit).
    """
    reports: list[DescriptorReport] = []
    for desc in program.descriptors:
        estimate = _estimated_stream_items(desc)
        if estimate > max_stream_items:
            reports.append(DescriptorReport(
                name=desc.name, checked=False, violations=[],
                note=(f"skipped: ~{estimate} streamed items exceeds "
                      f"the {max_stream_items} static-check budget")))
            continue
        plan = _timing_plan(desc, config)
        reports.append(DescriptorReport(
            name=desc.name, checked=True,
            violations=verify_plan(plan, config)))
    return reports


def check_program(program: NeurocubeProgram, config: NeurocubeConfig,
                  max_stream_items: int = DEFAULT_MAX_STREAM_ITEMS,
                  ) -> list[DescriptorReport]:
    """Fail-fast wrapper around :func:`verify_program`.

    Raises :class:`PlanCheckError` when any descriptor's plan fails a
    check; returns the per-descriptor reports otherwise (so callers can
    still see what was skipped for size).
    """
    reports = verify_program(program, config,
                             max_stream_items=max_stream_items)
    bad = [r for r in reports if r.violations]
    if bad:
        lines = [f"nccheck: program {program.network_name!r} failed "
                 f"static verification:"]
        for report in bad:
            lines.append(f"  descriptor {report.name}:")
            lines.extend(f"    {v.format()}" for v in report.violations)
        raise PlanCheckError(
            "\n".join(lines),
            violations=tuple(v for r in bad for v in r.violations))
    return reports


def report_dict(reports: list[DescriptorReport]) -> dict:
    """JSON-compatible program verification report (the CI artifact).

    Every catalogue check carries an explicit ``status`` — ``passed`` /
    ``failed`` / ``skipped`` — plus a ``skipped`` reason naming what was
    *not* evaluated (the loud >2M-item descriptor skip, or NC207's
    pair-level scope), so the artifact distinguishes "verified clean"
    from "never looked".
    """
    by_code = Counter(v.code for r in reports for v in r.violations)
    skipped_names = [r.name for r in reports if not r.checked]
    checked_any = any(r.checked for r in reports)
    partial = ""
    if skipped_names:
        partial = (f"{len(skipped_names)} of {len(reports)} "
                   f"descriptor(s) not evaluated: "
                   f"{', '.join(skipped_names)}")
    checks = []
    for entry in CHECK_CATALOGUE:
        found = by_code.get(entry.code, 0)
        if entry.code == "NC207":
            # Pair-level check: verify_memo_pairs runs over memoization
            # (key, plan) pairs, not the per-descriptor sweep.
            skipped = ("pair-level check (verify_memo_pairs over "
                       "memoization key/plan pairs); not part of the "
                       "per-descriptor sweep")
            status = "failed" if found else "skipped"
        elif not checked_any:
            skipped = partial or "no descriptors evaluated"
            status = "failed" if found else "skipped"
        else:
            skipped = partial
            status = "failed" if found else "passed"
        checks.append({**vars(entry), "status": status,
                       "skipped": skipped, "violation_count": found})
    return {
        "kind": "nccheck-report",
        "descriptors_checked": sum(1 for r in reports if r.checked),
        "descriptors_skipped": len(skipped_names),
        "violation_count": sum(len(r.violations) for r in reports),
        "descriptors": [
            {"name": r.name, "checked": r.checked, "note": r.note,
             "violations": [vars(v) for v in r.violations]}
            for r in reports],
        "checks": checks,
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


# ---------------------------------------------------------------------
# self-test: every check must fire on a seeded violation
# ---------------------------------------------------------------------

def _seed_plan(config: NeurocubeConfig) -> PassPlan:
    """A small, clean fully connected plan to mutate."""
    from repro.core.compiler import compile_inference
    from repro.nn.layers import Dense
    from repro.nn.network import Network

    network = Network([Dense(2 * config.n_pe)],
                      input_shape=(3 * config.n_channels,),
                      name="nccheck-selftest")
    desc = compile_inference(network, config).descriptors[0]
    return _timing_plan(desc, config)


def self_test(config: NeurocubeConfig | None = None) -> list[str]:
    """Prove every check fires on a seeded violation and stays silent
    on a clean plan.  Returns failure descriptions (empty = pass)."""
    if config is None:
        config = NeurocubeConfig.hmc_15nm(n_channels=4, n_pe=4, n_mac=4)
    failures: list[str] = []
    clean = _seed_plan(config)
    baseline = verify_plan(clean, config)
    if baseline:
        failures.append(
            f"clean plan raised {[v.format() for v in baseline]}")

    def expect(code: str, plan: PassPlan, note: str) -> None:
        codes = {v.code for v in verify_plan(plan, config,
                                             select=[code])}
        if code not in codes:
            failures.append(f"{code} did not fire on {note}")

    # A schedule may be a register stream that yields fresh records on
    # every pass, so the mutations edit listed copies.
    schedules = [list(records) for records in clean.vault_emissions]
    # NC201: drop one producer record.
    victim = schedules[0][0]
    mutated = replace(clean, vault_emissions=[
        [r for r in records if r is not victim] for records in schedules])
    expect("NC201", mutated, "a plan missing one producer")
    # NC202: duplicate one producer record.
    mutated = replace(clean, vault_emissions=[
        records + ([records[0]] if channel == 0 else [])
        for channel, records in enumerate(schedules)])
    expect("NC202", mutated, "a plan with a duplicate producer")
    # NC203: flood one future op far past a sub-bank's capacity.
    flooded = list(schedules[0])
    sample = flooded[-1]
    flooded.extend([sample] * (config.cache_entries_per_subbank + 1))
    mutated = replace(clean, vault_emissions=[flooded] + schedules[1:])
    expect("NC203", mutated, "a plan overflowing a cache sub-bank")
    # NC204: point one read outside the vault image.
    bad = replace(schedules[0][0], address=10 ** 9)
    mutated = replace(clean, vault_emissions=(
        [[bad] + schedules[0][1:]] + schedules[1:]))
    expect("NC204", mutated, "a plan reading outside its vault image")
    # NC205: ship a packet to a node the topology does not have.
    bad = replace(schedules[0][0], dst=config.n_pe + 7)
    mutated = replace(clean, vault_emissions=(
        [[bad] + schedules[0][1:]] + schedules[1:]))
    expect("NC205", mutated, "a plan shipping to a missing node")
    # NC206: understate one channel's expected write-backs.
    expected = list(clean.expected_writebacks)
    expected[0] -= 1
    mutated = replace(clean, expected_writebacks=expected)
    expect("NC206", mutated, "a plan understating write-backs")
    # NC207: one structural key, two structurally different plans.
    drifted = replace(clean, stream_items=clean.stream_items + 1)
    if not verify_memo_pairs([("k", clean), ("k", drifted)]):
        failures.append("NC207 did not fire on drifted memo pairs")
    if verify_memo_pairs([("a", clean), ("b", drifted)]):
        failures.append("NC207 fired on distinct memo keys")
    return failures
