"""Processing element cycle model (paper §III-B, §V-B, Fig. 11).

A PE owns ``n_mac`` MAC units, a temporal buffer, an OP-counter, and a
16-sub-bank SRAM cache.  Incoming packets whose OP-ID matches the
OP-counter land in the temporal buffer; later packets park in sub-bank
``OP-ID mod 16``.  When the temporal buffer holds a full operand set the
MACs fire (taking ``n_mac`` PE cycles — the MAC clock is ``f_PE/n_MAC``),
the OP-counter advances, and parked packets for the new operation are
fetched with the paper's 16-to-64-cycle sub-bank search, overlapped with
the MAC computation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from repro.core.config import NeurocubeConfig
from repro.core.mac import MACUnit
from repro.errors import ConfigurationError, ProtocolError
from repro.noc.interconnect import Interconnect
from repro.noc.packet import Packet, PacketKind, packet_crc
from repro.noc.routing import Port

_WEIGHT = PacketKind.WEIGHT
_STATE = PacketKind.STATE


@dataclass(frozen=True)
class GroupSlot:
    """One output neuron occupying one MAC lane for a group.

    Attributes:
        neuron: opaque neuron tag (echoed in the write-back packet).
        home_vault: vault that stores this neuron's output state.
        bias: real-valued bias pre-loaded into the accumulator.
    """

    neuron: object
    home_vault: int
    bias: float = 0.0


@dataclass(frozen=True)
class GroupPlan:
    """A group of up to ``n_mac`` neurons processed in lock-step.

    Attributes:
        slots: the neurons, one per MAC lane (lane i = slots[i]).
        n_connections: operations to complete each neuron.
        mode: "mac" for weighted sums, "max" for max-pooling emulation.
        weights_resident: True when weights come from the PE weight
            registers (``weights``) instead of packets.
        shared_state: True when one state item per operation feeds every
            lane (fully connected layers: all neurons read input ``c``).
        weights: raw resident weights indexed by connection (shared
            across lanes, as in a convolution kernel).
    """

    slots: tuple[GroupSlot, ...]
    n_connections: int
    mode: str = "mac"
    weights_resident: bool = True
    shared_state: bool = False
    weights: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.slots:
            raise ConfigurationError("group with no slots")
        if self.n_connections < 1:
            raise ConfigurationError("group needs >= 1 connection")
        if self.mode not in ("mac", "max"):
            raise ConfigurationError(f"unknown group mode {self.mode!r}")
        if self.weights_resident and self.mode == "mac":
            if self.weights is None or len(self.weights) != self.n_connections:
                raise ConfigurationError(
                    "resident-weight group needs one weight per connection")


@dataclass
class PEStats:
    """Per-layer statistics of one PE."""

    macs_fired: int = 0
    idle_cycles: int = 0
    busy_cycles: int = 0
    search_stall_cycles: int = 0
    cache_peak: int = 0
    packets_received: int = 0


class ProcessingElement:
    """One PE agent attached to NoC node ``pe_id``.

    ``tracer`` (a :class:`repro.obs.Tracer`, optional) turns on event
    emission at the three PE observability points — MAC fires, cache
    parks, cache recoveries; None keeps those sites to a single pointer
    comparison each.

    ``injector`` (a :class:`repro.faults.FaultInjector`, optional) arms
    the resilience machinery: stuck-at faults on outgoing MAC results,
    CRC stamps on write-backs, and the per-PE watchdog that force-fires
    an operation whose operand packet was recorded permanently lost —
    zero-filling the missing operands and marking the group's neurons
    degraded instead of wedging the pass.
    """

    def __init__(self, pe_id: int, config: NeurocubeConfig,
                 interconnect: Interconnect, tracer=None,
                 injector=None) -> None:
        self.pe_id = pe_id
        self.config = config
        self.interconnect = interconnect
        self._tracer = tracer
        self._injector = injector
        self._stamp_crc = injector is not None and injector.config.crc
        self._watchdog = (injector.config.watchdog_cycles
                          if injector is not None else 0)
        # Consecutive cycles stalled waiting for operands; feeds the
        # watchdog and the stall diagnostics.  Accrued identically by
        # step() and skip(), reset whenever an operand lands or an
        # operation fires.
        self._waiting_cycles = 0
        self.macs = [MACUnit(config.qformat, mac_id=i)
                     for i in range(config.n_mac)]
        self._groups: list[GroupPlan] = []
        self._group_idx = 0
        self._conn = 0
        self._busy = 0
        self._advance_pending = False
        self._writebacks: deque[Packet] = deque()
        self._cache: list[list[Packet]] = [
            [] for _ in range(config.cache_subbanks)]
        # Running total of packets parked across the sub-banks, and the
        # OP-counter value.  Both are read every cycle (``done``, the
        # emission horizon, packet placement), so they are kept up to
        # date where they change — _receive_packets, _preload_from_cache,
        # _advance_op, program and load_state — instead of re-derived.
        self._parked = 0
        self._op = 0
        self._weight_slots: dict[int, int] = {}
        self._state_slots: dict[int, int] = {}
        self._shared_state: int | None = None
        # Bound once: the router output this PE drains every cycle and
        # the router input its write-backs enter through.  Per-cycle
        # checks test their FIFOs directly.
        router = interconnect.routers[pe_id]
        self._rx_buffer = router.outputs[Port.PE]
        self._tx_buffer = router.inputs[Port.PE]
        self.stats = PEStats()

    # ------------------------------------------------------------------
    # programming
    # ------------------------------------------------------------------

    def program(self, groups: list[GroupPlan]) -> None:
        """Load one layer pass's group schedule."""
        if not self.done:
            raise ProtocolError(
                f"PE {self.pe_id} reprogrammed while layer in progress")
        self._groups = list(groups)
        self._group_idx = 0
        self._conn = 0
        self._sync_op()
        self._busy = 0
        self._advance_pending = False
        self._clear_operand_buffers()
        self.stats = PEStats()
        if self._groups:
            self._start_group()

    @property
    def done(self) -> bool:
        """All groups complete and all write-backs injected."""
        return (self._group_idx >= len(self._groups)
                and not self._writebacks
                and not self._parked)

    @property
    def cache_fill(self) -> int:
        """Packets currently parked across all cache sub-banks."""
        return self._parked

    @property
    def op_counter(self) -> int:
        """The global operation counter (OP-counter of Fig. 11)."""
        return self._op

    def _sync_op(self) -> None:
        """Recompute the OP-counter after the group or connection moved."""
        if self._group_idx >= len(self._groups):
            self._op = self._group_idx * (self._groups[-1].n_connections
                                          if self._groups else 1)
        else:
            self._op = (self._group_idx
                        * self._groups[self._group_idx].n_connections
                        + self._conn)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def step(self) -> None:
        """One PE-clock cycle."""
        if self._writebacks:
            self._inject_writebacks()
        if self._rx_buffer.fifo:
            self._receive_packets()
        if self._group_idx >= len(self._groups):
            return
        if self._busy > 0:
            self._busy -= 1
            self.stats.busy_cycles += 1
            if self._busy == 0 and self._advance_pending:
                self._advance_pending = False
                self._advance_op()
            return
        if self._operands_ready():
            self._fire()
        else:
            self.stats.idle_cycles += 1
            self._waiting_cycles += 1
            injector = self._injector
            if (injector is not None and self._watchdog
                    and self._waiting_cycles >= self._watchdog
                    and injector.has_losses
                    and injector.loss_matches(self.pe_id,
                                              self.op_counter)):
                self._force_fire()

    def next_event_delta(self) -> int | None:
        """Cycles until this PE next does visible work.

        The event-horizon scheduler's per-agent contract: 0 when the PE
        can act right now (packets waiting in its router output,
        write-backs queued, or a complete operand set ready to fire),
        ``n >= 1`` when its next visible event is the n-th step from now
        (a MAC/search countdown expiring — the countdown itself is
        replicated by :meth:`skip`), and None when it is passive — done,
        or idle until a packet arrives, which requires some other agent
        to act first.
        """
        if self._writebacks or self._rx_buffer.fifo:
            return 0
        if self._group_idx >= len(self._groups):
            return None
        if self._busy > 0:
            return self._busy
        if self._operands_ready():
            return 0
        injector = self._injector
        if (injector is not None and self._watchdog
                and injector.has_losses
                and injector.loss_matches(self.pe_id, self.op_counter)):
            # A recorded loss matches the stalled operation: the
            # watchdog expiry is a scheduled event, so skip-ahead never
            # coasts past the force-fire cycle.
            return max(0, self._watchdog - self._waiting_cycles)
        return None

    def skip(self, cycles: int) -> None:
        """Fast-forward ``cycles`` event-free cycles.

        The caller (the simulator's skip-ahead) guarantees no packet
        arrives and no countdown elapses within the window, so the only
        effects of stepping would have been the countdown itself and the
        busy/idle statistics — replicated here exactly.
        """
        if self._group_idx >= len(self._groups):
            return
        if self._busy > 0:
            self._busy -= cycles
            self.stats.busy_cycles += cycles
        elif not self._operands_ready():
            self.stats.idle_cycles += cycles
            self._waiting_cycles += cycles

    # -- steady-state fast-forward (repro.core.forward) ----------------

    #: :meth:`state_dict` entries :meth:`timing_signature` leaves out.
    SIGNATURE_EXEMPT = {
        "macs": "data: the MAC accumulators",
        "conn": "position: the OP-counter the signature is relative to",
        "stats": "statistics: a jump adds their per-period gain",
    }

    #: The statistics a jump adds its per-period gain to; the cache
    #: peak is a maximum, which the repeated periods cannot raise.
    _COUNTERS = ("macs_fired", "idle_cycles", "busy_cycles",
                 "search_stall_cycles", "packets_received")

    @property
    def ops_left_in_group(self) -> int | None:
        """Operations after the current one in the current group; None
        when every group is done."""
        if self._group_idx >= len(self._groups):
            return None
        return self._groups[self._group_idx].n_connections - 1 - self._conn

    def timing_signature(self) -> dict:
        """The PE's timing state relative to its OP-counter, keyed like
        :meth:`state_dict`: countdowns, queued write-backs
        (:meth:`~repro.noc.Packet.timing_key`), parked packets by op
        offset, lane, kind and source (sub-banks in op order from the
        current operation's; a packet's op offset names its sub-bank),
        and which operand lanes the temporal buffer holds, not their
        values."""
        op = self._op
        cycle = self.interconnect.cycle
        cache = self._cache
        subbanks = len(cache)
        return {
            "group_idx": self._group_idx,
            "busy": self._busy,
            "advance_pending": self._advance_pending,
            "writebacks": tuple(packet.timing_key(op, cycle)
                                for packet in self._writebacks),
            "cache": tuple((packet.op_id - op, packet.mac_id, packet.kind,
                            packet.src)
                           for i in range(subbanks)
                           for packet in cache[(op + i) % subbanks]),
            "weight_slots": frozenset(self._weight_slots),
            "state_slots": frozenset(self._state_slots),
            "shared_state": self._shared_state is not None,
            "waiting_cycles": self._waiting_cycles,
        }

    def counters(self) -> tuple[int, ...]:
        """The additive statistics, in :meth:`fast_forward`'s order."""
        stats = self.stats
        return tuple(getattr(stats, name) for name in self._COUNTERS)

    def fast_forward(self, cycles: int, ops: int,
                     gained: tuple[int, ...]) -> None:
        """Jump ``cycles`` cycles and ``ops`` operations ahead inside
        the current group, as whole periods of a steady state would:
        the OP- and connection counters advance, every parked packet
        moves by :meth:`~repro.noc.Packet.shifted` into the sub-bank of
        its new OP-ID, and ``gained`` adds to :meth:`counters`.
        Countdowns and operand lanes recur; the accumulators are not
        extrapolated (only timing is)."""
        self._conn += ops
        self._sync_op()
        cache: list[list[Packet]] = [[] for _ in self._cache]
        for bank in self._cache:
            for packet in bank:
                packet = packet.shifted(ops, cycles)
                cache[packet.op_id % len(cache)].append(packet)
        self._cache = cache
        stats = self.stats
        for name, gain in zip(self._COUNTERS, gained, strict=True):
            setattr(stats, name, getattr(stats, name) + gain)

    # -- packet intake --------------------------------------------------

    def _receive_packets(self) -> None:
        """Drain up to ``local_rate`` packets from the router output.

        A packet for the current operation goes to the temporal buffer;
        a later one parks in sub-bank ``OP-ID mod cache_subbanks``, or
        stays in the router (backpressure) while that sub-bank is full.
        """
        fifo = self._rx_buffer.fifo
        interconnect = self.interconnect
        record_delivery = interconnect.record_delivery
        injector = self._injector
        tracer = self._tracer
        cache = self._cache
        subbanks = self.config.cache_subbanks
        entries = self.config.cache_entries_per_subbank
        op = self._op
        stats = self.stats
        taken = 0
        while taken < interconnect.local_rate and fifo:
            packet = fifo[0]
            op_id = packet.op_id
            if op_id != op:
                if injector is not None and op_id < op:
                    # Under fault injection a packet can arrive after the
                    # watchdog already force-fired its operation (it sat
                    # out link backoffs).  Protocol order is otherwise
                    # intact; discard it instead of treating it as a
                    # plan bug.
                    record_delivery(self.pe_id, fifo.popleft())
                    injector.stats.late_packets += 1
                    taken += 1
                    continue
                bank = cache[op_id % subbanks]
                if len(bank) >= entries:
                    return  # backpressure: leave it in the router
            record_delivery(self.pe_id, fifo.popleft())
            taken += 1
            if packet.kind is not _WEIGHT and packet.kind is not _STATE:
                raise ProtocolError(f"PE {self.pe_id} received {packet}")
            self._waiting_cycles = 0
            if op_id == op:
                self._to_temporal_buffer(packet)
            elif op_id < op:
                raise ProtocolError(
                    f"PE {self.pe_id} received stale {packet} at op "
                    f"{op}")
            else:
                bank.append(packet)
                self._parked += 1
                occupancy = self._parked
                if occupancy > stats.cache_peak:
                    stats.cache_peak = occupancy
                if tracer is not None:
                    tracer.cache_park(interconnect.cycle, self.pe_id,
                                      op_id, occupancy)
            stats.packets_received += 1

    def _to_temporal_buffer(self, packet: Packet) -> None:
        group = self._groups[self._group_idx]
        if packet.mac_id >= len(group.slots):
            raise ProtocolError(
                f"PE {self.pe_id}: MAC-ID {packet.mac_id} beyond group of "
                f"{len(group.slots)} slots")
        if packet.kind == PacketKind.WEIGHT:
            self._weight_slots[packet.mac_id] = packet.payload
        elif group.shared_state:
            self._shared_state = packet.payload
        else:
            self._state_slots[packet.mac_id] = packet.payload

    # -- compute --------------------------------------------------------

    def _operands_ready(self) -> bool:
        group = self._groups[self._group_idx]
        lanes = len(group.slots)
        if group.shared_state:
            if self._shared_state is None:
                return False
        elif len(self._state_slots) < lanes:
            return False
        if group.mode == "mac" and not group.weights_resident:
            if len(self._weight_slots) < lanes:
                return False
        return True

    def _fire(self) -> None:
        """Start one MAC operation.

        The arithmetic applies now; the OP-counter advances (and, at
        group end, the write-backs are emitted) only after the MAC's
        ``n_mac``-cycle computation elapses, matching the f_PE/n_MAC
        MAC clock of Eq. 3.
        """
        group = self._groups[self._group_idx]
        for lane, _ in enumerate(group.slots):
            if group.mode == "max":
                self.macs[lane].max_raw(self._lane_state(group, lane))
            else:
                weight = (group.weights[self._conn]
                          if group.weights_resident
                          else self._weight_slots[lane])
                self.macs[lane].accumulate_raw(
                    weight, self._lane_state(group, lane))
            self.stats.macs_fired += 1
        if self._tracer is not None:
            self._tracer.mac_fire(self.interconnect.cycle, self.pe_id,
                                  self.config.n_mac, len(group.slots),
                                  self.op_counter)
        self._busy = self.config.n_mac - 1
        self.stats.busy_cycles += 1
        self._waiting_cycles = 0
        if self._busy == 0:
            self._advance_op()
        else:
            self._advance_pending = True

    def _force_fire(self) -> None:
        """Watchdog expiry: fire with the missing operands zero-filled.

        Only reachable when a recorded permanent packet loss matches the
        stalled operation — the data can never arrive, so the PE trades
        accuracy for forward progress, records the group's neurons as
        degraded, and resolves the matched ledger entries.
        """
        group = self._groups[self._group_idx]
        injector = self._injector
        if group.shared_state and self._shared_state is None:
            self._shared_state = 0
        for lane in range(len(group.slots)):
            if not group.shared_state and lane not in self._state_slots:
                self._state_slots[lane] = 0
            if (group.mode == "mac" and not group.weights_resident
                    and lane not in self._weight_slots):
                self._weight_slots[lane] = 0
        injector.stats.watchdog_fires += 1
        injector.record_degraded(
            "watchdog_fire", self.interconnect.cycle,
            f"PE {self.pe_id}: watchdog fired at op={self.op_counter} "
            f"after {self._waiting_cycles} stalled cycles; missing "
            f"operands zeroed",
            neurons=tuple(slot.neuron for slot in group.slots
                          if slot.neuron is not None))
        injector.resolve_losses(self.pe_id, self.op_counter)
        self._fire()

    def _lane_state(self, group: GroupPlan, lane: int) -> int:
        if group.shared_state:
            return self._shared_state
        return self._state_slots[lane]

    def _advance_op(self) -> None:
        group = self._groups[self._group_idx]
        self._clear_operand_buffers()
        self._conn += 1
        if self._conn >= group.n_connections:
            self._emit_writebacks(group)
            self._conn = 0
            self._group_idx += 1
            self._sync_op()
            if self._group_idx < len(self._groups):
                self._start_group()
        else:
            self._sync_op()
            self._preload_from_cache()

    def _start_group(self) -> None:
        group = self._groups[self._group_idx]
        for lane, slot in enumerate(group.slots):
            if group.mode == "max":
                # A max-reduction lane starts at the most negative
                # representable value, not at the bias.
                self.macs[lane].reset(
                    bias=self.config.qformat.min_value)
            else:
                self.macs[lane].reset(bias=slot.bias)
        self._preload_from_cache()

    def _preload_from_cache(self) -> None:
        """Move parked packets for the new OP-counter to the buffer.

        The sub-bank search takes between ``n_mac`` and 64 cycles (§V-B)
        but overlaps the MAC computation (itself ``n_mac`` cycles), so
        only the excess stalls the PE.
        """
        op = self._op
        bank = self._cache[op % self.config.cache_subbanks]
        if not bank:
            return
        search = min(64, max(self.config.n_mac, len(bank)))
        extra = max(0, search - self.config.n_mac)
        self._busy += extra
        self.stats.search_stall_cycles += extra
        kept: list[Packet] = []
        for packet in bank:
            if packet.op_id == op:
                self._to_temporal_buffer(packet)
            else:
                kept.append(packet)
        if self._tracer is not None:
            self._tracer.cache_evict(self.interconnect.cycle, self.pe_id,
                                     len(bank) - len(kept), extra)
        self._parked -= len(bank) - len(kept)
        bank[:] = kept

    def _clear_operand_buffers(self) -> None:
        self._weight_slots = {}
        self._state_slots = {}
        self._shared_state = None

    # -- write-back -----------------------------------------------------

    def _emit_writebacks(self, group: GroupPlan) -> None:
        injector = self._injector
        for lane, slot in enumerate(group.slots):
            payload = self.macs[lane].result_raw
            crc = None
            if injector is not None:
                payload = injector.apply_stuck(self.pe_id, lane, payload)
                if self._stamp_crc:
                    crc = packet_crc(self.pe_id, slot.home_vault, lane,
                                     self._group_idx % 256,
                                     PacketKind.WRITEBACK, payload)
            self._writebacks.append(Packet(
                src=self.pe_id, dst=slot.home_vault, mac_id=lane,
                op_id=self._group_idx, kind=PacketKind.WRITEBACK,
                payload=payload, neuron=slot.neuron,
                inject_cycle=self.interconnect.cycle, crc=crc))

    def _inject_writebacks(self) -> None:
        buffer = self._tx_buffer
        fifo = buffer.fifo
        sent = 0
        while self._writebacks and sent < self.interconnect.local_rate:
            if len(fifo) >= buffer.depth:
                return
            buffer.push(self._writebacks.popleft())
            self.interconnect.stats.injected += 1
            sent += 1

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Picklable snapshot; restored onto a freshly programmed PE.

        The group schedule itself is rebuilt by the caller (it is part
        of the pass plan, not of the clocked state).
        """
        return {
            "macs": [mac.state_dict() for mac in self.macs],
            "group_idx": self._group_idx,
            "conn": self._conn,
            "busy": self._busy,
            "advance_pending": self._advance_pending,
            "writebacks": tuple(self._writebacks),
            "cache": [list(bank) for bank in self._cache],
            "weight_slots": dict(self._weight_slots),
            "state_slots": dict(self._state_slots),
            "shared_state": self._shared_state,
            "waiting_cycles": self._waiting_cycles,
            "stats": replace(self.stats),
        }

    def load_state(self, state: dict) -> None:
        for mac, payload in zip(self.macs, state["macs"], strict=True):
            mac.load_state(payload)
        self._group_idx = state["group_idx"]
        self._conn = state["conn"]
        self._sync_op()
        self._busy = state["busy"]
        self._advance_pending = state["advance_pending"]
        self._writebacks = deque(state["writebacks"])
        self._cache = [list(bank) for bank in state["cache"]]
        self._parked = sum(len(bank) for bank in self._cache)
        self._weight_slots = dict(state["weight_slots"])
        self._state_slots = dict(state["state_slots"])
        self._shared_state = state["shared_state"]
        self._waiting_cycles = state["waiting_cycles"]
        self.stats = replace(state["stats"])
