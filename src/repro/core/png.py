"""Programmable neurosequence generator (paper §IV, Fig. 7-8).

Two layers of modelling live here:

* :class:`AddressGenerator` — the three-counter FSM of Fig. 8b/8d with the
  Eq. 4/5 combinational address logic, exactly as the paper draws it.  It
  is the programmer-visible contract: configuration registers in, a
  deterministic address/sequence stream out.  Unit tests check it against
  the paper's worked example (73,476 neurons, 49 connections, counter
  stride 16).

* :class:`NeurosequenceGenerator` — the cycle-level simulation agent that
  sits between one vault controller and one NoC router: it drives read
  requests into the vault, encapsulates returned words into packets
  (Fig. 11a), injects them with backpressure, and handles write-backs —
  applying the activation LUT to the returned state (Eq. 2) and storing
  the result back to DRAM.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import islice

from repro.errors import ConfigurationError, ProtocolError
from repro.memory.vault import VaultChannel
from repro.nn.activations import ActivationLUT
from repro.noc.interconnect import Interconnect
from repro.noc.packet import Packet, PacketKind, packet_crc
from repro.noc.routing import Port


@dataclass(frozen=True)
class PNGRegisters:
    """Host-visible configuration registers for one layer (§IV-C).

    Attributes:
        n_neurons: total neurons in the layer (outer counter bound); the
            worked example programs 73,476 for the first conv layer.
        n_connections: connections per neuron (middle counter bound);
            49 for a 7x7 kernel.
        n_mac: MACs per PE (inner counter bound / neuron-counter stride).
        image_width: ``W`` of Eq. 5 — the width of the stored
            previous-layer image being addressed.
        output_width: width of this layer's output grid, used to turn
            the flat neuron counter into ``(cur_x, cur_y)``; defaults to
            ``image_width`` (the fully connected / same-size case).
        addr_last: base address of the previous layer's states (Eq. 5's
            ``Addr_last``).
        weight_base: base address of this layer's weights.
        offsets: kernel connectivity offsets ``(n_x, n_y)`` of Eq. 4, in
            connection order; empty for fully connected layers where the
            connection counter indexes the input vector directly.  A
            pass over several stored input maps folds map ``c`` into the
            row offset as ``n_y + c * stored_height``.
        stride: input pixels between neighbouring neurons' windows (the
            pooling window size; 1 for convolution).  Eq. 5 has no
            stride term, so it scales ``cur`` before the offset is
            added.  It rides in the control word: no extra register.
    """

    n_neurons: int
    n_connections: int
    n_mac: int
    image_width: int
    output_width: int | None = None
    addr_last: int = 0
    weight_base: int = 0
    offsets: tuple[tuple[int, int], ...] = ()
    stride: int = 1

    def __post_init__(self) -> None:
        if self.n_neurons < 1:
            raise ConfigurationError("n_neurons must be >= 1")
        if self.n_connections < 1:
            raise ConfigurationError("n_connections must be >= 1")
        if self.n_mac < 1:
            raise ConfigurationError("n_mac must be >= 1")
        if self.image_width < 1:
            raise ConfigurationError("image_width must be >= 1")
        if self.output_width is not None and self.output_width < 1:
            raise ConfigurationError("output_width must be >= 1")
        if self.stride < 1:
            raise ConfigurationError("stride must be >= 1")
        if self.offsets and len(self.offsets) != self.n_connections:
            raise ConfigurationError(
                f"{len(self.offsets)} offsets for {self.n_connections} "
                f"connections")


@dataclass(frozen=True)
class AddressEvent:
    """One FSM step: the addresses for one (neuron, connection, MAC).

    Attributes:
        neuron: flat neuron index (``cur`` counter value + MAC lane).
        connection: connection counter value (the packet's OP-ID source).
        mac: MAC counter value (the packet's MAC-ID).
        state_address: Eq. 5 address of the connected neuron's state.
        weight_address: address of the corresponding synaptic weight.
    """

    neuron: int
    connection: int
    mac: int
    state_address: int
    weight_address: int


class AddressGenerator:
    """The three nested loops of Fig. 8b as an explicit FSM.

    The outer counter walks neurons in steps of ``n_mac`` (the paper's
    example increments by 16), the middle counter walks connections, and
    the inner counter walks MAC lanes.  For locally connected layers the
    state address follows Eq. 4/5, with ``cur`` scaled by the window
    stride (1 except for pooling):

        ``targ = cur * stride + n;  Addr = targ_y * W + targ_x + Addr_last``

    For fully connected layers (no ``offsets``) the connection counter
    *is* the input index.
    """

    def __init__(self, registers: PNGRegisters) -> None:
        self.registers = registers

    def neuron_coords(self, neuron: int) -> tuple[int, int]:
        """Flat neuron index to ``(cur_x, cur_y)`` output coordinates."""
        width = (self.registers.output_width
                 if self.registers.output_width is not None
                 else self.registers.image_width)
        return neuron % width, neuron // width

    def state_address(self, neuron: int, connection: int) -> int:
        """Eq. 5 state address for one (neuron, connection)."""
        reg = self.registers
        if reg.offsets:
            n_x, n_y = reg.offsets[connection]
            cur_x, cur_y = self.neuron_coords(neuron)
            targ_x = cur_x * reg.stride + n_x
            targ_y = cur_y * reg.stride + n_y
            return targ_y * reg.image_width + targ_x + reg.addr_last
        return connection + reg.addr_last

    def weight_address(self, neuron: int, connection: int) -> int:
        """Weight address: shared per connection for local layers, a
        (neuron, connection) matrix entry for fully connected ones."""
        reg = self.registers
        if reg.offsets:
            return reg.weight_base + connection
        return reg.weight_base + neuron * reg.n_connections + connection

    def events(self) -> Iterator[AddressEvent]:
        """Iterate the full FSM schedule for one layer.

        Order matches Fig. 8d: for each group of ``n_mac`` neurons, for
        each connection, for each MAC lane.  Steps whose neuron index
        overruns ``n_neurons`` (a ragged final group) are skipped, as the
        hardware masks those lanes.
        """
        reg = self.registers
        for group_base in range(0, reg.n_neurons, reg.n_mac):
            for connection in range(reg.n_connections):
                for mac in range(reg.n_mac):
                    neuron = group_base + mac
                    if neuron >= reg.n_neurons:
                        continue
                    yield AddressEvent(
                        neuron=neuron, connection=connection, mac=mac,
                        state_address=self.state_address(neuron, connection),
                        weight_address=self.weight_address(neuron,
                                                           connection))

    @property
    def total_events(self) -> int:
        """FSM steps for a full layer (== MAC operations)."""
        return self.registers.n_neurons * self.registers.n_connections


@dataclass(slots=True)
class EmissionRecord:
    """One packet this vault must source (the scheduler's output).

    Records are never changed after construction (tests and nccheck's
    seeded mutations build altered copies with
    :func:`dataclasses.replace`).  Like :class:`repro.noc.Packet`, the
    class is not ``frozen`` only because a frozen dataclass pays an
    ``object.__setattr__`` per field, and a plan builds one record per
    streamed item.

    Attributes:
        address: item address in this vault to read (-1 for items the PNG
            synthesises without a DRAM read, e.g. a constant).
        dst: destination PE.
        mac_id: target MAC lane.
        op_id: global operation index at the destination PE.
        kind: weight or state.
        neuron: opaque neuron tag for bookkeeping.
    """

    address: int
    dst: int
    mac_id: int
    op_id: int
    kind: PacketKind
    neuron: object = None


class RegisterStream:
    """One vault's emission schedule, generated from its PNG registers.

    The hardware PNG holds no list of requests: its three counters turn
    the configuration registers into addresses (Fig. 8).  This is that
    stream for a pass in which the vault feeds only PE ``dst``.  Every
    :meth:`__iter__` yields the same :class:`EmissionRecord` values as
    :meth:`AddressGenerator.events` over ``registers``, in FSM order —
    group, connection, MAC lane — without materialising them.  Locally
    connected registers (with ``offsets``) stream states only, since
    the kernel lives in PE weight memory; fully connected ones stream a
    state then a weight per event.

    Args:
        registers: the vault's PNG configuration registers.
        dst: the PE every record is addressed to.
        neurons: the neuron tag of each value of the neuron counter.
    """

    __slots__ = ("registers", "dst", "neurons", "_terms")

    def __init__(self, registers: PNGRegisters, dst: int,
                 neurons: tuple) -> None:
        if len(neurons) != registers.n_neurons:
            raise ConfigurationError(
                f"{len(neurons)} neuron tags for {registers.n_neurons} "
                f"neurons")
        self.registers = registers
        self.dst = dst
        self.neurons = neurons
        self._terms: tuple[list[int], list[int]] | None = None

    def __len__(self) -> int:
        reg = self.registers
        per_event = 1 if reg.offsets else 2
        return reg.n_neurons * reg.n_connections * per_event

    def __iter__(self) -> Iterator[EmissionRecord]:
        return self.records()

    def records(self, start: int = 0) -> Iterator[EmissionRecord]:
        """The records from the ``start``-th on, in FSM order, generated
        from the operation ``start`` falls in (at most ``2 * n_mac``
        records are generated only to be passed over)."""
        if start >= len(self):
            return iter(())
        op = self.op_of(start)
        records = (self._local_records if self.registers.offsets
                   else self._full_records)(op)
        skip = start - self.position(op)
        return islice(records, skip, None) if skip else records

    def record(self, op: int, lane: int,
               kind: PacketKind) -> EmissionRecord:
        """The record the counters give for operation ``op``, MAC lane
        ``lane`` and ``kind`` (a weight only in a fully connected
        stream), without generating the ones before it."""
        reg = self.registers
        group, connection = divmod(op, reg.n_connections)
        neuron = group * reg.n_mac + lane
        if reg.offsets:
            neuron_base, connection_offset = self.local_terms()
            address = neuron_base[neuron] + connection_offset[connection]
        elif kind is PacketKind.STATE:
            address = reg.addr_last + connection
        else:
            address = (reg.weight_base + neuron * reg.n_connections
                       + connection)
        return EmissionRecord(address, self.dst, lane, op, kind,
                              self.neurons[neuron])

    def position(self, op: int) -> int:
        """Index of operation ``op``'s first record: every group before
        its own fills ``n_mac`` lanes."""
        reg = self.registers
        per_event = 1 if reg.offsets else 2
        group, connection = divmod(op, reg.n_connections)
        first = group * reg.n_mac
        lanes = min(reg.n_mac, reg.n_neurons - first)
        return (first * reg.n_connections + connection * lanes) * per_event

    def op_of(self, index: int) -> int:
        """The operation of the ``index``-th record."""
        reg = self.registers
        per_event = 1 if reg.offsets else 2
        group, rest = divmod(index,
                             reg.n_mac * reg.n_connections * per_event)
        lanes = min(reg.n_mac, reg.n_neurons - group * reg.n_mac)
        return group * reg.n_connections + rest // (lanes * per_event)

    def highest_address(self) -> int:
        """The highest address any record reads, from the registers
        alone (without generating the records)."""
        reg = self.registers
        if reg.offsets:
            neuron_base, connection_offset = self.local_terms()
            return max(neuron_base) + max(connection_offset)
        return max(reg.addr_last + reg.n_connections,
                   reg.weight_base + reg.n_neurons
                   * reg.n_connections) - 1

    def lines(self) -> Iterator[str]:
        """Every record as an ``address,dst,mac_id,op_id,kind,neuron``
        line, in record order, one string per neuron group: the text
        :meth:`~repro.core.scheduler.PassPlan.structural_hash` digests.
        Built from the registers without building the records, since
        the memo store hashes every plan it stores or replays."""
        reg = self.registers
        dst, neurons, n_mac = self.dst, self.neurons, reg.n_mac
        n_conn = reg.n_connections
        state = f",{PacketKind.STATE.value},"
        if reg.offsets:
            neuron_base, connection_offset = self.local_terms()
            for first in range(0, reg.n_neurons, n_mac):
                lanes = [(base, f",{dst},{lane},", f"{state}{tag}\n")
                         for lane, (base, tag) in enumerate(zip(
                             neuron_base[first:first + n_mac],
                             neurons[first:first + n_mac], strict=True))]
                op = first // n_mac * n_conn
                yield "".join([f"{base + offset}{mid}{op + c}{tail}"
                               for c, offset in enumerate(connection_offset)
                               for base, mid, tail in lanes])
            return
        weight = f",{PacketKind.WEIGHT.value},"
        for first in range(0, reg.n_neurons, n_mac):
            tags = neurons[first:first + n_mac]
            rows = range(reg.weight_base + first * n_conn,
                         reg.weight_base + (first + len(tags)) * n_conn,
                         n_conn)
            lanes = [(row, f",{dst},{lane},", f"{state}{tag}\n",
                      f"{weight}{tag}\n")
                     for lane, (row, tag) in enumerate(zip(rows, tags,
                                                           strict=True))]
            op = first // n_mac * n_conn
            yield "".join([f"{c + reg.addr_last}{mid}{op + c}{state_tail}"
                           f"{row + c}{mid}{op + c}{weight_tail}"
                           for c in range(n_conn)
                           for row, mid, state_tail, weight_tail in lanes])

    def local_terms(self) -> tuple[list[int], list[int]]:
        """Eq. 5 split into a per-neuron and a per-connection term: a
        locally connected record reads their sum.  Computed once per
        stream; callers share the lists and must not change them."""
        if self._terms is None:
            reg = self.registers
            pitch, stride = reg.image_width, reg.stride
            width = reg.output_width or pitch
            self._terms = (
                [(n // width * pitch + n % width) * stride + reg.addr_last
                 for n in range(reg.n_neurons)],
                [n_y * pitch + n_x for n_x, n_y in reg.offsets])
        return self._terms

    def _local_records(self, start: int = 0) -> Iterator[EmissionRecord]:
        """Records from the first of operation ``start`` on."""
        reg = self.registers
        dst, neurons, n_mac = self.dst, self.neurons, reg.n_mac
        state = PacketKind.STATE
        neuron_base, connection_offset = self.local_terms()
        group, skip = divmod(start, reg.n_connections)
        for first in range(group * n_mac, reg.n_neurons, n_mac):
            lanes = tuple(enumerate(zip(neuron_base[first:first + n_mac],
                                        neurons[first:first + n_mac],
                                        strict=True)))
            op = first // n_mac * reg.n_connections + skip
            for offset in (connection_offset[skip:] if skip
                           else connection_offset):
                for lane, (base, tag) in lanes:
                    yield EmissionRecord(base + offset, dst, lane, op,
                                         state, tag)
                op += 1
            skip = 0

    def _full_records(self, start: int = 0) -> Iterator[EmissionRecord]:
        """Records from the first of operation ``start`` on."""
        reg = self.registers
        dst, neurons, n_mac = self.dst, self.neurons, reg.n_mac
        n_conn = reg.n_connections
        state, weight = PacketKind.STATE, PacketKind.WEIGHT
        group, skip = divmod(start, n_conn)
        for first in range(group * n_mac, reg.n_neurons, n_mac):
            tags = neurons[first:first + n_mac]
            # Each neuron's weight row: weight_base + neuron * N_conn.
            rows = range(reg.weight_base + first * n_conn,
                         reg.weight_base + (first + len(tags)) * n_conn,
                         n_conn)
            lanes = tuple(enumerate(zip(rows, tags, strict=True)))
            op = first // n_mac * n_conn + skip
            for connection in range(skip, n_conn):
                address = connection + reg.addr_last
                for lane, (row, tag) in lanes:
                    yield EmissionRecord(address, dst, lane, op, state, tag)
                    yield EmissionRecord(row + connection, dst, lane, op,
                                         weight, tag)
                op += 1
            skip = 0


@dataclass
class PNGStats:
    """Per-layer statistics of one PNG."""

    packets_injected: int = 0
    writebacks_received: int = 0
    inject_stall_cycles: int = 0


class NeurosequenceGenerator:
    """Cycle-level PNG agent: vault -> packets -> NoC, and write-backs.

    Args:
        vault: the vault channel this PNG drives.
        node: the NoC node (router) this PNG injects at.
        interconnect: the NoC.
        max_outstanding: how many reads the PNG keeps queued at the vault
            (the request pipeline depth).
        tracer: optional :class:`repro.obs.Tracer`; when set, every
            successful injection emits a ``png.inject`` event.  None (the
            default) keeps the injection loop hook-free.
        injector: optional :class:`repro.faults.FaultInjector`; when
            set, items read from DRAM may arrive with flipped bits (the
            per-item addresses are known here, at packetise time), the
            PNG stamps outgoing packets with a CRC-8 when the protocol
            asks for it, and write-backs recorded as permanently lost
            are forgiven instead of wedging the layer-done signal.
    """

    def __init__(self, vault: VaultChannel, node: int,
                 interconnect: Interconnect,
                 max_outstanding: int = 16,
                 horizon: Callable[[], float] | None = None,
                 tracer=None, injector=None) -> None:
        self.vault = vault
        self.node = node
        self.interconnect = interconnect
        self.max_outstanding = max_outstanding
        self._tracer = tracer
        self._injector = injector
        self._stamp_crc = injector is not None and injector.config.crc
        # All PNGs walk one layer's FSM in lock-step (Fig. 8c: the host
        # starts computation only "after all 16 PNGs are configured").
        # The horizon callback bounds the op-skew between generators so a
        # fast generator cannot run arbitrarily ahead of the PEs — which
        # both matches the lock-step hardware and keeps the PE caches
        # within their 64-entry sub-banks.
        self._horizon = horizon
        # Bound once: the router output this PNG drains write-backs from
        # every cycle and the router input it injects into (mirrors
        # ProcessingElement._rx_buffer / _tx_buffer).  Per-cycle checks
        # test their FIFOs directly.
        router = interconnect.routers[node]
        self._rx_buffer = router.outputs[Port.MEM]
        self._tx_buffer = router.inputs[Port.MEM]
        self._held: EmissionRecord | None = None
        # The schedule as programmed (a steady-state jump re-seeks a
        # RegisterStream) and the iterator the PNG pulls records from.
        self._schedule: Iterable[EmissionRecord] = ()
        self._emissions: Iterator[EmissionRecord] | None = None
        self._emissions_exhausted = True
        # Records pulled off the emission iterator so far — the resume
        # path uses it to fast-forward a freshly programmed schedule to
        # the checkpointed position (iterators themselves cannot pickle).
        self._consumed = 0
        self._ready: deque[Packet] = deque()
        self._expected_writebacks = 0
        self._lut: ActivationLUT | None = None
        self._writeback_sink: Callable[[Packet, int], None] | None = None
        self.stats = PNGStats()

    # ------------------------------------------------------------------
    # programming interface (the host writes these "registers")
    # ------------------------------------------------------------------

    def program(self, emissions: Iterable[EmissionRecord],
                expected_writebacks: int,
                lut: ActivationLUT | None = None,
                writeback_sink: Callable[[Packet, int], None] | None = None,
                ) -> None:
        """Load one layer's schedule (the host's configuration write).

        Args:
            emissions: packet source schedule, in generation order;
                :meth:`fast_forward` needs a :class:`RegisterStream`.
            expected_writebacks: write-backs to await before layer-done.
            lut: activation look-up table applied to returned states.
            writeback_sink: callback ``(packet, activated_raw)`` invoked
                for every write-back (the simulator uses it to store the
                state at the output neuron's address).
        """
        if not self.done:
            raise ProtocolError(
                f"PNG at node {self.node} reprogrammed before layer_done")
        self._schedule = emissions
        self._emissions = iter(emissions)
        self._held = None
        self._emissions_exhausted = False
        self._consumed = 0
        self._expected_writebacks = expected_writebacks
        self._lut = lut
        self._writeback_sink = writeback_sink
        self.stats = PNGStats()

    @property
    def done(self) -> bool:
        """The paper's ``layer done`` signal (Fig. 8c)."""
        return (self._emissions_exhausted
                and self._held is None
                and not self._ready
                and not self.vault.busy
                and self._expected_writebacks <= 0)

    def can_progress(self) -> bool:
        """True when the next :meth:`step` could do visible work, given an
        empty NoC and an unchanged vault.

        Used by the simulator's quiescence check.  The PNG can progress
        when it holds packets ready to inject, or when it can enqueue a
        new vault read: the request pipeline has a slot and the next
        emission record sits within the lock-step horizon.  Peeking the
        next record pulls it into the held slot, which is exactly where
        ``step`` would park it — no schedule state is lost.
        """
        if self._ready:
            return True
        if self._emissions_exhausted and self._held is None:
            return False
        if self.vault.pending >= self.max_outstanding:
            return False
        if self._held is None:
            self._held = self._next_record()
            if self._held is None:
                return False
        if self._horizon is None:
            return True
        return self._held.op_id <= self._horizon()

    def next_event_delta(self) -> int | None:
        """Cycles until this PNG (or its vault) next does visible work.

        The event-horizon scheduler's per-agent contract, mirroring
        :meth:`ProcessingElement.next_event_delta`: 0 when the PNG can
        act right now (write-backs waiting in its router output, packets
        ready to inject, or a vault read it can enqueue within the
        lock-step horizon), the vault's countdown when only the vault
        has a pending issue/completion, and None when the pair is fully
        passive until some other agent acts.

        Between now and the returned delta a skipped PNG has no per-cycle
        state of its own; fast-forwarding it is exactly
        ``vault.skip(n)``.
        """
        if self._rx_buffer.fifo:
            return 0
        if self.can_progress():
            return 0
        if (self._injector is not None and self._injector.has_losses
                and self._injector.has_lost_writebacks(self.node)):
            # A write-back bound for this PNG was recorded permanently
            # lost: forgiving it is an immediate event, so skip-ahead
            # never coasts past the degradation.
            return 0
        return self.vault.next_event_delta()

    def skip(self, cycles: int) -> None:
        """Fast-forward ``cycles`` event-free cycles.

        A PNG whose :meth:`next_event_delta` exceeds one has no
        per-cycle state of its own (no ready packets, nothing to issue
        within the horizon, an empty MEM output) — the only clocked
        state in the pair is the vault's, so fast-forwarding the pair
        is exactly the vault's skip.
        """
        self.vault.skip(cycles)

    # ------------------------------------------------------------------
    # steady-state fast-forward (repro.core.forward)
    # ------------------------------------------------------------------

    #: :meth:`state_dict` entries :meth:`timing_signature` leaves out.
    SIGNATURE_EXEMPT = {
        "stats": "statistics: a jump adds their per-period gain",
    }

    def timing_signature(self, op: int) -> dict:
        """The PNG's timing state relative to its PE's operation ``op``,
        keyed like :meth:`state_dict` (the vault's is its own): the held
        record by op offset, lane, kind and target, the schedule
        position from ``op``'s first record, the ready packets by
        :meth:`~repro.noc.Packet.timing_key`.  Addresses and payloads
        are left out: no timing path reads them."""
        held = self._held
        schedule = self._schedule
        origin = (schedule.position(op)
                  if isinstance(schedule, RegisterStream) else 0)
        cycle = self.interconnect.cycle
        return {
            "held": (None if held is None else
                     (held.op_id - op, held.mac_id, held.kind, held.dst)),
            "consumed": self._consumed - origin,
            "emissions_exhausted": self._emissions_exhausted,
            "ready": tuple(packet.timing_key(op, cycle)
                           for packet in self._ready),
            "expected_writebacks": self._expected_writebacks,
        }

    @staticmethod
    def tag_key(op: int) -> Callable[[tuple], tuple]:
        """How a vault's timing signature sees a read this PNG queued:
        its first record by op offset from ``op``, lane, kind and
        target, and its record count.  A read packs consecutive
        schedule records, which within one neuron group follow from the
        first."""
        def key(tag: tuple) -> tuple:
            first = tag[0]
            return (first.op_id - op, first.mac_id, first.kind, first.dst,
                    len(tag))
        return key

    def lookahead_op(self) -> int | None:
        """The operation of the last record taken off the schedule (a
        :class:`RegisterStream`), or None before the first."""
        if not self._consumed:
            return None
        return self._schedule.op_of(self._consumed - 1)

    def counters(self) -> tuple[int, int, int]:
        """The statistics, in :meth:`fast_forward`'s order."""
        stats = self.stats
        return (stats.packets_injected, stats.writebacks_received,
                stats.inject_stall_cycles)

    def fast_forward(self, cycles: int, ops: int, gained: tuple,
                     vault_gained: tuple) -> None:
        """Jump ``cycles`` cycles and ``ops`` operations ahead, as whole
        periods of a steady state would move the pair, within one
        neuron group of a :class:`RegisterStream` schedule: the held
        record and every queued or in-flight read's records are rebuilt
        from the counters ``ops`` operations on, the schedule re-seeks
        past them, ready packets move by
        :meth:`~repro.noc.Packet.shifted`, and ``gained`` and
        ``vault_gained`` add to the PNG's and the vault's
        :meth:`counters`."""
        schedule = self._schedule

        def moved(record: EmissionRecord) -> EmissionRecord:
            return schedule.record(record.op_id + ops, record.mac_id,
                                   record.kind)

        def retag(address: int, tag: tuple) -> tuple[int, tuple]:
            tag = tuple(moved(record) for record in tag)
            return max(0, tag[0].address), tag

        self.vault.fast_forward(cycles, retag, vault_gained)
        if self._held is not None:
            self._held = moved(self._held)
        self._ready = deque(packet.shifted(ops, cycles)
                            for packet in self._ready)
        last = schedule.op_of(self._consumed - 1)
        self._consumed += (schedule.position(last + ops)
                           - schedule.position(last))
        self._emissions = schedule.records(self._consumed)
        injected, received, stalls = gained
        self.stats.packets_injected += injected
        self.stats.writebacks_received += received
        self.stats.inject_stall_cycles += stalls

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def step(self) -> None:
        """One reference-clock cycle of PNG work.

        Stages: top up the vault request queue from the emission schedule;
        advance the vault; packetise returned words; inject ready packets
        (up to the local word rate) with backpressure; drain write-backs
        from the router's MEM output.
        """
        vault = self.vault
        if ((self._held is not None or not self._emissions_exhausted)
                and vault.pending < self.max_outstanding):
            limit = (self._horizon() if self._horizon is not None
                     else float("inf"))
            held = self._held
            # A held record still beyond the horizon would only be held
            # again: most cycles of a PNG ahead of its PEs end here.
            if held is None or held.op_id <= limit:
                self._issue_requests(limit)
        for read in vault.step():
            self._packetise(read)
        if self._ready:
            self._inject_ready()
        if self._rx_buffer.fifo:
            self._drain_writebacks()
        if self._injector is not None and self._injector.has_losses:
            self._forgive_lost_writebacks()

    def _issue_requests(self, limit: float) -> None:
        """Pack emission records into word-granularity vault reads.

        The vault returns one word — ``items_per_word`` items — per
        service slot (Fig. 11a: "the PNG receives 32bit data and
        encapsulates that into two packets"), so up to that many records
        share one read.  Like the paper's model, addresses are assumed to
        pack fully into words.  The items themselves are read when the
        word completes (:meth:`_packetise`).

        Reads are queued until the request pipeline is full, the
        schedule runs out, or the next record's op lies beyond ``limit``
        (the lock-step horizon) — that record is held for a later cycle.
        """
        vault = self.vault
        free = self.max_outstanding - vault.pending
        capacity = vault.items_per_word
        enqueue = vault.enqueue_read
        emissions = self._emissions
        record = self._held
        consumed = 0
        while free > 0:
            batch: list[EmissionRecord] = []
            while len(batch) < capacity:
                if record is None:
                    if self._emissions_exhausted:
                        break
                    record = next(emissions, None)
                    if record is None:
                        self._emissions_exhausted = True
                        break
                    consumed += 1
                if record.op_id > limit:
                    free = 0  # wait for the PEs to catch up
                    break
                batch.append(record)
                record = None
            if not batch:
                break
            enqueue(max(0, batch[0].address), tag=tuple(batch))
            free -= 1
        self._held = record
        self._consumed += consumed

    def _next_record(self) -> EmissionRecord | None:
        if self._held is not None:
            record, self._held = self._held, None
            return record
        if self._emissions_exhausted:
            return None
        try:
            record = next(self._emissions)
        except StopIteration:
            self._emissions_exhausted = True
            return None
        self._consumed += 1
        return record

    def _read_item(self, address: int) -> int:
        """Fetch one raw item from the backing store (0 in timing mode)."""
        data = self.vault.data
        if data is None or address < 0 or address >= len(data):
            return 0
        return int(data[address])

    def _packetise(self, read) -> None:
        """Wrap each record of a completed read in a packet (Fig. 11a).

        Items are read from the backing store now, at completion, so a
        write-back that lands between a read's issue and its completion
        is what the packet carries.
        """
        injector = self._injector
        if injector is None:
            data = self.vault.data
            size = 0 if data is None else len(data)
            src = self.vault.vault_id
            cycle = self.interconnect.cycle
            ready = self._ready
            for record in read.tag:
                address = record.address
                ready.append(Packet(
                    src, record.dst, record.mac_id, record.op_id,
                    record.kind,
                    int(data[address]) if 0 <= address < size else 0,
                    record.neuron, cycle))
            return
        for slot, record in enumerate(read.tag):
            payload = self._read_item(record.address)
            crc = None
            if injector is not None:
                if record.address >= 0:
                    # DRAM bit-flips land here: the per-item address and
                    # the read's issue cycle key the fault site, so the
                    # same read draws the same fault in every execution
                    # mode.  Synthesised items (address -1) never
                    # touched DRAM and cannot flip.
                    payload = injector.corrupt_item(
                        self.vault.vault_id, read.issued_cycle,
                        record.address, slot, payload)
                if self._stamp_crc:
                    crc = packet_crc(self.vault.vault_id, record.dst,
                                     record.mac_id, record.op_id % 256,
                                     record.kind, payload & 0xFFFF)
            self._ready.append(Packet(
                src=self.vault.vault_id, dst=record.dst,
                mac_id=record.mac_id, op_id=record.op_id, kind=record.kind,
                payload=payload, neuron=record.neuron,
                inject_cycle=self.interconnect.cycle, crc=crc))

    def _inject_ready(self) -> None:
        buffer = self._tx_buffer
        fifo = buffer.fifo
        rate = self.interconnect.local_rate
        injected = 0
        while self._ready and injected < rate:
            if len(fifo) >= buffer.depth:
                self.stats.inject_stall_cycles += 1
                return
            packet = self._ready.popleft()
            buffer.push(packet)
            self.interconnect.stats.injected += 1
            injected += 1
            self.stats.packets_injected += 1
            if self._tracer is not None:
                self._tracer.png_inject(self.interconnect.cycle,
                                        self.vault.vault_id, packet)

    def _forgive_lost_writebacks(self) -> None:
        """Account write-backs the NoC recorded as permanently lost.

        Without this the layer-done signal would wait forever for data
        that can no longer arrive.  The expected count is decremented,
        the output neuron keeps no value (functional assembly fills a
        zero), and the degradation is put on record.
        """
        injector = self._injector
        for loss in injector.take_lost_writebacks(self.node):
            self._expected_writebacks -= 1
            injector.stats.writebacks_forgiven += 1
            injector.record_degraded(
                "writeback_forgiven", self.interconnect.cycle,
                f"PNG node {self.node}: {loss.describe()}",
                neurons=(loss.neuron,) if loss.neuron is not None else ())

    def _drain_writebacks(self) -> None:
        for packet in self.interconnect.eject(
                self.node, Port.MEM, limit=self.interconnect.local_rate):
            if packet.kind != PacketKind.WRITEBACK:
                raise ProtocolError(
                    f"PNG at node {self.node} received non-writeback "
                    f"{packet}")
            raw = packet.payload
            if self._lut is not None:
                raw = int(self._lut.lookup_raw(raw))
            if self._writeback_sink is not None:
                self._writeback_sink(packet, raw)
            self._expected_writebacks -= 1
            self.stats.writebacks_received += 1
            if self._expected_writebacks < 0:
                raise ProtocolError(
                    f"PNG at node {self.node} received more write-backs "
                    f"than programmed")

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Picklable snapshot (the vault snapshots separately).

        The emission iterator itself cannot pickle; its position is the
        ``consumed`` counter, which :meth:`load_state` replays against a
        freshly programmed (identical) schedule.
        """
        return {
            "held": self._held,
            "consumed": self._consumed,
            "emissions_exhausted": self._emissions_exhausted,
            "ready": tuple(self._ready),
            "expected_writebacks": self._expected_writebacks,
            "stats": replace(self.stats),
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot onto a freshly programmed PNG."""
        for _ in range(state["consumed"]):
            next(self._emissions)
        self._consumed = state["consumed"]
        self._held = state["held"]
        self._emissions_exhausted = state["emissions_exhausted"]
        self._ready = deque(state["ready"])
        self._expected_writebacks = state["expected_writebacks"]
        self.stats = replace(state["stats"])
