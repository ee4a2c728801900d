"""Cycle-level wormhole router (paper §III-C, Fig. 6c).

Each router has an input and an output :class:`CreditedBuffer` per port.
The switch stage moves at most one packet per output port per cycle from
the input buffers, arbitrated by a rotating daisy-chain priority scheme;
credit-based flow control means a move only happens when the target
buffer has space.  Link traversal between routers is handled by
:class:`repro.noc.interconnect.Interconnect`, giving the canonical
two-stage (switch + link) pipeline.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ConfigurationError, SimulationError
from repro.noc.buffer import DEFAULT_DEPTH, CreditedBuffer
from repro.noc.packet import Packet, PacketKind
from repro.noc.routing import LOCAL_PORTS, PortKey

_WRITEBACK = PacketKind.WRITEBACK


class Router:
    """One NoC router.

    Args:
        node_id: this router's node number (== PE id == vault id).
        link_ports: directional ports wired to other routers.
        route: function ``(packet) -> PortKey`` giving the output port a
            packet must take *from this router*.  Its answer may depend
            only on the packet's destination and on whether the packet
            is a write-back (the one kind distinction routing makes,
            :func:`repro.noc.routing.local_delivery_port`): the router
            asks once per such pair and keeps the output port's index in
            its route table.
        buffer_depth: per-channel packet buffer depth (16 in the paper).
        local_rate: packets per cycle the local (PE/MEM) channels can
            move through the switch.  Mesh links are one 36-bit flit per
            cycle, but the vault pushes a whole 32-bit word — two packets
            — per cycle into the PNG (Fig. 11a), so the local channels are
            provisioned at the word rate.

    ``inputs``, ``outputs`` and ``state_dict`` are keyed by port; the
    switch stage itself works on port indices (position in
    :attr:`ports`) held in lists, so no per-packet step hashes a port.
    """

    def __init__(self, node_id: int, link_ports: list[PortKey],
                 route: Callable[[Packet], PortKey],
                 buffer_depth: int = DEFAULT_DEPTH,
                 local_rate: int = 2) -> None:
        if local_rate < 1:
            raise ConfigurationError(
                f"local_rate must be >= 1, got {local_rate}")
        self.node_id = node_id
        self.ports: list[PortKey] = list(link_ports) + list(LOCAL_PORTS)
        if len(set(self.ports)) != len(self.ports):
            raise ConfigurationError(
                f"router {node_id}: duplicate ports {self.ports}")
        self.local_rate = local_rate
        self.route = route
        self.inputs: dict[PortKey, CreditedBuffer] = {
            port: CreditedBuffer(buffer_depth, f"r{node_id}.in.{port}")
            for port in self.ports}
        self.outputs: dict[PortKey, CreditedBuffer] = {
            port: CreditedBuffer(buffer_depth, f"r{node_id}.out.{port}")
            for port in self.ports}
        # The switch stage's view: everything indexed by port position.
        # Link ports come first, so an output index below ``_n_links``
        # names a link.
        self._port_index = {port: i for i, port in enumerate(self.ports)}
        self._n_links = len(link_ports)
        self._input_fifos = [buffer.fifo for buffer in self.inputs.values()]
        self._output_fifos = [buffer.fifo for buffer in self.outputs.values()]
        self._depth = buffer_depth
        self._rates = [local_rate if port in LOCAL_PORTS else 1
                       for port in self.ports]
        self._max_port_rate = max(self._rates)
        # Route table: destination -> output port index, one dict for
        # data packets and one for write-backs, filled from ``route``.
        self._routes: tuple[dict[int, int], dict[int, int]] = ({}, {})
        # Rotating daisy-chain priority (§III-C): every output port's
        # arbiter starts at input 0 and rotates once per clock cycle,
        # busy or idle, so all of them always share one head — the
        # cycles this router has seen, modulo the port count.  One
        # counter replaces the per-port arbiters; grants stay per port.
        self._rotations = 0
        self._grants = [0] * len(self.ports)
        # Input visiting order per head position: the daisy chain from
        # the head, wrapping once.
        n_ports = len(self.ports)
        self._chains = [[(head + i) % n_ports for i in range(n_ports)]
                        for head in range(n_ports)]
        #: Of the packets the last :meth:`switch` moved, how many went
        #: into link-port outputs (read by the fabric's link-stage gate;
        #: meaningful only when that switch moved any packet).
        self.link_moves = 0

    def advance_idle(self, cycles: int) -> None:
        """Account ``cycles`` idle cycles of arbiter rotation at once."""
        self._rotations += cycles

    #: :meth:`state_dict` entries :meth:`timing_signature` leaves out
    #: (none: its ``arbiters`` entry is the shared head; the per-port
    #: grant counts are statistics, :meth:`counters`).
    SIGNATURE_EXEMPT: dict[str, str] = {}

    def timing_signature(self, cycle: int, op: int) -> dict:
        """The router's timing state, keyed like :meth:`state_dict`:
        every buffered packet by :meth:`~repro.noc.Packet.timing_key`
        relative to operation ``op`` and ``cycle``, by port position
        (empty buffers left out), and the arbiters' shared priority
        head."""
        return {
            "inputs": tuple((port, tuple(packet.timing_key(op, cycle)
                                         for packet in fifo))
                            for port, fifo in enumerate(self._input_fifos)
                            if fifo),
            "outputs": tuple((port, tuple(packet.timing_key(op, cycle)
                                          for packet in fifo))
                             for port, fifo
                             in enumerate(self._output_fifos) if fifo),
            "arbiters": self._rotations % len(self.ports),
        }

    def counters(self) -> tuple[int, ...]:
        """The per-port grant counts, in :meth:`fast_forward`'s order."""
        return tuple(self._grants)

    def fast_forward(self, cycles: int, ops: int,
                     gained: tuple[int, ...]) -> None:
        """Jump ``cycles`` cycles ahead, as whole periods of a steady
        state would: the arbiters rotate, every buffered packet moves
        by :meth:`~repro.noc.Packet.shifted`, and ``gained`` adds to
        the grant counts."""
        self._rotations += cycles
        for fifo in self._input_fifos + self._output_fifos:
            if fifo:
                moved = [packet.shifted(ops, cycles) for packet in fifo]
                fifo.clear()
                fifo.extend(moved)
        self._grants = [grants + gain for grants, gain
                        in zip(self._grants, gained, strict=True)]

    def _fill_route(self, packet: Packet) -> int:
        """Route-table miss: ask ``route`` once, check the answer names a
        port of this router, and keep its index for the destination."""
        port = self.route(packet)
        index = self._port_index.get(port)
        if index is None:
            raise SimulationError(
                f"router {self.node_id}: route returned unknown "
                f"port {port} for {packet}")
        self._routes[packet.kind is _WRITEBACK][packet.dst] = index
        return index

    def switch(self) -> int:
        """One switch-stage cycle: input buffers -> output buffers.

        Returns the number of packets moved.  Each output port grants
        the first requesting input in daisy-chain order from the head,
        and the winner's head packet moves iff the output buffer has a
        credit.  Link ports move at most one packet per cycle; local
        ports up to ``local_rate``, realised as repeated arbitration
        rounds.

        A round visits the inputs once, in daisy-chain order: each input
        requests exactly one output (its head packet's), so the first
        visitor to request an output is that output's daisy-chain
        winner, and it moves when the output is not yet granted this
        round and has rate and credit.  When it cannot move, no later
        requester can either, since nothing else enters that output in
        the round.
        """
        fifos = self._input_fifos
        rotations = self._rotations
        self._rotations = rotations + 1
        # Only inputs holding a packet now can request this cycle: the
        # switch pops inputs but never fills them.
        active = [index for index in self._chains[rotations % len(fifos)]
                  if fifos[index]]
        if not active:
            return 0
        output_fifos = self._output_fifos
        depth = self._depth
        rates = self._rates
        routes = self._routes
        grants = self._grants
        n_links = self._n_links
        supplied = [0] * len(fifos)
        accepted = [0] * len(fifos)
        moved = 0
        link_moves = 0
        for _ in range(self._max_port_rate):
            granted = 0  # bit mask of outputs granted this round
            for index in active:
                fifo = fifos[index]
                if not fifo or supplied[index] >= rates[index]:
                    continue
                packet = fifo[0]
                out = routes[packet.kind is _WRITEBACK].get(packet.dst)
                if out is None:
                    out = self._fill_route(packet)
                bit = 1 << out
                if (granted & bit or accepted[out] >= rates[out]
                        or len(output_fifos[out]) >= depth):
                    continue
                # The depth test above is the credit check.
                output_fifos[out].append(fifo.popleft())
                granted |= bit
                grants[out] += 1
                supplied[index] += 1
                accepted[out] += 1
                moved += 1
                if out < n_links:
                    link_moves += 1
            if not granted:
                break
        self.link_moves = link_moves
        return moved

    @property
    def switched_packets(self) -> int:
        """Packets moved by the switch stage so far (one per grant)."""
        return sum(self._grants)

    @property
    def busy(self) -> bool:
        """True while any buffer holds a packet."""
        return (any(not b.empty for b in self.inputs.values())
                or any(not b.empty for b in self.outputs.values()))

    @property
    def occupancy(self) -> int:
        """Total packets resident in this router."""
        return (sum(b.occupancy for b in self.inputs.values())
                + sum(b.occupancy for b in self.outputs.values()))

    def occupancy_by_port(self) -> dict[PortKey, tuple[int, int]]:
        """Per-port ``(input, output)`` buffer occupancy snapshot.

        A read-only probe for the observability layer's counter sampler
        and for stall diagnostics; never called on the simulation path.
        """
        return {port: (self.inputs[port].occupancy,
                       self.outputs[port].occupancy)
                for port in self.ports}

    def state_dict(self) -> dict:
        """Picklable snapshot: buffers, and each output port's arbiter
        as its priority ``head`` and ``grants`` count."""
        head = self._rotations % len(self.ports)
        return {
            "inputs": {port: b.state_dict()
                       for port, b in self.inputs.items()},
            "outputs": {port: b.state_dict()
                        for port, b in self.outputs.items()},
            "arbiters": {port: {"head": head, "grants": grants}
                         for port, grants in zip(self.ports, self._grants,
                                                 strict=True)},
        }

    def load_state(self, state: dict) -> None:
        for port, payload in state["inputs"].items():
            self.inputs[port].load_state(payload)
        for port, payload in state["outputs"].items():
            self.outputs[port].load_state(payload)
        arbiters = state["arbiters"]
        # Every port shares the one head; only its value modulo the
        # port count matters, so it restores the rotation counter.
        self._rotations = arbiters[self.ports[0]]["head"]
        self._grants = [arbiters[port]["grants"] for port in self.ports]

    def __repr__(self) -> str:
        return f"Router(node={self.node_id}, occupancy={self.occupancy})"
