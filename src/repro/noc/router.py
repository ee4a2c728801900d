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
from repro.noc.arbiter import RotatingPriorityArbiter
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
        self._arbiters: dict[PortKey, RotatingPriorityArbiter] = {
            port: RotatingPriorityArbiter(len(self.ports))
            for port in self.ports}
        # The switch stage's view: everything indexed by port position.
        self._port_index = {port: i for i, port in enumerate(self.ports)}
        self._input_list = list(self.inputs.values())
        self._output_list = list(self.outputs.values())
        self._arbiter_list = list(self._arbiters.values())
        self._rates = [local_rate if port in LOCAL_PORTS else 1
                       for port in self.ports]
        self._max_port_rate = max(self._rates)
        # Route table: destination -> output port index, one dict for
        # data packets and one for write-backs, filled from ``route``.
        self._routes: tuple[dict[int, int], dict[int, int]] = ({}, {})
        # Arbiter heads rotate every cycle even when the router is idle
        # (§III-C).  Idle rotations are batched into this counter and
        # flushed lazily before the next real arbitration, which keeps
        # the per-cycle cost of an empty router at one integer add.
        self._pending_rotations = 0
        self.switched_packets = 0

    def advance_idle(self, cycles: int) -> None:
        """Account ``cycles`` idle cycles of arbiter rotation at once."""
        self._pending_rotations += cycles

    def _flush_rotations(self) -> None:
        if self._pending_rotations:
            for arbiter in self._arbiter_list:
                arbiter.advance(self._pending_rotations)
            self._pending_rotations = 0

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

        Returns the number of packets moved.  For every output port, the
        requesting input heads are arbitrated and the winner's head packet
        moves iff the output buffer has a credit.  Link ports move at most
        one packet per cycle; local ports up to ``local_rate``, realised
        as repeated arbitration rounds.
        """
        inputs = self._input_list
        # Only inputs holding a packet now can request this cycle: the
        # switch pops inputs but never fills them.
        active = [index for index, buffer in enumerate(inputs)
                  if not buffer.empty]
        if not active:
            self._pending_rotations += 1
            return 0
        self._flush_rotations()
        outputs = self._output_list
        arbiters = self._arbiter_list
        rates = self._rates
        routes = self._routes
        supplied = [0] * len(inputs)
        accepted = [0] * len(inputs)
        moved = 0
        for _ in range(self._max_port_rate):
            # Gather, per output port, the inputs whose head wants it;
            # each list is ascending, as grant_sorted needs.
            wants: dict[int, list[int]] = {}
            for index in active:
                buffer = inputs[index]
                if buffer.empty or supplied[index] >= rates[index]:
                    continue
                packet = buffer.peek()
                out = routes[packet.kind is _WRITEBACK].get(packet.dst)
                if out is None:
                    out = self._fill_route(packet)
                requesters = wants.get(out)
                if requesters is None:
                    wants[out] = [index]
                else:
                    requesters.append(index)
            any_move = False
            for out, requesters in wants.items():
                output = outputs[out]
                if accepted[out] >= rates[out] or not output.has_space:
                    continue
                winner = arbiters[out].grant_sorted(requesters)
                output.push(inputs[winner].pop())
                supplied[winner] += 1
                accepted[out] += 1
                moved += 1
                any_move = True
            if not any_move:
                break
        for arbiter in arbiters:
            arbiter.rotate()
        self.switched_packets += moved
        return moved

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
        """Picklable snapshot: buffers, arbiters, pending rotations."""
        return {
            "inputs": {port: b.state_dict()
                       for port, b in self.inputs.items()},
            "outputs": {port: b.state_dict()
                        for port, b in self.outputs.items()},
            "arbiters": {port: a.state_dict()
                         for port, a in self._arbiters.items()},
            "pending_rotations": self._pending_rotations,
            "switched_packets": self.switched_packets,
        }

    def load_state(self, state: dict) -> None:
        for port, payload in state["inputs"].items():
            self.inputs[port].load_state(payload)
        for port, payload in state["outputs"].items():
            self.outputs[port].load_state(payload)
        for port, payload in state["arbiters"].items():
            self._arbiters[port].load_state(payload)
        self._pending_rotations = state["pending_rotations"]
        self.switched_packets = state["switched_packets"]

    def __repr__(self) -> str:
        return f"Router(node={self.node_id}, occupancy={self.occupancy})"
