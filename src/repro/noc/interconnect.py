"""The assembled NoC: routers + links + injection/ejection interfaces.

One :class:`Interconnect` owns a router per node, wires their directional
ports per the topology, and steps the whole fabric one cycle at a time:
link stage first (output buffer -> downstream input buffer, one packet per
link per cycle, credit checked), then switch stage inside every router.
A packet therefore spends at least two cycles per router it crosses,
modelling the switch+link pipeline.  The link stage runs only while
:attr:`Interconnect.link_resident` counts a packet in some link-port
output buffer.

Injection: the vault-side PNG pushes packets into its router's MEM input
buffer; a PE pushes write-backs into the PE input buffer.  Ejection is the
mirror image from the output buffers.  The PNG and PE hold their local
buffers directly (bound once at construction), counting each push into
``stats.injected`` and each pop through :meth:`Interconnect.record_delivery`;
:meth:`Interconnect.inject` and :meth:`Interconnect.eject` are the same
operations addressed by node and port.

:class:`FoldedInterconnect` is the fabric of a pass simulated one node
slice per timing class: only the representatives have routers, no links
join them, and each delivery counts once per slice its node stands for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial

from repro.errors import ConfigurationError, SimulationError
from repro.noc.buffer import DEFAULT_DEPTH
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.routing import Port, PortKey
from repro.noc.topology import Topology


@dataclass
class NocStats:
    """Aggregate interconnect statistics.

    Attributes:
        injected: packets accepted into the fabric.
        delivered: packets ejected at their destination.
        lateral: delivered packets whose source node differed from the
            destination node (they crossed at least one link).
        link_traversals: total link-stage moves.
        total_latency: sum over delivered packets of (eject - inject)
            cycles, for mean-latency reporting.
        rejected_injections: injection attempts bounced for lack of space.
        dropped: packets permanently lost in the fabric (link retry
            budget exhausted under fault injection; always 0 otherwise).
    """

    injected: int = 0
    delivered: int = 0
    lateral: int = 0
    link_traversals: int = 0
    total_latency: int = 0
    rejected_injections: int = 0
    dropped: int = 0
    _cycle: int = field(default=0, repr=False)

    @property
    def lateral_fraction(self) -> float:
        """Fraction of delivered packets that crossed the mesh."""
        return self.lateral / self.delivered if self.delivered else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean inject-to-eject latency in cycles."""
        return (self.total_latency / self.delivered
                if self.delivered else 0.0)


#: The :class:`NocStats` counters, each a sum over cycles.
_NOC_COUNTERS = tuple(stat.name for stat in fields(NocStats)
                      if not stat.name.startswith("_"))


class Interconnect:
    """A steppable NoC instance over an arbitrary :class:`Topology`."""

    #: Whether two inputs may request one output, so that the
    #: arbiters' head decides grants (:meth:`timing_signature`).
    _contended = True

    #: Whether packets may cross links between nodes, so that the
    #: fabric wires its routers together.
    _linked = True

    def __init__(self, topology: Topology,
                 buffer_depth: int = DEFAULT_DEPTH,
                 local_rate: int = 2, tracer=None,
                 injector=None) -> None:
        self.topology = topology
        self.cycle = 0
        self.local_rate = local_rate
        self.tracer = tracer
        # Optional repro.faults.FaultInjector.  The faulted link stage
        # only replaces the plain one when link fault rates are nonzero,
        # so a rate-0 injector leaves the cycle behaviour untouched.
        self.injector = injector
        self._links_faulted = (injector is not None
                               and injector.noc_active)
        self.stats = NocStats()
        # Each router fills its route table from the topology's routing
        # function (the one definition nccheck's NC205 walk also uses).
        # A node the fabric does not simulate has no router (None).
        self.routers: list[Router | None] = [None] * topology.n_nodes
        for node in self._simulated_nodes():
            self.routers[node] = Router(
                node, topology.link_ports(node),
                partial(topology.next_port, node), buffer_depth,
                local_rate=local_rate)
        # The routers each cycle switches: every one that was built.
        self._switching = [router for router in self.routers
                           if router is not None]
        # Precompute link hookups: (node, out port) -> (node, in port).
        self._links: list[tuple[Router, PortKey, Router, PortKey]] = []
        for router in self._switching if self._linked else ():
            for port in topology.link_ports(router.node_id):
                target, in_port = topology.link_target(router.node_id, port)
                self._links.append(
                    (router, port, self.routers[target], in_port))
        # The link stage only needs the two buffers of each link; binding
        # them once keeps the per-cycle loop free of dict lookups.
        self._link_buffers = [
            (src.outputs[out_port], dst.inputs[in_port])
            for src, out_port, dst, in_port in self._links]
        self._link_labels = [
            f"{src.node_id}->{dst.node_id}"
            for src, _, dst, _ in self._links]
        # The plain link stage tests the two FIFOs and pushes into the
        # target buffer (buffer depth is uniform across the fabric).
        self._link_fifos = [
            (output.fifo, target.fifo, target)
            for output, target in self._link_buffers]
        self._depth = buffer_depth
        # Packets sitting in link-port output buffers.  Only the switch
        # stage fills those buffers and only the link stage drains them,
        # so the count is kept where they move; at zero the link stage
        # has nothing to do and is skipped.
        self.link_resident = 0
        # Link retry protocol state (fault injection only): per link,
        # retransmissions already consumed by the head packet, and the
        # cycle its next transmission attempt is allowed (backoff).
        self._link_retries = [0] * len(self._links)
        self._link_blocked_until = [0] * len(self._links)

    def _simulated_nodes(self) -> range | list[int]:
        """The nodes whose routers the fabric builds: every node."""
        return range(self.topology.n_nodes)

    # ------------------------------------------------------------------
    # edge interfaces
    # ------------------------------------------------------------------

    def can_inject(self, node: int, port: Port = Port.MEM) -> bool:
        """Credit check for an injection at ``node``'s local ``port``."""
        return self.routers[node].inputs[port].has_space

    def inject(self, node: int, packet: Packet,
               port: Port = Port.MEM) -> bool:
        """Push a packet into the fabric; False when the buffer is full."""
        if port not in (Port.MEM, Port.PE):
            raise ConfigurationError(
                f"injection must use a local port, got {port}")
        buffer = self.routers[node].inputs[port]
        if not buffer.has_space:
            self.stats.rejected_injections += 1
            return False
        buffer.push(packet)
        self.stats.injected += 1
        return True

    def eject(self, node: int, port: Port = Port.PE,
              limit: int | None = None) -> list[Packet]:
        """Drain up to ``limit`` packets delivered at ``node``'s ``port``."""
        if port not in (Port.MEM, Port.PE):
            raise ConfigurationError(
                f"ejection must use a local port, got {port}")
        fifo = self.routers[node].outputs[port].fifo
        out: list[Packet] = []
        while fifo and (limit is None or len(out) < limit):
            packet = fifo.popleft()
            out.append(packet)
            self.record_delivery(node, packet)
        return out

    def record_delivery(self, node: int, packet: Packet) -> None:
        """Account one packet just popped from ``node``'s local output.

        :meth:`eject` calls this per packet; a PE that pops its own
        bound output buffer calls it directly, so every delivery is
        counted in one place.
        """
        stats = self.stats
        stats.delivered += 1
        if packet.src != node:
            stats.lateral += 1
        latency = self.cycle - packet.inject_cycle
        stats.total_latency += latency
        if self.tracer is not None:
            self.tracer.packet_delivered(self.cycle, node, latency, packet)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def next_event_delta(self) -> int | None:
        """Cycles until the fabric next does visible work.

        The event-horizon scheduler's per-agent contract: 1 while any
        packet is resident (a resident packet can move on the very next
        link/switch stage, so the fabric must be stepped every cycle),
        None when the fabric is empty — an empty fabric only rotates
        arbiter priorities, which :meth:`skip` batches exactly.
        """
        return 1 if self.in_fabric else None

    def step(self) -> None:
        """Advance the fabric one cycle: link stage, then switch stage."""
        self.cycle += 1
        if not self.in_fabric:
            # Empty fabric: the link loop cannot move anything and every
            # switch would only advance its router's rotation counter.
            for router in self._switching:
                router.advance_idle(1)
            return
        if self.link_resident:
            if self._links_faulted:
                self._step_links_faulted()
            else:
                self._step_links()
        resident = self.link_resident
        for router in self._switching:
            if router.switch():
                resident += router.link_moves
        self.link_resident = resident

    def _step_links(self) -> None:
        """One fault-free link-stage cycle: each link moves its output
        head into the downstream input when that input has a credit."""
        depth = self._depth
        moved = 0
        if self.tracer is None:
            # Hook-free hot path: the traced loop below is identical but
            # pays a label lookup per move, which the untraced fabric
            # must not.
            for output, target_fifo, target in self._link_fifos:
                if output and len(target_fifo) < depth:
                    target.push(output.popleft())
                    moved += 1
        else:
            for label, (output, target_fifo, target) in zip(
                    self._link_labels, self._link_fifos, strict=True):
                if output and len(target_fifo) < depth:
                    target.push(output.popleft())
                    moved += 1
                    self.tracer.noc_hop(self.cycle, label)
        self.link_resident -= moved
        self.stats.link_traversals += moved

    def _step_links_faulted(self) -> None:
        """One link-stage cycle under the CRC/retry/timeout protocol.

        Per link and cycle, at most one transmission attempt; the fault
        RNG keys each attempt by (link index, cycle), so retransmissions
        on later cycles draw independently.  A corrupted flit is caught
        by the receiver's CRC check (when the packet is stamped) and a
        dropped flit by the sender's ack timeout; both leave the packet
        at the head of the upstream buffer and schedule a retransmission
        after exponential backoff.  A packet that exhausts its retry
        budget is removed and recorded on the injector's loss ledger —
        the fabric degrades instead of wedging.
        """
        injector = self.injector
        config = injector.config
        for index, (output, target) in enumerate(self._link_buffers):
            if output.empty or not target.has_space:
                continue
            if self.cycle < self._link_blocked_until[index]:
                continue
            fault = injector.link_fault(index, self.cycle)
            if fault is None:
                target.push(output.pop())
                self.link_resident -= 1
                self.stats.link_traversals += 1
                self._link_retries[index] = 0
                if self.tracer is not None:
                    self.tracer.noc_hop(self.cycle,
                                        self._link_labels[index])
                continue
            label = self._link_labels[index]
            packet = output.peek()
            if fault == "corrupt":
                injector.stats.link_corruptions += 1
                corrupted = replace(
                    packet, payload=injector.corrupt_payload(
                        index, self.cycle, packet.payload))
                if corrupted.crc_ok():
                    # No CRC stamp (crc=False): the corruption is
                    # undetectable and the damaged payload propagates.
                    target.push(corrupted)
                    output.pop()
                    self.link_resident -= 1
                    self.stats.link_traversals += 1
                    injector.stats.link_silent_corruptions += 1
                    self._link_retries[index] = 0
                    if self.tracer is not None:
                        self.tracer.fault_inject(
                            self.cycle, "noc.silent_corrupt",
                            f"noc/{label}", {"op": packet.op_id})
                    continue
            else:
                injector.stats.link_drops += 1
            # Detected failure: corrupt caught by the receiver CRC, drop
            # by the sender's ack timeout (one extra backoff period).
            consumed = self._link_retries[index]
            if consumed >= config.max_retries:
                output.pop()
                self.link_resident -= 1
                self.stats.dropped += 1
                self._link_retries[index] = 0
                injector.record_loss(self.cycle, packet, label)
                if self.tracer is not None:
                    self.tracer.noc_retry(self.cycle, label,
                                          {"op": packet.op_id,
                                           "outcome": "lost",
                                           "retries": consumed})
                continue
            self._link_retries[index] = consumed + 1
            injector.stats.retries += 1
            backoff = config.retry_backoff * (2 ** consumed)
            if fault == "drop":
                backoff += config.retry_backoff
            self._link_blocked_until[index] = self.cycle + backoff
            if self.tracer is not None:
                self.tracer.noc_retry(self.cycle, label,
                                      {"op": packet.op_id,
                                       "outcome": fault,
                                       "retry": consumed + 1,
                                       "backoff": backoff})

    def skip(self, cycles: int) -> None:
        """Advance ``cycles`` empty-fabric cycles at once.

        Only legal while :attr:`in_fabric` is zero: the clock moves, the
        arbiter priority heads rotate (they rotate every cycle, idle or
        not), and nothing else can change.  Used by the simulator's
        quiescence skip-ahead.
        """
        if self.in_fabric:
            raise SimulationError(
                f"skip({cycles}) with {self.in_fabric} packets in flight")
        self.cycle += cycles
        for router in self._switching:
            router.advance_idle(cycles)

    #: :meth:`state_dict` entries :meth:`timing_signature` leaves out.
    SIGNATURE_EXEMPT = {
        "cycle": "position: the clock the signature is relative to",
        "stats": "statistics: a jump adds their per-period gain",
        "link_retries": "faults: only an injector's link stage "
                        "writes it",
        "link_blocked_until": "faults: only an injector's link stage "
                              "writes it",
    }

    def timing_signature(self, ops: dict[int, int]) -> dict:
        """The fabric's timing state, keyed like :meth:`state_dict`:
        the values of each switching router's
        :meth:`Router.timing_signature` relative to the clock and to
        ``ops[node]``, the operation of the PE at its node (without
        the arbiters' head where no grant is ever contended)."""
        cycle = self.cycle
        routers = []
        for router in self._switching:
            signature = router.timing_signature(cycle, ops[router.node_id])
            if not self._contended:
                del signature["arbiters"]
            routers.append(tuple(signature.values()))
        return {"routers": tuple(routers)}

    def counters(self) -> tuple:
        """The statistics, then each switching router's grant counts,
        in :meth:`fast_forward`'s order."""
        return (tuple(getattr(self.stats, name) for name in _NOC_COUNTERS),
                tuple(router.counters() for router in self._switching))

    def fast_forward(self, cycles: int, ops: int, gained: tuple) -> None:
        """Jump ``cycles`` cycles and ``ops`` operations ahead, as whole
        periods of a steady state would: the clock advances, each
        switching router fast-forwards (:meth:`Router.fast_forward`),
        and ``gained`` adds to :meth:`counters`."""
        self.cycle += cycles
        stats_gained, router_gained = gained
        for name, gain in zip(_NOC_COUNTERS, stats_gained, strict=True):
            setattr(self.stats, name, getattr(self.stats, name) + gain)
        for router, gain in zip(self._switching, router_gained,
                                strict=True):
            router.fast_forward(cycles, ops, gain)

    @property
    def in_fabric(self) -> int:
        """Packets currently inside the fabric, O(1).

        Every packet entering a local input is counted in
        ``stats.injected`` and every packet leaving a local output in
        ``stats.delivered`` (:meth:`record_delivery`) — or, under fault
        injection, in ``stats.dropped`` when lost — so the counter
        difference is the live population (equal to :attr:`occupancy`,
        without walking buffers).
        """
        return (self.stats.injected - self.stats.delivered
                - self.stats.dropped)

    def retry_diagnostics(self) -> list[str]:
        """Human-readable pending retry/backoff state, for stall reports.

        Lets a fault-induced stall be distinguished from a plan bug: a
        link mid-backoff or a recorded permanent loss shows up here.
        """
        lines: list[str] = []
        for index, label in enumerate(self._link_labels):
            retries = self._link_retries[index]
            blocked = self._link_blocked_until[index]
            if retries or blocked > self.cycle:
                head = (repr(self._link_buffers[index][0].peek())
                        if not self._link_buffers[index][0].empty
                        else "<empty>")
                lines.append(
                    f"link {label}: retries={retries} "
                    f"blocked_until={blocked} head={head}")
        if self.injector is not None:
            lines.extend(f"lost: {loss.describe()}"
                         for loss in self.injector.pending_losses())
        return lines

    def state_dict(self) -> dict:
        """Picklable snapshot of the whole fabric for checkpointing."""
        return {
            "cycle": self.cycle,
            "stats": replace(self.stats),
            "routers": [router.state_dict() for router in self._switching],
            "link_retries": list(self._link_retries),
            "link_blocked_until": list(self._link_blocked_until),
        }

    def load_state(self, state: dict) -> None:
        self.cycle = state["cycle"]
        self.stats = replace(state["stats"])
        for router, payload in zip(self._switching, state["routers"],
                                   strict=True):
            router.load_state(payload)
        self._link_retries = list(state["link_retries"])
        self._link_blocked_until = list(state["link_blocked_until"])
        self.link_resident = sum(len(output.fifo)
                                 for output, _ in self._link_buffers)

    @property
    def busy(self) -> bool:
        """True while any packet is resident in any router."""
        return any(router.busy for router in self._switching)

    @property
    def occupancy(self) -> int:
        """Total packets currently inside the fabric."""
        return sum(router.occupancy for router in self._switching)

    def link_occupancies(self) -> list[tuple[str, int]]:
        """Per-link buffered packets: upstream output + downstream input.

        Used by the trace counter sampler for the per-link occupancy
        time series; the label matches the ``noc/<src>-><dst>`` tracks
        of the hop events.
        """
        return [(label, out.occupancy + inp.occupancy)
                for label, (out, inp) in zip(self._link_labels,
                                             self._link_buffers,
                                             strict=True)]

    def __repr__(self) -> str:
        return (f"Interconnect({self.topology!r}, cycle={self.cycle}, "
                f"occupancy={self.occupancy})")


class FoldedInterconnect(Interconnect):
    """The fabric of a pass that simulates one slice per timing class.

    ``weights[node]`` is how many identical node slices ``node`` stands
    for, 0 for a node that is not simulated.  Only the weighted nodes
    get routers (:attr:`routers` holds None at the others), and no
    links join them: the caller folds only passes whose traffic is
    local, and a packet that leaves its node anyway raises
    :class:`~repro.errors.SimulationError` at the link stage, so the
    pass re-runs in full.  Each packet delivered at a node counts
    ``weights[node]`` times in the delivered, lateral and latency
    totals, so the statistics equal the full fabric's.  ``injected``
    takes the members' copies of a packet when it is delivered, which
    keeps :attr:`in_fabric` the count of packets actually resident, and
    ``injected == delivered`` once the pass ends.  A folded pass runs
    hook-free, so deliveries emit no trace events.
    """

    #: Every packet stays in its node: data goes from the MEM input to
    #: the PE output, write-backs from the PE input to the MEM output.
    #: No output ever has two requesters, so the arbiters' rotating head
    #: never decides a grant.
    _contended = False
    _linked = False

    def __init__(self, topology: Topology, weights: list[int],
                 **kwargs) -> None:
        self._weights = weights
        super().__init__(topology, **kwargs)

    def _simulated_nodes(self) -> list[int]:
        return [node for node, weight in enumerate(self._weights)
                if weight]

    def _step_links(self) -> None:
        raise SimulationError(
            f"folded pass: {self.link_resident} packets left their node "
            f"at cycle {self.cycle}")

    def record_delivery(self, node: int, packet: Packet) -> None:
        weight = self._weights[node]
        stats = self.stats
        stats.injected += weight - 1
        stats.delivered += weight
        if packet.src != node:
            stats.lateral += weight
        stats.total_latency += weight * (self.cycle - packet.inject_cycle)
