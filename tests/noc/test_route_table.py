"""Router route tables against the topology's routing function.

Each router switches packets through a destination -> output-port table
filled from :meth:`Topology.next_port`, the same function nccheck's
NC205 route walk follows.  These tests keep the two on one definition
of routing: for every (node, destination, kind) the table must answer
exactly what ``next_port`` answers, on first use and on every later
lookup.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.noc import FullyConnected, Interconnect, Mesh2D, Packet, PacketKind
from repro.noc.router import Router
from repro.noc.routing import Port

TOPOLOGIES = [Mesh2D(4, 4), Mesh2D(2, 8), Mesh2D(1, 1),
              FullyConnected(4), FullyConnected(16)]


def _switched_to(router, packet):
    """Switch one packet through an otherwise empty router; return the
    output port it landed in."""
    router.inputs[Port.MEM].push(packet)
    assert router.switch() == 1
    landed = [port for port, buffer in router.outputs.items()
              if not buffer.empty]
    assert len(landed) == 1
    router.outputs[landed[0]].pop()
    return landed[0]


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=repr)
def test_route_table_matches_next_port(topology):
    fabric = Interconnect(topology)
    for router in fabric.routers:
        node = router.node_id
        for _ in range(2):  # first lookup fills the table, second reads it
            for dst in range(topology.n_nodes):
                for kind in PacketKind:
                    probe = Packet(src=node, dst=dst, mac_id=0, op_id=0,
                                   kind=kind)
                    assert (_switched_to(router, probe)
                            == topology.next_port(node, probe)), (
                        node, dst, kind)


def test_unknown_port_raises():
    router = Router(0, [Port.EAST, Port.WEST], lambda packet: Port.NORTH)
    router.inputs[Port.MEM].push(
        Packet(src=0, dst=1, mac_id=0, op_id=0, kind=PacketKind.STATE))
    with pytest.raises(SimulationError, match="unknown port"):
        router.switch()
