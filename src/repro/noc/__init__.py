"""Network-on-chip substrate.

Cycle-level model of the paper's 2D-mesh NoC (§III-C): one router per PE,
six input and six output channels (four neighbours + PE + memory),
16-deep packet buffers, credit-based (backpressure) flow control,
deterministic X-Y table routing, and rotating daisy-chain priority
arbitration updated every cycle.  A fully connected topology (Fig. 6b) is
provided for the Fig. 15b study.
"""

from repro.noc.packet import Packet, PacketKind, FLIT_BITS
from repro.noc.buffer import CreditedBuffer
from repro.noc.routing import LOCAL_PORTS, Port
from repro.noc.router import Router
from repro.noc.topology import FullyConnected, Mesh2D, Topology
from repro.noc.interconnect import Interconnect, NocStats
from repro.noc.cubelink import CubeLinkModel, CubeLinkStats

__all__ = [
    "Packet",
    "PacketKind",
    "FLIT_BITS",
    "CreditedBuffer",
    "Port",
    "LOCAL_PORTS",
    "Router",
    "Topology",
    "Mesh2D",
    "FullyConnected",
    "Interconnect",
    "NocStats",
    "CubeLinkModel",
    "CubeLinkStats",
]
