"""NoC packet format (paper §V-B, Fig. 11a).

Each packet carries one 16-bit data item plus routing and sequencing
metadata: 4-bit source vault, 4-bit destination PE, 4-bit MAC-ID and
8-bit OP-ID — 36 bits, matching the router datapath width in Table II.
A 32-bit DRAM word is therefore encapsulated into two packets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Router datapath / flit width in bits (Table II "Router" row).
FLIT_BITS = 36

#: CRC-8/ATM generator polynomial (x^8 + x^2 + x + 1).
CRC8_POLY = 0x07


class PacketKind(enum.Enum):
    """What a packet's payload means to the receiving PE or PNG."""

    #: a synaptic weight headed for a MAC's temporal-buffer weight slot.
    WEIGHT = "weight"
    #: a neuron state (input pixel) headed for a MAC's state slot.
    STATE = "state"
    #: a computed output state returning from a PE to its home PNG.
    WRITEBACK = "writeback"


#: Stable 2-bit wire encoding of the packet kind for the CRC input.
_KIND_CODE = {PacketKind.WEIGHT: 0, PacketKind.STATE: 1,
              PacketKind.WRITEBACK: 2}


def packet_crc(src: int, dst: int, mac_id: int, op_id: int,
               kind: PacketKind, payload: int) -> int:
    """CRC-8 over a packet's wire fields (header + 16-bit payload).

    Used by the fault-injection link protocol: the sender stamps the
    packet at creation, the receiving link port recomputes and compares.
    CRC-8 detects every single-bit payload corruption, so with
    ``crc=True`` a corrupted flit always turns into a retry rather than
    silent data corruption.
    """
    data = bytes((src & 0xF, dst & 0xF, mac_id & 0xF, op_id & 0xFF,
                  _KIND_CODE[kind], (payload >> 8) & 0xFF,
                  payload & 0xFF))
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ CRC8_POLY if crc & 0x80
                   else crc << 1) & 0xFF
    return crc


@dataclass(slots=True)
class Packet:
    """One 36-bit NoC packet.

    Packets are never changed after construction: a link corruption
    builds a damaged copy with :func:`dataclasses.replace`.  The class
    is not ``frozen`` only because a frozen dataclass pays an
    ``object.__setattr__`` per field on construction, and the PNG and
    PE build one packet per streamed item and write-back.

    Attributes:
        src: source vault id (4 bits in hardware).
        dst: destination PE id.
        mac_id: target MAC within the PE (4 bits).
        op_id: sequence number of the operation this item feeds, modulo
            256 (8 bits in hardware; stored un-wrapped here with
            :meth:`op_id_field` giving the wire value).
        kind: weight / state / writeback.
        payload: raw 16-bit fixed-point value.
        neuron: opaque tag identifying the output neuron (functional mode
            bookkeeping; not a hardware field).
        inject_cycle: cycle the packet entered the NoC (for latency stats).
        crc: CRC-8 stamp over the wire fields (:func:`packet_crc`), or
            None when the link CRC protocol is off.  Stamped at packet
            creation; a link corruption flips payload bits *without*
            restamping, which is exactly what the receiver detects.
    """

    src: int
    dst: int
    mac_id: int
    op_id: int
    kind: PacketKind
    payload: int = 0
    neuron: object = None
    inject_cycle: int = 0
    crc: int | None = None

    def crc_ok(self) -> bool:
        """Recompute the CRC and compare (True when unstamped)."""
        if self.crc is None:
            return True
        return self.crc == packet_crc(self.src, self.dst, self.mac_id,
                                      self.op_id_field, self.kind,
                                      self.payload)

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ConfigurationError(
                f"packet ids must be non-negative: src={self.src}, "
                f"dst={self.dst}")
        if self.mac_id < 0:
            raise ConfigurationError(f"negative mac_id {self.mac_id}")
        if self.op_id < 0:
            raise ConfigurationError(f"negative op_id {self.op_id}")

    def timing_key(self, op: int, cycle: int) -> tuple:
        """The packet as a steady-state signature sees it: OP-ID
        relative to operation ``op``, MAC-ID, kind, source, destination
        and age at ``cycle``.  Payload and neuron tag are data."""
        return (self.op_id - op, self.mac_id, self.kind, self.src,
                self.dst, self.inject_cycle - cycle)

    def shifted(self, ops: int, cycles: int) -> Packet:
        """A copy ``ops`` operations and ``cycles`` cycles later (a
        steady-state jump moves every packet in flight this way)."""
        return Packet(self.src, self.dst, self.mac_id, self.op_id + ops,
                      self.kind, self.payload, self.neuron,
                      self.inject_cycle + cycles, self.crc)

    @property
    def op_id_field(self) -> int:
        """The 8-bit wire encoding of the OP-ID (§V-B: modulo 256)."""
        return self.op_id % 256

    @property
    def flits(self) -> int:
        """Packet length in flits; the 36-bit format is single-flit."""
        return 1

    def __repr__(self) -> str:
        return (f"Packet({self.kind.value} {self.src}->{self.dst} "
                f"mac={self.mac_id} op={self.op_id})")
