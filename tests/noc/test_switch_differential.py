"""The single-pass switch against a per-output daisy-chain arbiter.

:meth:`Router.switch` visits the active inputs once per round in
daisy-chain order from the head.  The reference below arbitrates the
way §III-C describes it instead: per output port, gather the requesting
inputs and grant the first one at or after the head, wrapping once.
Seeded random router states — 2 to 6 active inputs, rate-2 local and
rate-1 link ports, full and nearly full outputs, every head position and
rotation counts that wrap past the port count — must move the same
packets, grant the same ports and report the same link moves.
"""

from __future__ import annotations

import random

import pytest

from repro.noc import Packet, PacketKind, Port
from repro.noc.router import Router

LINK_PORTS = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)
KINDS = (PacketKind.WEIGHT, PacketKind.STATE, PacketKind.WRITEBACK)


def reference_switch(router: Router) -> dict:
    """Per-output daisy-chain arbitration on copies of ``router``'s
    buffers; returns what one switch cycle would leave behind."""
    ports = router.ports
    n = len(ports)
    head = router.state_dict()["arbiters"][ports[0]]["head"] % n
    depth = router.inputs[ports[0]].depth
    rates = [router.local_rate if port in (Port.PE, Port.MEM) else 1
             for port in ports]
    inputs = [list(router.inputs[port].fifo) for port in ports]
    outputs = [list(router.outputs[port].fifo) for port in ports]
    supplied = [0] * n
    accepted = [0] * n
    grants = [0] * n
    moved = link_moves = 0
    for _ in range(max(rates)):
        requests: dict[int, list[int]] = {}
        for index in range(n):
            if inputs[index] and supplied[index] < rates[index]:
                out = ports.index(router.route(inputs[index][0]))
                requests.setdefault(out, []).append(index)
        progress = False
        for out, requesters in requests.items():
            if accepted[out] >= rates[out] or len(outputs[out]) >= depth:
                continue
            winner = min(requesters, key=lambda index: (index - head) % n)
            outputs[out].append(inputs[winner].pop(0))
            supplied[winner] += 1
            accepted[out] += 1
            grants[out] += 1
            moved += 1
            if ports[out] not in (Port.PE, Port.MEM):
                link_moves += 1
            progress = True
        if not progress:
            break
    return {"moved": moved, "inputs": inputs, "outputs": outputs,
            "grants": grants, "link_moves": link_moves if moved else None}


def observed_switch(router: Router) -> dict:
    moved = router.switch()
    ports = router.ports
    arbiters = router.state_dict()["arbiters"]
    return {"moved": moved,
            "inputs": [list(router.inputs[port].fifo) for port in ports],
            "outputs": [list(router.outputs[port].fifo) for port in ports],
            "grants": [arbiters[port]["grants"] for port in ports],
            "link_moves": router.link_moves if moved else None}


def random_state(rng: random.Random):
    """A router description: link ports, route map, buffer contents."""
    links = rng.sample(LINK_PORTS, rng.randint(1, 4))
    ports = links + [Port.PE, Port.MEM]
    depth = rng.choice((2, 3, 4))
    n_dst = rng.randint(2, 8)
    routes = {(dst, writeback): rng.choice(ports)
              for dst in range(n_dst) for writeback in (False, True)}
    serial = iter(range(10_000))

    def fresh() -> Packet:
        return Packet(src=0, dst=rng.randrange(n_dst),
                      mac_id=0, op_id=next(serial), kind=rng.choice(KINDS))

    active = rng.sample(ports, rng.randint(2, min(6, len(ports))))
    inputs = {port: [fresh() for _ in range(rng.randint(1, depth))]
              for port in active}
    outputs = {}
    for port in ports:
        fill = rng.choice((0, 0, depth - 1, depth, depth,
                           rng.randint(0, depth)))
        outputs[port] = [fresh() for _ in range(fill)]
    return links, routes, depth, inputs, outputs


def build(links, routes, depth, inputs, outputs, rotations) -> Router:
    router = Router(0, list(links),
                    lambda pkt: routes[(pkt.dst,
                                        pkt.kind is PacketKind.WRITEBACK)],
                    buffer_depth=depth, local_rate=2)
    for port, packets in inputs.items():
        router.inputs[port].fifo.extend(packets)
    for port, packets in outputs.items():
        router.outputs[port].fifo.extend(packets)
    router.advance_idle(rotations)
    return router


@pytest.mark.parametrize("seed", range(150))
def test_single_pass_switch_equals_per_output_arbiter(seed):
    rng = random.Random(seed)
    state = random_state(rng)
    n_ports = len(state[0]) + 2
    # Every head position, then the same heads reached after wrapping
    # past the port count once or more.
    for rotations in range(3 * n_ports):
        expected = reference_switch(build(*state, rotations))
        observed = observed_switch(build(*state, rotations))
        assert observed == expected, (seed, rotations)


def test_states_cover_the_cases():
    """The seeded states include contention, full outputs and local
    ports moving two packets in one cycle."""
    contended = blocked = double = 0
    for seed in range(150):
        state = random_state(random.Random(seed))
        links, routes, depth, inputs, outputs = state
        wanted = [routes[(queue[0].dst,
                          queue[0].kind is PacketKind.WRITEBACK)]
                  for queue in inputs.values()]
        contended += len(set(wanted)) < len(wanted)
        blocked += any(len(outputs[port]) >= depth for port in wanted)
        result = reference_switch(build(*state, 0))
        double += any(grants >= 2 for grants in result["grants"])
    assert contended and blocked and double
