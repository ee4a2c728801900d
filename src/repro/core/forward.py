"""Fast-forward a folded pass through its periodic steady state.

The paper's PNG is three nested counters (neurons x connections x MACs,
§IV-C) and the vault model ignores addresses, so inside a neuron group a
pass whose node slices are fed at a steady rate repeats one timing state
from operation to operation.  :class:`SteadyState` looks at a pass each
time an OP-counter advances.  It takes the joint timing signature of
every simulated agent (``timing_signature`` of each PE, PNG, vault and
the fabric, relative to the clock and to the PEs' OP-counters), and
when one repeats, with period P cycles and Δ operations, it jumps k
whole periods at once.  This extends the event-horizon
``next_event_delta()``/``skip(n)`` contract from idle spans to periodic
ones.

A jump is exact for timing.  Equal signatures mean that k periods later
the pass is in the state it is in now, moved k·P cycles and k·Δ
operations on, provided that the records met on the way are the same
ones k·Δ operations on.  So k keeps every PE inside its neuron group and
every PNG's look-ahead inside that group's records, and no write-back
falls inside a jump.  Each additive statistic gains k times its gain
over the period; peaks stay what they are.  Only timing is
extrapolated, not the MAC accumulators, so a forwarded pass carrying
data takes its representatives' write-backs from
:func:`repro.core.fold.unfold`, as their class members already do.

It runs where folding runs (``sim_memoize``, no tracer, fault injector
or checkpoint), and only with ``sim_skip_ahead``.  Jumps do not cross
neuron groups.
"""

from __future__ import annotations

#: Looks kept per neuron group (brief forms and full signatures)
#: before the group is given up.  A steady state shows within a few
#: operations once the pipeline has filled, about one emission window
#: (16 operations at the paper's point).
_MAX_SEEN = 128


def _gain(now, then, periods: int):
    """``periods`` times the growth from ``then`` to ``now``, counter by
    counter through nested tuples."""
    if isinstance(now, tuple):
        return tuple(_gain(a, b, periods)
                     for a, b in zip(now, then, strict=True))
    return periods * (now - then)


def _unchanged(address: int, tag: object) -> tuple[int, object]:
    return address, tag


class SteadyState:
    """The repeat detector and jump of one folded pass.

    Args:
        pngs: the simulated slices' PNGs (each with its vault).
        pes: the PE at each PNG's node, in the same order.
        interconnect: the pass's fabric.

    The pass is looked at once per operation of its first unfinished
    PE.  A look is kept for the current neuron groups only, at most
    ``_MAX_SEEN`` of them, and none is taken once the groups have too
    few operations left to hold a jump, nor in later groups before the
    point of its group where the first repeat began.
    """

    def __init__(self, pngs, pes, interconnect) -> None:
        self._slices = [(png, png.vault, pe)
                        for png, pe in zip(pngs, pes, strict=True)]
        self._interconnect = interconnect
        # The first unfinished PE: the pass is looked at once per
        # operation of it (a repeat recurs at its advances too).
        self._lead = next((pe for _, _, pe in self._slices
                           if pe.ops_left_in_group is not None), None)
        self._lead_op: int | None = None
        self._groups: tuple | None = None
        self._open = False
        self._settled: int | None = None
        # Brief form -> {full signature -> (cycle, lead op, counters)}.
        self._seen: dict[tuple, dict[tuple, tuple]] = {}
        self._stored = 0
        #: Cycles crossed by jumps so far.
        self.forwarded = 0

    def observe(self, cycles: int, ceiling: int) -> int:
        """Look at the pass after a cycle on which an OP-counter
        advanced, and jump if its state repeats.  Returns the cycles
        jumped, 0 for none; the clock never passes ``ceiling``."""
        lead = self._lead
        if lead is None or lead.op_counter == self._lead_op:
            return 0
        self._lead_op = lead.op_counter
        lasts = []
        for _, _, pe in self._slices:
            left = pe.ops_left_in_group
            lasts.append(None if left is None else pe.op_counter + left)
        groups = tuple(lasts)
        if groups != self._groups:
            self._groups = groups
            self._seen.clear()
            self._stored = 0
            self._open = True
        active = [(png, vault, pe, last) for (png, vault, pe), last
                  in zip(self._slices, lasts, strict=True)
                  if last is not None]
        if not active or active[0][2] is not lead:
            self._lead = active[0][2] if active else None
            self._lead_op = None
            return 0
        lead_op, lead_last = self._lead_op, active[0][3]
        # In later groups, not before the point of its group where the
        # first repeat began.
        if not self._open or (self._settled is not None
                              and lead_last - lead_op > self._settled):
            return 0
        # How far each PNG has read ahead of its PE.  Operations the
        # groups can still move on: every look-ahead must stay inside
        # its group.  A jump needs a repeat at least one operation on
        # and then one more period, and the room only shrinks, so below
        # two the groups are given up.
        ahead = [max(pe.op_counter, png.lookahead_op() or 0) - pe.op_counter
                 for png, _, pe, _ in active]
        room = min(last - pe.op_counter - distance
                   for (_, _, pe, last), distance in zip(active, ahead,
                                                         strict=True))
        if room < 2:
            self._open = False
            return 0
        # A repeat repeats the PEs' relative OP-counters, how far each
        # PNG reads ahead and how full its queue and its PE's cache are
        # (the pipeline fills while those grow): the full signature is
        # taken only once all of them recur.
        ops = tuple(pe.op_counter for _, _, pe in self._slices)
        brief = (tuple(None if last is None else op - lead_op
                       for op, last in zip(ops, lasts, strict=True)),
                 tuple((distance, vault.pending, pe.cache_fill)
                       for (_, vault, pe, _), distance
                       in zip(active, ahead, strict=True)))
        seen = self._seen.get(brief)
        signature = None if seen is None else self._signature(ops)
        if seen is None or signature not in seen:
            if self._stored >= _MAX_SEEN:
                self._open = False
            elif seen is None:
                self._seen[brief] = {}
            else:
                seen[signature] = (cycles, lead_op, self._counters())
            self._stored += 1
            return 0
        self._open = False
        then, then_op, counters = seen[signature]
        if self._settled is None:
            self._settled = lead_last - then_op
        period, delta = cycles - then, lead_op - then_op
        periods = min(room // delta, (ceiling - cycles) // period)
        if periods < 1:
            return 0
        self._jump(periods * period, periods * delta,
                   _gain(self._counters(), counters, periods))
        self.forwarded += periods * period
        return periods * period

    def _signature(self, ops: tuple) -> tuple:
        """The joint timing signature (the PEs' relative OP-counters are
        in the brief form it is filed under): each slice's agents
        relative to its PE's OP-counter ``ops[i]``, then the fabric."""
        parts = []
        for (png, vault, pe), op in zip(self._slices, ops, strict=True):
            parts.append(tuple(pe.timing_signature().values()))
            parts.append(tuple(png.timing_signature(op).values()))
            parts.append(tuple(
                vault.timing_signature(png.tag_key(op)).values()))
        fabric = self._interconnect.timing_signature(
            {pe.pe_id: op for (_, _, pe), op
             in zip(self._slices, ops, strict=True)})
        parts.append(tuple(fabric.values()))
        return tuple(parts)

    def _counters(self) -> tuple:
        return (tuple((png.counters(), vault.counters(), pe.counters())
                      for png, vault, pe in self._slices),
                self._interconnect.counters())

    def _jump(self, cycles: int, ops: int, gained: tuple) -> None:
        """Move every agent ``cycles`` cycles on, the active slices also
        ``ops`` operations, and add the statistics' gains."""
        slice_gains, fabric_gain = gained
        for (png, vault, pe), (png_gain, vault_gain, pe_gain) in zip(
                self._slices, slice_gains, strict=True):
            if pe.ops_left_in_group is None:
                # A finished slice only counts cycles.
                vault.fast_forward(cycles, _unchanged, vault_gain)
                continue
            png.fast_forward(cycles, ops, png_gain, vault_gain)
            pe.fast_forward(cycles, ops, pe_gain)
        self._interconnect.fast_forward(cycles, ops, fabric_gain)
