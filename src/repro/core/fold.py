"""Results of the node slices a folded pass did not simulate.

A duplicated pass whose node slices fall into timing classes
(:meth:`~repro.core.scheduler.PassPlan.slice_classes`) steps one slice
per class; :func:`unfold` then gives each other member of the class its
results.  Timing is the representative's: every member runs the same
cycles, stalls and statistics.  Write-back values are either copied
slot by slot (a timing-only pass, whose values depend on the slot
alone) or computed from the member's own vault image by
:func:`_evaluate`, which runs the PE's arithmetic on every neuron of a
class at once.  A pass carrying data that is not simulated at all (a
conv or pooling map sharing the pass of its batch's lead map,
:func:`repro.core.parallel.run_map_batch`) gets all its write-backs
from :func:`evaluate`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.scheduler import PassPlan
from repro.fixedpoint import QFormat, from_float

#: Elements per evaluated block: rows (neurons of a class) times
#: connections.  Bounds the evaluator's temporaries on paper-scale FC
#: layers (over 10^5 connections per neuron).
_BLOCK = 1 << 18


def unfold(plan: PassPlan, classes: list[list[int]], pe_stats: list,
           png_stats: list, outputs: dict, fmt: QFormat,
           forwarded: bool = False) -> tuple[list, list]:
    """Give every member of a slice class its results.

    Members get copies of the representative's PE and PNG statistics.
    In a timing-only plan each member slot takes the representative's
    write-back value at the same slot; otherwise every member's
    write-backs are evaluated from its own vault image, stored in
    ``outputs`` and written into that image at their output addresses,
    as the write-back sink would.  A ``forwarded`` pass
    (:mod:`repro.core.forward`) did not accumulate the operations it
    jumped, so a plan carrying data evaluates its representatives'
    write-backs the same way.  The idle class has no write-backs to
    give.  Returns the per-PE and per-PNG statistics in node order.
    """
    full_pe: list = [None] * len(plan.pe_groups)
    full_png: list = [None] * len(plan.pe_groups)
    for members, pe_stat, png_stat in zip(classes, pe_stats, png_stats,
                                          strict=True):
        rep, *others = members
        full_pe[rep], full_png[rep] = pe_stat, png_stat
        for member in others:
            full_pe[member] = dataclasses.replace(pe_stat)
            full_png[member] = dataclasses.replace(png_stat)
        targets = (members if forwarded and not plan.timing_only
                   else others)
        if not targets or not plan.pe_groups[rep]:
            continue
        slots = _slots(plan, targets)
        if plan.timing_only:
            copied = [outputs[slot.neuron] for group in plan.pe_groups[rep]
                      for slot in group.slots]
            values = [copied] * len(targets)
        else:
            values = _evaluate(plan, targets, slots, fmt)
        for member, member_slots, member_values in zip(
                targets, slots, values, strict=True):
            for slot, value in zip(member_slots, member_values,
                                   strict=True):
                outputs[slot.neuron] = value
            if not plan.timing_only:
                image = plan.vault_data[member]
                image[[plan.out_addresses[slot.neuron][1]
                       for slot in member_slots]] = member_values
    return full_pe, full_png


def evaluate(plan: PassPlan, classes: list[list[int]],
             fmt: QFormat) -> dict:
    """Every write-back value of a pass carrying data, by neuron tag,
    evaluated class by class from the slices' own vault images as
    :func:`unfold` evaluates a class's members; ``classes`` are the
    plan's :meth:`~repro.core.scheduler.PassPlan.slice_classes`."""
    outputs: dict = {}
    for members in classes:
        if not plan.pe_groups[members[0]]:
            continue
        slots = _slots(plan, members)
        for member_slots, values in zip(
                slots, _evaluate(plan, members, slots, fmt), strict=True):
            outputs.update(zip((slot.neuron for slot in member_slots),
                               values, strict=True))
    return outputs


def _slots(plan: PassPlan, members: list[int]) -> list[list]:
    """Each member's group slots, in order."""
    return [[slot for group in plan.pe_groups[member]
             for slot in group.slots] for member in members]


def _evaluate(plan: PassPlan, members: list[int], slots: list[list],
              fmt: QFormat) -> list[list]:
    """Every member's write-back values, in slot order.

    Each member's :class:`~repro.core.png.RegisterStream` walks its
    PE's slots in order (the slice-class qualification checks it), so
    neuron counter ``i`` is slot ``i`` and its operation ``c`` reads
    the stream's addresses for ``(i, c)``.  A neuron's value is then
    what its MAC lane computes: the bias (``fmt.min_value`` for max)
    preloaded, then per connection in operation order ``acc +
    (w/scale)·(s/scale)`` or ``max(acc, s/scale)``, with resident
    weights from the group and streamed ones read from the vault, and
    reads outside the image as 0; ``round`` half to even and clamp
    (:func:`~repro.fixedpoint.from_float`), then the LUT.
    The numpy operations are the same IEEE-754 double operations in
    the same order as :class:`~repro.core.mac.MACUnit`'s, so the values
    are bit-identical to the simulated ones.
    """
    scale = fmt.scale
    streams = [plan.vault_emissions[member] for member in members]
    images = [plan.vault_data[member] for member in members]
    first = plan.pe_groups[members[0]][0]
    n_conn = first.n_connections
    n_neurons = len(slots[0])
    rows = len(members) * n_neurons
    flat = [slot for member_slots in slots for slot in member_slots]
    if first.mode == "max":
        acc = np.full(rows, fmt.min_value)
    else:
        acc = np.array([slot.bias for slot in flat], dtype=np.float64)
    resident = first.mode == "mac" and first.weights_resident
    if resident:
        # One weight table per distinct group kernel, and each row's.
        tables: dict[int, int] = {}
        kernels = []
        row_table = []
        for member in members:
            for group in plan.pe_groups[member]:
                index = tables.setdefault(id(group.weights), len(kernels))
                if index == len(kernels):
                    kernels.append(np.asarray(group.weights,
                                              dtype=np.float64) / scale)
                row_table.extend([index] * len(group.slots))
        weight_tables = np.stack(kernels)
        row_table = np.asarray(row_table)
    # Each member's state addresses as a neuron term plus a connection
    # term (Eq. 5 for locally connected streams; the input index for
    # fully connected ones), and its streamed weight rows.
    terms_of = []
    for stream in streams:
        reg = stream.registers
        if reg.offsets:
            base, offset = stream.local_terms()
            terms_of.append((np.asarray(base)[:, np.newaxis],
                             np.asarray(offset), None))
        else:
            terms_of.append((np.zeros((n_neurons, 1), dtype=np.int64),
                             np.arange(n_conn) + reg.addr_last,
                             reg.weight_base + np.arange(n_neurons)[
                                 :, np.newaxis] * reg.n_connections))
    step = max(1, _BLOCK // rows)
    for start in range(0, n_conn, step):
        connections = np.arange(start, min(n_conn, start + step))
        states = []
        weights = []
        for image, (base, offset, weight_rows) in zip(images, terms_of,
                                                      strict=True):
            states.append(_read(image, base + offset[connections]))
            if not resident and weight_rows is not None:
                weights.append(_read(image, weight_rows + connections))
        state = np.concatenate(states) / scale
        if first.mode == "max":
            acc = np.maximum(acc, state.max(axis=1))
            continue
        if resident:
            weight = weight_tables[:, connections][row_table]
        else:
            weight = np.concatenate(weights) / scale
        terms = weight * state
        terms[:, 0] += acc
        acc = np.add.accumulate(terms, axis=1)[:, -1]
    raw = from_float(acc, fmt)
    if plan.lut is not None:
        raw = plan.lut.lookup_raw(raw)
    values = raw.tolist()
    return [values[i:i + n_neurons] for i in range(0, rows, n_neurons)]


def _read(image: np.ndarray, addresses: np.ndarray) -> np.ndarray:
    """The items at ``addresses``, 0 outside the image (as the PNG
    packetises a read beyond its vault's store)."""
    inside = (addresses >= 0) & (addresses < len(image))
    if inside.all():
        return image[addresses]
    if not len(image):
        return np.zeros(addresses.shape, dtype=np.int64)
    return np.where(inside, image[np.where(inside, addresses, 0)], 0)
