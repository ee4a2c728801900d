"""Write-back values of node slices and maps that were not simulated.

A duplicated pass whose node slices fall into timing classes
(:meth:`~repro.core.scheduler.PassPlan.slice_classes`) steps one slice
per class; :func:`unfold` then gives each other member of the class its
results.  Timing is the representative's: every member runs the same
cycles, stalls and statistics.  Write-back values are either copied
slot by slot (a timing-only pass, whose values depend on the slot
alone) or computed from the member's own vault image by
:func:`evaluate`, which runs the PE's arithmetic on every neuron of a
class at once.

The maps of a conv or pooling layer run one schedule, so a batch of
them simulates only its lead map
(:func:`repro.core.parallel.run_map_batch`).  The other maps, the
*follower maps*, are evaluated together by :func:`evaluate_maps`, one
call per sub-pass: the same evaluator with a leading map axis, each map
with its own preload row and resident kernel, reading one image per
vault when every map reads the same input (a convolution) or one image
row per map (pooling).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.pe import GroupPlan
from repro.core.scheduler import PassPlan
from repro.fixedpoint import QFormat, from_float

#: Elements per evaluated block: maps times rows (neurons of a class)
#: times connections.  Bounds the evaluator's temporaries on
#: paper-scale layers (over 10^5 connections per FC neuron, tens of
#: thousands of neurons per conv map).
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
        slots = [[slot for group in plan.pe_groups[member]
                  for slot in group.slots] for member in targets]
        n_neurons = len(slots[0])
        if plan.timing_only:
            copied = [outputs[slot.neuron] for group in plan.pe_groups[rep]
                      for slot in group.slots]
            values = [copied] * len(targets)
        else:
            group = plan.pe_groups[rep][0]
            raw = evaluate(
                [plan.vault_emissions[member] for member in targets],
                [plan.vault_data[member][np.newaxis] for member in targets],
                group, np.array([[slot.bias for member_slots in slots
                                  for slot in member_slots]]),
                (np.array([group.weights]) if group.weights_resident
                 and group.mode == "mac" else None),
                fmt, plan.lut)[0].tolist()
            values = [raw[i:i + n_neurons]
                      for i in range(0, len(raw), n_neurons)]
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


def evaluate_maps(plan: PassPlan, classes: list[list[int]],
                  images: list[np.ndarray], preload: np.ndarray,
                  kernels: np.ndarray | None, fmt: QFormat,
                  lut) -> np.ndarray:
    """Every write-back value of maps that share ``plan``'s schedule.

    ``classes`` are the plan's
    :meth:`~repro.core.scheduler.PassPlan.slice_classes`; the maps take
    the plan's streams, slots and output indices, and their own data:
    ``images[node]`` holds one vault image row per map, or one row all
    maps read; ``preload`` is each map's accumulator preload by output
    index, ``(maps, total_neurons)``; ``kernels`` each map's raw
    resident kernel, one row per map or one for all (None without
    resident weights); ``lut`` the activation applied to write-backs.
    Returns the raw write-back values, ``(maps, total_neurons)`` by
    output index, class by class through :func:`evaluate`.
    """
    raw = np.zeros(preload.shape, dtype=np.int64)
    for members in classes:
        groups = plan.pe_groups[members[0]]
        if not groups:
            continue
        neurons = [slot.neuron[1] for member in members
                   for group in plan.pe_groups[member]
                   for slot in group.slots]
        raw[:, neurons] = evaluate(
            [plan.vault_emissions[member] for member in members],
            [images[member] for member in members], groups[0],
            preload[:, neurons], kernels, fmt, lut)
    return raw


def evaluate(streams: list, images: list[np.ndarray], group: GroupPlan,
             preload: np.ndarray, kernels: np.ndarray | None,
             fmt: QFormat, lut) -> np.ndarray:
    """The write-back values of one slice class, for one or more maps.

    The class's members are the nodes whose
    :class:`~repro.core.png.RegisterStream` are ``streams``; each walks
    its PE's slots in order (the slice-class qualification checks it),
    so neuron counter ``i`` is slot ``i`` and its operation ``c`` reads
    the stream's addresses for ``(i, c)``.  Rows run member by member,
    slot by slot.  ``images[i]`` is member ``i``'s vault image, one row
    per map or one row for all; ``preload`` the accumulator preload of
    each map and row; ``kernels`` the raw resident weights, one row per
    map or one for all (None when the group streams its weights or
    takes a max); ``group`` any group of the class (all share mode and
    connection count).

    A neuron's value is then what its MAC lane computes: the preload
    (``fmt.min_value`` for max), then per connection in operation order
    ``acc + (w/scale)·(s/scale)`` or ``max(acc, s/scale)``, with
    resident weights from the kernel and streamed ones read from the
    vault, and reads outside the image as 0; ``round`` half to even and
    clamp (:func:`~repro.fixedpoint.from_float`), then the LUT.  The
    numpy operations are the same IEEE-754 double operations in the
    same order per neuron as :class:`~repro.core.mac.MACUnit`'s, so the
    values are bit-identical to the simulated ones.  The work runs in
    blocks of at most :data:`_BLOCK` maps × rows × connections, which
    changes no neuron's order of operations.  Returns the raw values,
    ``(maps, rows)``.
    """
    scale = fmt.scale
    n_conn = group.n_connections
    n_neurons = len(streams[0].neurons)
    maps, rows = preload.shape
    is_max = group.mode == "max"
    acc = (np.full(preload.shape, fmt.min_value) if is_max
           else np.array(preload, dtype=np.float64))
    weights = (np.asarray(kernels, dtype=np.float64) / scale
               if kernels is not None else None)
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
    conn_step = min(n_conn, _BLOCK)
    map_step = min(maps, max(1, _BLOCK // conn_step))
    row_step = min(rows, max(1, _BLOCK // (map_step * conn_step)))
    for r0 in range(0, rows, row_step):
        r1 = min(rows, r0 + row_step)
        # The members the rows come from, and each one's neurons.
        pieces = [(member, max(r0 - member * n_neurons, 0),
                   min(r1 - member * n_neurons, n_neurons))
                  for member in range(r0 // n_neurons,
                                      (r1 - 1) // n_neurons + 1)]
        for m0 in range(0, maps, map_step):
            own = slice(m0, m0 + map_step)
            block = acc[own, r0:r1]
            for c0 in range(0, n_conn, conn_step):
                connections = np.arange(c0, min(n_conn, c0 + conn_step))
                states = []
                streamed = []
                for member, lo, hi in pieces:
                    image = _maps(images[member], own)
                    base, offset, weight_rows = terms_of[member]
                    states.append(_read(image,
                                        base[lo:hi] + offset[connections]))
                    if weights is None and weight_rows is not None:
                        streamed.append(_read(
                            image, weight_rows[lo:hi] + connections))
                state = np.concatenate(states, axis=1) / scale
                if is_max:
                    np.maximum(block, state.max(axis=2), out=block)
                    continue
                weight = (_maps(weights, own)[:, np.newaxis, connections]
                          if weights is not None
                          else np.concatenate(streamed, axis=1) / scale)
                terms = np.multiply(weight, state, out=np.empty(
                    block.shape + (len(connections),)))
                terms[..., 0] += block
                block[...] = np.add.accumulate(terms, axis=2)[..., -1]
    raw = from_float(acc, fmt)
    if lut is not None:
        raw = lut.lookup_raw(raw)
    return raw


def _maps(array: np.ndarray, own: slice) -> np.ndarray:
    """The rows of ``array`` for the maps ``own``: all of them when
    the array has one row that every map shares."""
    return array if len(array) == 1 else array[own]


def _read(image: np.ndarray, addresses: np.ndarray) -> np.ndarray:
    """Each image row's items at ``addresses``, 0 outside the image (as
    the PNG packetises a read beyond its vault's store)."""
    size = image.shape[1]
    inside = (addresses >= 0) & (addresses < size)
    if inside.all():
        return image[:, addresses]
    if not size:
        return np.zeros((len(image),) + addresses.shape, dtype=np.int64)
    return np.where(inside, image[:, np.where(inside, addresses, 0)], 0)
