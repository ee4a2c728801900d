"""Pass scheduling: turn one layer descriptor into simulator plans.

The host-side software of the paper maps "all data structures of NN (e.g.,
input image and weights) into the physical address space of the cube"
(§IV-C) and then programs each PNG.  This module is that host software for
the cycle simulator: given a descriptor, the actual tensors and a config,
it produces

* per-vault memory images (input states, weights, output space),
* per-vault ordered emission schedules (what each PNG generates),
* per-PE group plans (which neurons each PE computes, in which order),
* the write-back address map.

Emission order models all PNGs sweeping the layer front in lock-step:
records are ordered by (op, destination, lane), which is the order a
hardware PNG's three-counter FSM visits them.  When every vault feeds
only its own PE (a duplicated layout with one vault per PE), a vault's
schedule *is* that FSM: a :class:`~repro.core.png.RegisterStream` over
the vault's registers (:func:`repro.core.host.registers_for_vault_pass`).
Other passes materialise and sort their records.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import NeurocubeConfig
from repro.core.layerdesc import LayerDescriptor
from repro.core.host import (feeds_own_pe_only, local_output_shape,
                             pe_output_rects, registers_for_vault_pass)
from repro.core.pe import GroupPlan, GroupSlot
from repro.core.png import EmissionRecord, RegisterStream
from repro.errors import ConfigurationError, MappingError
from repro.fixedpoint import from_float
from repro.memory.layout import (ConvLayout, FullLayout, Rect,
                                 contiguous_split, fc_input_slices,
                                 stored_address, stored_image, stored_size)
from repro.nn.activations import ActivationLUT
from repro.noc.packet import PacketKind

#: Neuron tag: (pass_index, flat_output_index).
NeuronTag = tuple[int, int]

#: One vault's emission schedule: re-iterable, sized, never indexed.
EmissionSchedule = list[EmissionRecord] | RegisterStream


@dataclass
class PassPlan:
    """Everything the simulator needs to run one PNG pass.

    Attributes:
        vault_emissions: per-channel emission schedules in generation
            order.  A duplicated pass with one vault per PE holds a
            :class:`~repro.core.png.RegisterStream` per vault, every
            other pass a list of records.  Either way a schedule is
            re-iterable (each pass over it yields equal records) and
            sized, and is never indexed: code that edits one takes
            ``list(schedule)`` first.
        pe_groups: per-PE group plans.
        vault_data: per-channel raw memory images.
        out_addresses: neuron tag -> (channel, item address) for
            write-back storage.
        expected_writebacks: per-channel write-back counts.
        lut: activation LUT the PNGs apply to returned states.
        total_neurons: output neurons in this pass.
        timing_only: the pass carries no input data and one accumulator
            preload for every neuron, so every write-back value depends
            on its position in its group alone (a folded pass copies
            its representative's values, :meth:`slice_classes`).
    """

    vault_emissions: list[EmissionSchedule]
    pe_groups: list[list[GroupPlan]]
    vault_data: list[np.ndarray]
    out_addresses: dict[NeuronTag, tuple[int, int]]
    expected_writebacks: list[int]
    lut: ActivationLUT | None
    total_neurons: int = 0
    stream_items: int = field(default=0)
    timing_only: bool = False
    _classes: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self) -> None:
        """Reject structurally inconsistent plans at construction.

        These are shape-level invariants every consumer (the simulator,
        the parallel executor, :mod:`repro.analysis.nccheck`) assumes;
        violating them would otherwise surface as an IndexError deep in
        a worker process.  Semantic well-formedness (producer/consumer
        matching, address ranges, routes) is nccheck's job — it needs a
        constructed plan to inspect.
        """
        n_channels = len(self.vault_data)
        if len(self.vault_emissions) != n_channels:
            raise ConfigurationError(
                f"PassPlan has {len(self.vault_emissions)} emission "
                f"schedules for {n_channels} vault images; every "
                f"channel needs exactly one schedule")
        if len(self.expected_writebacks) != n_channels:
            raise ConfigurationError(
                f"PassPlan has {len(self.expected_writebacks)} "
                f"write-back counts for {n_channels} channels")
        for channel, count in enumerate(self.expected_writebacks):
            if count < 0:
                raise ConfigurationError(
                    f"PassPlan expects {count} write-backs on channel "
                    f"{channel}; counts must be non-negative")
        if self.total_neurons < 0:
            raise ConfigurationError(
                f"PassPlan.total_neurons must be non-negative, got "
                f"{self.total_neurons}")
        if self.stream_items < 0:
            raise ConfigurationError(
                f"PassPlan.stream_items must be non-negative, got "
                f"{self.stream_items}")

    def structural_hash(self) -> str:
        """SHA-256 digest of the plan's timing-relevant structure.

        Covers the per-vault emission schedules, the per-PE group
        shapes, the expected write-back counts and the stream totals —
        everything that determines packet timing.  Payload data (vault
        images, biases, weights) is deliberately excluded: it never
        moves a packet.  Two tasks with equal
        :func:`repro.core.parallel.structural_key` values build plans
        with equal hashes, which is the invariant timing-pass
        memoization relies on (and what its tests pin down).
        """
        digest = hashlib.sha256()
        for channel, records in enumerate(self.vault_emissions):
            digest.update(f"vault {channel}:{len(records)}\n".encode())
            if isinstance(records, RegisterStream):
                for block in records.lines():
                    digest.update(block.encode())
                continue
            for record in records:
                digest.update(
                    f"{record.address},{record.dst},{record.mac_id},"
                    f"{record.op_id},{record.kind.value},"
                    f"{record.neuron}\n".encode())
        for pe, groups in enumerate(self.pe_groups):
            digest.update(f"pe {pe}:{len(groups)}\n".encode())
            for group in groups:
                digest.update(
                    f"{len(group.slots)},{group.n_connections},"
                    f"{group.mode},{group.weights_resident},"
                    f"{group.shared_state}\n".encode())
        digest.update(f"writebacks {self.expected_writebacks}\n".encode())
        digest.update(
            f"totals {self.total_neurons},{self.stream_items}\n".encode())
        return digest.hexdigest()

    def slice_classes(self, config: NeurocubeConfig) -> list[list[int]] | None:
        """The pass's node slices grouped by timing signature, or None.

        A slice is one vault, its PNG, the local ports of its router and
        its PE.  In a pass in which every vault's schedule is a
        :class:`~repro.core.png.RegisterStream` to its own PE and every
        neuron's output lives in that PE's vault, no packet ever leaves
        its node, so the slices run independently but for the shared
        lock-step horizon.  Two slices with equal register counters,
        write-back counts and PE group shapes then run the same cycles,
        stalls and statistics.  In a timing-only pass their write-backs
        also carry equal values position by position.  Any other pass
        qualifies when each stream walks its PE's slots in order (the
        neuron counter's ``i``-th tag is the ``i``-th slot, every group
        but the last fills ``n_mac`` lanes, all alike) and reads only
        addresses below its vault's write-back addresses, so no
        write-back feeds a read and each slice's values follow from its
        own vault image (:func:`repro.core.fold.unfold`).  An idle
        slice (empty schedule, no groups, no write-backs expected) does
        nothing in any pass, so all idle slices form one class.  Returns
        the classes, each a list of nodes in ascending order, ordered by
        first node; None when the pass does not qualify or no two
        slices are alike.  Computed once per plan and node count (a
        plan is not edited once it runs): a shared batch asks for its
        lead plan's classes before the pass that folds them.
        """
        key = (config.n_pe, config.n_channels)
        if key not in self._classes:
            self._classes[key] = self._slice_classes(config)
        return self._classes[key]

    def _slice_classes(self, config: NeurocubeConfig
                       ) -> list[list[int]] | None:
        n_pe = config.n_pe
        if config.n_channels != n_pe or len(self.pe_groups) != n_pe:
            return None
        classes: dict[tuple, list[int]] = {}
        kernel = None
        for node in range(n_pe):
            stream = self.vault_emissions[node]
            if not (stream or self.pe_groups[node]
                    or self.expected_writebacks[node]):
                classes.setdefault((), []).append(node)
                continue
            if (not isinstance(stream, RegisterStream)
                    or stream.dst != node):
                return None
            size = len(self.vault_data[node])
            lowest = size
            shapes = []
            for group in self.pe_groups[node]:
                for slot in group.slots:
                    home = self.out_addresses.get(slot.neuron)
                    if (slot.home_vault != node or home is None
                            or home[0] != node or not 0 <= home[1] < size):
                        return None
                    lowest = min(lowest, home[1])
                # Every slice's values come from one resident kernel.
                if kernel is None:
                    kernel = group.weights
                elif (group.weights is not kernel
                      and group.weights != kernel):
                    return None
                shapes.append((len(group.slots), group.n_connections,
                               group.mode, group.weights_resident,
                               group.shared_state))
            # Fewer expected write-backs than neurons could end the pass
            # with write-backs still in flight.
            if self.expected_writebacks[node] < sum(
                    shape[0] for shape in shapes):
                return None
            reg = stream.registers
            if not self.timing_only and not (
                    _walks_slots(stream, self.pe_groups[node], shapes)
                    and stream.highest_address() < lowest):
                return None
            signature = (reg.n_neurons, reg.n_connections, reg.n_mac,
                         bool(reg.offsets), self.expected_writebacks[node],
                         tuple(shapes))
            classes.setdefault(signature, []).append(node)
        if len(classes) == n_pe:
            return None
        return list(classes.values())


def _walks_slots(stream: RegisterStream, groups: list[GroupPlan],
                 shapes: list[tuple]) -> bool:
    """Whether a stream's neuron counter walks ``groups`` slot by slot:
    tag ``i`` is slot ``i``, every group but the last fills ``n_mac``
    lanes, and all groups share one per-lane operand stream (the
    stream's connections, one state per lane, weights resident or
    streamed, but streamed only by a fully connected stream)."""
    reg = stream.registers
    if not shapes or any(shape[0] != reg.n_mac for shape in shapes[:-1]):
        return False
    if len({shape[1:] for shape in shapes}) != 1:
        return False
    _, n_connections, mode, resident, shared = shapes[0]
    if (n_connections != reg.n_connections or shared
            or (mode == "mac" and not resident and reg.offsets)):
        return False
    return stream.neurons == tuple(slot.neuron for group in groups
                                   for slot in group.slots)


def _chunk(items: Sequence, size: int) -> list[Sequence]:
    return [items[i:i + size] for i in range(0, len(items), size)]


#: Sort rank of each packet kind: its value, looked up in a plain dict
#: because the ``Enum.value`` descriptor is slow on a per-record key.
_KIND_RANK = {kind: kind.value for kind in PacketKind}


def _sorted_emissions(records: list[EmissionRecord]) -> list[EmissionRecord]:
    return sorted(records, key=lambda r: (r.op_id, r.dst, r.mac_id,
                                          _KIND_RANK[r.kind]))


def _register_streams(desc: LayerDescriptor, config: NeurocubeConfig,
                      pe_neurons: list[list[NeuronTag]],
                      owned: list[Rect | None] | None = None
                      ) -> list[EmissionSchedule]:
    """Every vault's schedule as a stream over its PNG registers, for a
    pass in which each vault feeds only its own PE
    (:func:`~repro.core.host.feeds_own_pe_only`)."""
    streams: list[EmissionSchedule] = []
    for vault in range(config.n_channels):
        regs = registers_for_vault_pass(desc, config, vault, owned)
        pe = config.pe_of_channel(vault)
        streams.append([] if regs is None else RegisterStream(
            regs, pe, tuple(pe_neurons[pe])))
    return streams


def build_conv_pass(desc: LayerDescriptor, config: NeurocubeConfig,
                    input_tensor: np.ndarray | None,
                    kernel_weights: np.ndarray | None,
                    bias: float | np.ndarray,
                    lut: ActivationLUT | None,
                    mode: str = "mac") -> PassPlan:
    """Schedule one pass of a locally connected layer (one output map).

    Args:
        desc: the layer descriptor (kind "conv" or "pool").
        config: the target Neurocube.
        input_tensor: ``(C_in, H, W)`` real-valued input (quantised on
            store); None runs the pass timing-only.  For a sub-passed
            convolution this is the input-map *block* of the sub-pass.
        kernel_weights: ``(C_in, k, k)`` kernel for this output map
            (ignored for pooling / max mode).
        bias: accumulator preload — a scalar, or a per-neuron array
            (flattened output order) carrying partial sums between the
            sub-passes of a blocked convolution.
        lut: activation LUT for write-backs (None on intermediate
            sub-passes: the raw partial sum is stored).
        mode: "mac" or "max" (max pooling).
    """
    layout = desc.layout
    if not isinstance(layout, ConvLayout):
        raise MappingError(f"{desc.name}: conv pass needs a ConvLayout")
    k = desc.kernel
    in_maps = (input_tensor.shape[0] if input_tensor is not None
               else desc.connections // (k * k))
    stride, out_w, out_h = local_output_shape(desc)
    if desc.kind == "pool":
        n_conn = k * k
    else:
        n_conn = in_maps * k * k
        if n_conn != desc.connections:
            raise MappingError(
                f"{desc.name}: {in_maps} input maps give {n_conn} "
                f"connections, the descriptor has {desc.connections}")
    functional = input_tensor is not None

    # ---- memory images: [stored tile, map by map][output space] ------
    # (the kernel lives in PE weight memory, not in the vaults)
    n_channels = config.n_channels
    stored = list(layout.stored_tiles)
    vault_sizes = [stored_size(tile, in_maps) for tile in stored]

    weights = None
    kernel_weights = conv_kernel(desc, mode, kernel_weights)
    if mode == "mac":
        if functional and kernel_weights is None:
            raise MappingError(f"{desc.name}: functional conv pass needs "
                               f"kernel weights")
        weights = (tuple(from_float(kernel_weights,
                                    config.qformat).ravel().tolist())
                   if kernel_weights is not None
                   else (0,) * desc.connections)

    # ---- PE ownership, write-back addresses and schedules --------------
    n_pe = config.n_pe
    owned = pe_output_rects(desc, n_pe)
    out_addresses: dict[NeuronTag, tuple[int, int]] = {}
    expected = [0] * n_channels
    pe_neurons: list[list[NeuronTag]] = [[] for _ in range(n_pe)]
    for pe, rect in enumerate(owned):
        if rect is None:
            continue
        home = config.channel_of_pe(pe)
        tags = [(0, oy * out_w + ox) for oy in range(rect.y0, rect.y1)
                for ox in range(rect.x0, rect.x1)]
        first = vault_sizes[home] + expected[home]
        for offset, tag in enumerate(tags):
            out_addresses[tag] = (home, first + offset)
        expected[home] += len(tags)
        pe_neurons[pe] = tags
    if feeds_own_pe_only(desc, config, owned):
        emissions = _register_streams(desc, config, pe_neurons, owned)
    else:
        emissions = _listed_conv_emissions(config, stored, owned,
                                           stride, k, n_conn, out_w)

    # ---- groups, with one accumulator preload per neuron ---------------
    preload = np.empty(out_h * out_w)
    preload[:] = bias
    neuron_bias = preload.tolist()
    resident = mode == "max" or desc.weights_resident
    pe_groups: list[list[GroupPlan]] = []
    for pe, tags in enumerate(pe_neurons):
        home = config.channel_of_pe(pe)
        pe_groups.append([GroupPlan(
            slots=tuple(GroupSlot(neuron=tag, home_vault=home,
                                  bias=neuron_bias[tag[1]])
                        for tag in chunk),
            n_connections=n_conn, mode=mode, weights_resident=resident,
            shared_state=False, weights=weights)
            for chunk in _chunk(tags, config.n_mac)])

    if functional:
        vault_data = [image[0] for image in conv_vault_images(
            desc, config, input_tensor[np.newaxis], expected)]
    else:
        vault_data = [np.zeros(size + space, dtype=np.int64)
                      for size, space in zip(vault_sizes, expected,
                                             strict=True)]

    return PassPlan(
        vault_emissions=emissions,
        pe_groups=pe_groups, vault_data=vault_data,
        out_addresses=out_addresses, expected_writebacks=expected,
        lut=lut, total_neurons=out_h * out_w,
        stream_items=out_h * out_w * n_conn,
        timing_only=not functional and np.ndim(bias) == 0)


def conv_kernel(desc: LayerDescriptor, mode: str,
                kernel_weights: np.ndarray | None) -> np.ndarray | None:
    """The real-valued kernel a conv or pooling pass keeps resident:
    the pass's own, or for average pooling (which rides the MAC
    datapath) the constant ``1/k^2`` coefficients; None for max mode or
    a missing kernel."""
    if mode != "mac":
        return None
    if kernel_weights is None and desc.kind == "pool":
        k = desc.kernel
        return np.full((1, k, k), 1.0 / (k * k))
    return kernel_weights


def conv_vault_images(desc: LayerDescriptor, config: NeurocubeConfig,
                      inputs: np.ndarray,
                      expected: list[int]) -> list[np.ndarray]:
    """Every vault's memory image of a conv or pooling pass, for one or
    more maps at once.

    ``inputs`` is ``(maps, C_in, H, W)``, real-valued (quantised here);
    vault ``v``'s image has one row per map: its stored tile of the
    map's input, input map by input map, then ``expected[v]`` zero
    items of output space.
    """
    raw = from_float(inputs, config.qformat)
    maps = len(raw)
    planes = raw.reshape(-1, *raw.shape[2:])
    images = []
    for tile, space in zip(desc.layout.stored_tiles, expected, strict=True):
        stored = stored_image(planes, tile).reshape(maps, -1)
        image = np.zeros((maps, stored.shape[1] + space), dtype=np.int64)
        image[:, :stored.shape[1]] = stored
        images.append(image)
    return images


def _listed_conv_emissions(config: NeurocubeConfig, stored: list[Rect],
                           owned: list[Rect | None], stride: int, k: int,
                           n_conn: int, out_w: int
                           ) -> list[list[EmissionRecord]]:
    """Materialised conv/pool schedules for passes in which vaults feed
    several PEs: each window pixel comes from the consumer's own vault
    when it holds a (possibly duplicated) copy, else from the first
    vault storing it; each vault's records are then sorted into the
    lock-step order."""
    emissions: list[list[EmissionRecord]] = [
        [] for _ in range(config.n_channels)]
    connection_offsets = [(c, dy, dx) for c in range(n_conn // (k * k))
                          for dy in range(k) for dx in range(k)]
    state = PacketKind.STATE
    for pe, rect in enumerate(owned):
        if rect is None:
            continue
        home = config.channel_of_pe(pe)
        neurons = [(ox, oy) for oy in range(rect.y0, rect.y1)
                   for ox in range(rect.x0, rect.x1)]
        for g, chunk in enumerate(_chunk(neurons, config.n_mac)):
            for c, (pmap, dy, dx) in enumerate(connection_offsets):
                op = g * n_conn + c
                for lane, (ox, oy) in enumerate(chunk):
                    px, py = ox * stride + dx, oy * stride + dy
                    src = home
                    if not stored[src].contains(px, py):
                        src = next(channel for channel, tile
                                   in enumerate(stored)
                                   if tile.contains(px, py))
                    emissions[src].append(EmissionRecord(
                        stored_address(stored[src], px, py, pmap),
                        pe, lane, op, state,
                        (0, oy * out_w + ox)))
    return [_sorted_emissions(e) for e in emissions]


def build_fc_pass(desc: LayerDescriptor, config: NeurocubeConfig,
                  input_vector: np.ndarray | None,
                  weights: np.ndarray | None,
                  biases: np.ndarray | None,
                  lut: ActivationLUT | None) -> PassPlan:
    """Schedule one pass of a fully connected layer.

    Output neurons are split across PEs; each PE's weight rows live in its
    channel and stream as packets; one state item per operation feeds all
    MAC lanes (every neuron in the group reads input ``c``).

    Args:
        desc: descriptor of kind "fc".
        config: the target Neurocube.
        input_vector: ``(N_in,)`` input (None for timing-only).
        weights: ``(N_out, N_in)`` weight matrix (None for timing-only).
        biases: ``(N_out,)`` biases (None -> zero).
        lut: activation LUT for write-backs.
    """
    layout = desc.layout
    if not isinstance(layout, FullLayout):
        raise MappingError(f"{desc.name}: fc pass needs a FullLayout")
    n_in, n_out = desc.connections, desc.neurons_per_pass
    functional = input_vector is not None
    n_channels, n_pe = config.n_channels, config.n_pe

    bias_arr = (np.asarray(biases, dtype=np.float64)
                if biases is not None else np.zeros(n_out))

    # ---- placement -----------------------------------------------------
    # Each channel stores its input slice (the whole vector when
    # duplicating), then the weight rows of its PEs' neurons in PE order;
    # weight_base[n] is neuron n's row address.
    input_slices = fc_input_slices(n_in, n_channels, layout.duplicate)
    vault_sizes = [len(part) for part in input_slices]
    pe_outputs = contiguous_split(n_out, n_pe)
    weight_base = [0] * n_out
    for pe, outputs in enumerate(pe_outputs):
        home = config.channel_of_pe(pe)
        for n in outputs:
            weight_base[n] = vault_sizes[home]
            vault_sizes[home] += n_in

    out_addresses: dict[NeuronTag, tuple[int, int]] = {}
    expected = [0] * n_channels
    pe_groups: list[list[GroupPlan]] = [[] for _ in range(n_pe)]
    pe_neurons: list[list[NeuronTag]] = [[] for _ in range(n_pe)]
    for pe, outputs in enumerate(pe_outputs):
        home = config.channel_of_pe(pe)
        tags = [(0, n) for n in outputs]
        pe_neurons[pe] = tags
        for tag in tags:
            out_addresses[tag] = (home, vault_sizes[home] + expected[home])
            expected[home] += 1
        for chunk in _chunk(outputs, config.n_mac):
            pe_groups[pe].append(GroupPlan(
                slots=tuple(GroupSlot(neuron=(0, n), home_vault=home,
                                      bias=float(bias_arr[n]))
                            for n in chunk),
                n_connections=n_in, mode="mac", weights_resident=False,
                shared_state=False, weights=None))

    if feeds_own_pe_only(desc, config):
        emissions = _register_streams(desc, config, pe_neurons)
    else:
        emissions = _listed_fc_emissions(config, input_slices, pe_outputs,
                                         weight_base, n_in)

    # Timing-only images stay zero: no packet's timing reads them.
    vault_data = [np.zeros(vault_sizes[channel] + expected[channel],
                           dtype=np.int64) for channel in range(n_channels)]
    if functional:
        raw_input = from_float(input_vector, config.qformat)
        for array, part in zip(vault_data, input_slices, strict=True):
            array[:len(part)] = raw_input[part.start:part.stop]
    if weights is not None:
        raw_weights = from_float(weights, config.qformat)
        for pe, outputs in enumerate(pe_outputs):
            if outputs:
                first = weight_base[outputs[0]]
                vault_data[config.channel_of_pe(pe)][
                    first:first + len(outputs) * n_in] = (
                        raw_weights[outputs[0]:outputs[-1] + 1].ravel())

    return PassPlan(
        vault_emissions=emissions,
        pe_groups=pe_groups, vault_data=vault_data,
        out_addresses=out_addresses, expected_writebacks=expected,
        lut=lut, total_neurons=n_out, stream_items=2 * n_in * n_out,
        timing_only=not functional and biases is None)


def _listed_fc_emissions(config: NeurocubeConfig,
                         input_slices: list[range],
                         pe_outputs: list[range],
                         weight_base: list[int], n_in: int
                         ) -> list[list[EmissionRecord]]:
    """Materialised FC schedules for passes in which vaults feed several
    PEs: weights stream from the PE's home vault, each state from the
    consumer's home vault when it holds a copy, else from the vault
    owning that input slice."""
    emissions: list[list[EmissionRecord]] = [
        [] for _ in range(config.n_channels)]
    state, weight = PacketKind.STATE, PacketKind.WEIGHT
    for pe, outputs in enumerate(pe_outputs):
        home = config.channel_of_pe(pe)
        weight_emissions = emissions[home]
        for g, chunk in enumerate(_chunk(outputs, config.n_mac)):
            lanes = [(lane, weight_base[n], (0, n))
                     for lane, n in enumerate(chunk)]
            for c in range(n_in):
                op = g * n_in + c
                # Every lane receives its own state copy (Fig. 11: the
                # temporal buffer takes "16 input pixels and 16 synaptic
                # weights"); the hardware does not broadcast within a PE.
                src = home
                if c not in input_slices[src]:
                    src = next(channel for channel, part
                               in enumerate(input_slices) if c in part)
                state_emissions = emissions[src]
                state_addr = c - input_slices[src].start
                for lane, base, neuron in lanes:
                    state_emissions.append(EmissionRecord(
                        state_addr, pe, lane, op, state, neuron))
                    weight_emissions.append(EmissionRecord(
                        base + c, pe, lane, op, weight, neuron))
    return [_sorted_emissions(e) for e in emissions]
