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
hardware PNG's three-counter FSM visits them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import NeurocubeConfig
from repro.core.layerdesc import LayerDescriptor
from repro.core.pe import GroupPlan, GroupSlot
from repro.core.png import EmissionRecord
from repro.errors import ConfigurationError, MappingError
from repro.fixedpoint import from_float
from repro.memory.layout import ConvLayout, FullLayout, Rect, partition_grid
from repro.nn.activations import ActivationLUT
from repro.noc.packet import PacketKind

#: Neuron tag: (pass_index, flat_output_index).
NeuronTag = tuple[int, int]


@dataclass
class PassPlan:
    """Everything the simulator needs to run one PNG pass.

    Attributes:
        vault_emissions: per-channel ordered emission schedules.
        pe_groups: per-PE group plans.
        vault_data: per-channel raw memory images.
        out_addresses: neuron tag -> (channel, item address) for
            write-back storage.
        expected_writebacks: per-channel write-back counts.
        lut: activation LUT the PNGs apply to returned states.
        total_neurons: output neurons in this pass.
    """

    vault_emissions: list[list[EmissionRecord]]
    pe_groups: list[list[GroupPlan]]
    vault_data: list[np.ndarray]
    out_addresses: dict[NeuronTag, tuple[int, int]]
    expected_writebacks: list[int]
    lut: ActivationLUT | None
    total_neurons: int = 0
    stream_items: int = field(default=0)

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


def _chunk(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _owner_of(tiles: list[Rect], x: int, y: int) -> int:
    for index, tile in enumerate(tiles):
        if tile.contains(x, y):
            return index
    raise MappingError(f"pixel ({x}, {y}) not covered by any tile")


#: Sort rank of each packet kind: its value, looked up in a plain dict
#: because the ``Enum.value`` descriptor is slow on a per-record key.
_KIND_RANK = {kind: kind.value for kind in PacketKind}


def _sorted_emissions(records: list[EmissionRecord]) -> list[EmissionRecord]:
    return sorted(records, key=lambda r: (r.op_id, r.dst, r.mac_id,
                                          _KIND_RANK[r.kind]))


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
    height, width = desc.in_height, desc.in_width
    in_maps = (input_tensor.shape[0] if input_tensor is not None
               else desc.connections // (k * k))
    out_h, out_w = height - k + 1, width - k + 1
    if desc.kind == "pool":
        out_h, out_w = height // k, width // k
    functional = input_tensor is not None

    # ---- memory images: [input pixels][weights][output space] ---------
    n_channels = config.n_channels
    stored = list(layout.stored_tiles)
    pixel_addr: list[dict[tuple[int, int, int], int]] = []
    vault_sizes: list[int] = []
    raw_input = (from_float(input_tensor, config.qformat)
                 if functional else None)
    vault_items: list[list[int]] = []
    for tile in stored:
        addr_map: dict[tuple[int, int, int], int] = {}
        items: list[int] = []
        for c in range(in_maps):
            for y in range(tile.y0, tile.y1):
                for x in range(tile.x0, tile.x1):
                    addr_map[(c, y, x)] = len(items)
                    items.append(int(raw_input[c, y, x])
                                 if functional else 0)
        pixel_addr.append(addr_map)
        vault_items.append(items)
        vault_sizes.append(len(items))

    raw_weights = None
    if mode == "mac":
        # Average pooling rides the MAC datapath with constant 1/k^2
        # coefficients; weighted layers use the pass's kernel.
        if kernel_weights is None and desc.kind == "pool":
            kernel_weights = np.full((1, k, k), 1.0 / (k * k))
        if functional and kernel_weights is None:
            raise MappingError(f"{desc.name}: functional conv pass needs "
                               f"kernel weights")
        if kernel_weights is not None:
            raw_weights = from_float(kernel_weights, config.qformat).ravel()
        else:
            raw_weights = np.zeros(desc.connections, dtype=np.int64)

    # ---- PE ownership and groups ---------------------------------------
    n_pe = config.n_pe
    pe_tiles = partition_grid(height, width, n_pe)
    half = k // 2
    pe_neurons: list[list[tuple[int, int]]] = [[] for _ in range(n_pe)]
    for oy in range(out_h):
        for ox in range(out_w):
            if desc.kind == "pool":
                cx, cy = ox * k, oy * k
            else:
                cx, cy = ox + half, oy + half
            pe_neurons[_owner_of(pe_tiles, cx, cy)].append((ox, oy))

    out_addresses: dict[NeuronTag, tuple[int, int]] = {}
    expected = [0] * n_channels
    pe_groups: list[list[GroupPlan]] = [[] for _ in range(n_pe)]
    emissions: list[list[EmissionRecord]] = [[] for _ in range(n_channels)]

    weights_tuple = (tuple(int(w) for w in raw_weights)
                     if raw_weights is not None else None)
    connection_offsets = [(c, dy, dx) for c in range(in_maps)
                          for dy in range(k) for dx in range(k)]
    if desc.kind == "pool":
        n_conn = k * k
        connection_offsets = [(None, dy, dx) for dy in range(k)
                              for dx in range(k)]
    else:
        n_conn = in_maps * k * k

    bias_array = None if np.isscalar(bias) else np.asarray(bias)
    state = PacketKind.STATE
    stream_items = 0
    for pe in range(n_pe):
        home = config.channel_of_pe(pe)
        for g, chunk in enumerate(_chunk(pe_neurons[pe], config.n_mac)):
            slots = []
            for ox, oy in chunk:
                tag: NeuronTag = (0, oy * out_w + ox)
                out_addr = vault_sizes[home] + expected[home]
                out_addresses[tag] = (home, out_addr)
                expected[home] += 1
                slot_bias = (float(bias) if bias_array is None
                             else float(bias_array[oy * out_w + ox]))
                slots.append(GroupSlot(neuron=tag, home_vault=home,
                                       bias=slot_bias))
            pe_groups[pe].append(GroupPlan(
                slots=tuple(slots), n_connections=n_conn, mode=mode,
                weights_resident=(mode == "max" or desc.weights_resident),
                shared_state=False, weights=weights_tuple))
            for c, (in_map, dy, dx) in enumerate(connection_offsets):
                op = g * n_conn + c
                for lane, (ox, oy) in enumerate(chunk):
                    if desc.kind == "pool":
                        px, py = ox * k + dx, oy * k + dy
                        pmap = 0 if in_map is None else in_map
                    else:
                        px, py = ox + dx, oy + dy
                        pmap = in_map
                    src = _pixel_source(stored, home, pmap, px, py,
                                        pixel_addr)
                    emissions[src].append(EmissionRecord(
                        pixel_addr[src][(pmap, py, px)], pe, lane, op,
                        state, (0, oy * out_w + ox)))
                    stream_items += 1

    # Grow vault images to hold the output region.
    vault_data = []
    for channel in range(n_channels):
        array = np.zeros(vault_sizes[channel] + expected[channel],
                         dtype=np.int64)
        if vault_items[channel]:
            array[:vault_sizes[channel]] = vault_items[channel]
        vault_data.append(array)

    return PassPlan(
        vault_emissions=[_sorted_emissions(e) for e in emissions],
        pe_groups=pe_groups, vault_data=vault_data,
        out_addresses=out_addresses, expected_writebacks=expected,
        lut=lut, total_neurons=out_h * out_w, stream_items=stream_items)


def _pixel_source(stored: list[Rect], preferred: int, pmap: int,
                  px: int, py: int,
                  pixel_addr: list[dict]) -> int:
    """Which channel sources a pixel: the consumer's own channel when it
    holds a (possibly duplicated) copy, else the owning tile's channel."""
    if (pmap, py, px) in pixel_addr[preferred]:
        return preferred
    for channel, _ in enumerate(stored):
        if (pmap, py, px) in pixel_addr[channel]:
            return channel
    raise MappingError(f"pixel ({pmap}, {py}, {px}) stored nowhere")


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

    raw_input = (from_float(input_vector, config.qformat)
                 if functional else np.zeros(n_in, dtype=np.int64))
    raw_weights = (from_float(weights, config.qformat)
                   if weights is not None
                   else np.zeros((n_out, n_in), dtype=np.int64))
    bias_arr = (np.asarray(biases, dtype=np.float64)
                if biases is not None else np.zeros(n_out))

    # ---- input placement -----------------------------------------------
    if layout.duplicate:
        input_slices = [np.arange(n_in) for _ in range(n_channels)]
    else:
        input_slices = np.array_split(np.arange(n_in), n_channels)
    input_addr: list[dict[int, int]] = []
    vault_items: list[list[int]] = []
    for channel in range(n_channels):
        addr_map = {int(j): a for a, j in enumerate(input_slices[channel])}
        input_addr.append(addr_map)
        vault_items.append([int(raw_input[j]) for j in
                            input_slices[channel]])
    input_owner = np.empty(n_in, dtype=np.int64)
    if layout.duplicate:
        input_owner[:] = -1  # every channel has a copy
    else:
        for channel, js in enumerate(input_slices):
            input_owner[js] = channel

    # ---- output / weight placement -------------------------------------
    # Each neuron's weight row is stored contiguously in its PE's home
    # channel; weight_base[n] is the row's first item address.
    pe_outputs = np.array_split(np.arange(n_out), n_pe)
    weight_base = [0] * n_out
    for pe in range(n_pe):
        items = vault_items[config.channel_of_pe(pe)]
        for n in pe_outputs[pe].tolist():
            weight_base[n] = len(items)
            items.extend(raw_weights[n].tolist())

    out_addresses: dict[NeuronTag, tuple[int, int]] = {}
    expected = [0] * n_channels
    pe_groups: list[list[GroupPlan]] = [[] for _ in range(n_pe)]
    emissions: list[list[EmissionRecord]] = [[] for _ in range(n_channels)]
    vault_sizes = [len(items) for items in vault_items]

    state, weight = PacketKind.STATE, PacketKind.WEIGHT
    stream_items = 0
    for pe in range(n_pe):
        home = config.channel_of_pe(pe)
        weight_emissions = emissions[home]
        for g, chunk in enumerate(_chunk(pe_outputs[pe].tolist(),
                                         config.n_mac)):
            slots = []
            for n in chunk:
                tag: NeuronTag = (0, n)
                out_addresses[tag] = (home, vault_sizes[home]
                                      + expected[home])
                expected[home] += 1
                slots.append(GroupSlot(neuron=tag, home_vault=home,
                                       bias=float(bias_arr[n])))
            pe_groups[pe].append(GroupPlan(
                slots=tuple(slots), n_connections=n_in, mode="mac",
                weights_resident=False, shared_state=False, weights=None))
            lanes = [(lane, weight_base[n], (0, n))
                     for lane, n in enumerate(chunk)]
            for c in range(n_in):
                op = g * n_in + c
                # Every lane receives its own state copy (Fig. 11: the
                # temporal buffer takes "16 input pixels and 16 synaptic
                # weights"); the hardware does not broadcast within a PE.
                state_src = (home if layout.duplicate
                             else int(input_owner[c]))
                state_emissions = emissions[state_src]
                state_addr = input_addr[state_src][c]
                for lane, base, neuron in lanes:
                    state_emissions.append(EmissionRecord(
                        state_addr, pe, lane, op, state, neuron))
                    weight_emissions.append(EmissionRecord(
                        base + c, pe, lane, op, weight, neuron))
            stream_items += 2 * n_in * len(chunk)

    vault_data = []
    for channel in range(n_channels):
        array = np.zeros(vault_sizes[channel] + expected[channel],
                         dtype=np.int64)
        if vault_items[channel]:
            array[:vault_sizes[channel]] = vault_items[channel]
        vault_data.append(array)

    return PassPlan(
        vault_emissions=[_sorted_emissions(e) for e in emissions],
        pe_groups=pe_groups, vault_data=vault_data,
        out_addresses=out_addresses, expected_writebacks=expected,
        lut=lut, total_neurons=n_out, stream_items=stream_items)
