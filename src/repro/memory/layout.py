"""Data-layout planning across vaults (paper Fig. 10 and §V-A).

The Neurocube stores a layer's inputs and weights partitioned over the
HMC's vaults.  Two strategies exist per connectivity class:

* **Locally connected (2D conv)** — the input image is tiled into one
  rectangle per vault (Fig. 10b).  *Duplication* additionally copies a halo
  of neighbouring pixels into each vault (Fig. 10c) so every window access
  is local; without it, window pixels falling in another vault's tile cross
  the NoC.
* **Fully connected** — the weight matrix is always split by output neuron
  across vaults.  *Duplication* copies the whole input vector into every
  vault (Fig. 10d); without it the input vector is split and most state
  accesses are remote (Fig. 10e).

This module computes the exact geometry: per-vault tiles, duplicated
bytes, and the remote-access fraction that drives NoC traffic in both the
cycle simulator and the analytic model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.memory.vault import ITEM_BITS

ITEM_BYTES = ITEM_BITS // 8


@dataclass(frozen=True)
class Rect:
    """A half-open rectangle ``[x0, x1) x [y0, y1)`` in pixel coordinates."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise MappingError(f"empty rectangle {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return self.width * self.height

    def contains(self, x: int, y: int) -> bool:
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    def encloses(self, other: Rect) -> bool:
        """Whether ``other`` lies entirely inside this rectangle."""
        return (self.x0 <= other.x0 and self.y0 <= other.y0
                and other.x1 <= self.x1 and other.y1 <= self.y1)

    def expanded(self, halo: int, width: int, height: int) -> Rect:
        """Grow by ``halo`` pixels on every side, clipped to the image."""
        return Rect(max(0, self.x0 - halo), max(0, self.y0 - halo),
                    min(width, self.x1 + halo), min(height, self.y1 + halo))


def grid_dimensions(n_parts: int) -> tuple[int, int]:
    """Choose a near-square ``rows x cols`` factorisation of ``n_parts``."""
    if n_parts < 1:
        raise MappingError(f"n_parts must be >= 1, got {n_parts}")
    best = (1, n_parts)
    for rows in range(1, int(np.sqrt(n_parts)) + 1):
        if n_parts % rows == 0:
            best = (rows, n_parts // rows)
    return best


def partition_grid(height: int, width: int, n_parts: int) -> list[Rect]:
    """Tile a ``height x width`` image into ``n_parts`` rectangles.

    Uses a near-square grid (4x4 for 16 vaults, 1x2 for DDR3's two
    channels) with remainder pixels spread over the leading rows/columns.
    """
    rows, cols = grid_dimensions(n_parts)
    if rows > height or cols > width:
        raise MappingError(
            f"cannot tile a {height}x{width} image into a {rows}x{cols} "
            f"grid")
    y_edges = np.linspace(0, height, rows + 1).astype(int)
    x_edges = np.linspace(0, width, cols + 1).astype(int)
    return [Rect(int(x_edges[c]), int(y_edges[r]),
                 int(x_edges[c + 1]), int(y_edges[r + 1]))
            for r in range(rows) for c in range(cols)]


def owned_outputs(tile: Rect, kernel: int, stride: int, out_w: int,
                  out_h: int) -> Rect | None:
    """The output neurons a PE computes, as a rectangle of output
    coordinates: those whose window centre (convolution, ``stride`` 1)
    or window origin (pooling, ``stride`` = ``kernel``) lies in the PE's
    input ``tile``.  None when the PE owns no neuron."""
    if stride == 1:
        half = kernel // 2
        x_lo, x_hi = tile.x0 - half, tile.x1 - half
        y_lo, y_hi = tile.y0 - half, tile.y1 - half
    else:
        x_lo, x_hi = -(-tile.x0 // stride), -(-tile.x1 // stride)
        y_lo, y_hi = -(-tile.y0 // stride), -(-tile.y1 // stride)
    x_lo, y_lo = max(0, x_lo), max(0, y_lo)
    x_hi, y_hi = min(out_w, x_hi), min(out_h, y_hi)
    if x_hi <= x_lo or y_hi <= y_lo:
        return None
    return Rect(x_lo, y_lo, x_hi, y_hi)


def window_span(outputs: Rect, kernel: int, stride: int) -> Rect:
    """The input pixels the windows of a rectangle of outputs read."""
    return Rect(outputs.x0 * stride, outputs.y0 * stride,
                (outputs.x1 - 1) * stride + kernel,
                (outputs.y1 - 1) * stride + kernel)


def contiguous_split(items: int, parts: int) -> list[range]:
    """Split ``range(items)`` into ``parts`` contiguous runs, the leading
    ``items % parts`` runs one longer (how fully connected layers share
    out input items over vaults and output neurons over PEs)."""
    share, extra = divmod(items, parts)
    starts = [p * share + min(p, extra) for p in range(parts + 1)]
    return [range(starts[p], starts[p + 1]) for p in range(parts)]


# ---- vault images ------------------------------------------------------
# A vault of a locally connected pass stores its tile of every input map,
# map after map, each row-major with the tile's width as row pitch; the
# output space follows the last map.  A vault of a fully connected pass
# stores its input slice from address 0, then the weight rows of its
# PEs' neurons, then the output space.


def stored_address(tile: Rect, x: int, y: int, pmap: int = 0) -> int:
    """Item address of pixel ``(x, y)`` of input map ``pmap`` in a vault
    storing ``tile``: map ``pmap``'s rows continue map ``pmap - 1``'s."""
    return (pmap * tile.height + y - tile.y0) * tile.width + x - tile.x0


def stored_size(tile: Rect, maps: int) -> int:
    """Items a vault storing ``tile`` of ``maps`` input maps holds before
    its output space."""
    return maps * tile.area


def stored_image(maps: np.ndarray, tile: Rect) -> np.ndarray:
    """The items a vault storing ``tile`` holds for ``(C, H, W)`` input
    ``maps``, in :func:`stored_address` order."""
    return maps[:, tile.y0:tile.y1, tile.x0:tile.x1].ravel()


def fc_input_slices(inputs: int, vaults: int,
                    duplicate: bool) -> list[range]:
    """The input items each vault of a fully connected pass stores from
    address 0: all of them when duplicating (Fig. 10d), else a
    contiguous share (Fig. 10e)."""
    if duplicate:
        return [range(inputs)] * vaults
    return contiguous_split(inputs, vaults)


@dataclass(frozen=True)
class LayoutPlan:
    """Common result of a layout decision for one layer.

    Attributes:
        connectivity: "local" or "full".
        duplicate: whether the duplication strategy is in force.
        vaults: number of vaults used.
        state_bytes: bytes of input neuron state stored once.
        weight_bytes: bytes of synaptic weights stored once.
        duplicated_bytes: extra bytes stored due to duplication.
        remote_state_fraction: fraction of *state* accesses that cross
            vaults (weights are always resident with the consuming PE's
            vault or weight memory, §V-A1).
        packets_per_connection: NoC packets per connection evaluation;
            2 when weights stream from DRAM alongside states, 1 when the
            weights live in PE weight memory.
    """

    connectivity: str
    duplicate: bool
    vaults: int
    state_bytes: int
    weight_bytes: int
    duplicated_bytes: int
    remote_state_fraction: float
    packets_per_connection: int

    @property
    def total_bytes(self) -> int:
        """All bytes stored, including duplication overhead."""
        return self.state_bytes + self.weight_bytes + self.duplicated_bytes

    @property
    def memory_overhead(self) -> float:
        """Duplicated bytes relative to the un-duplicated footprint."""
        base = self.state_bytes + self.weight_bytes
        return self.duplicated_bytes / base if base else 0.0

    @property
    def remote_packet_fraction(self) -> float:
        """Fraction of all NoC-injected packets that travel laterally."""
        state_packets = 1.0
        total_packets = float(self.packets_per_connection)
        return self.remote_state_fraction * state_packets / total_packets


@dataclass(frozen=True)
class ConvLayout(LayoutPlan):
    """Layout of a locally connected layer; adds the tile geometry.

    Attributes:
        tiles: per-vault owned input tiles.
        stored_tiles: per-vault stored tiles (expanded by the halo when
            duplicating).
        kernel: convolution kernel side.
    """

    tiles: tuple[Rect, ...] = ()
    stored_tiles: tuple[Rect, ...] = ()
    kernel: int = 1


@dataclass(frozen=True)
class FullLayout(LayoutPlan):
    """Layout of a fully connected layer.

    Attributes:
        inputs: input-vector length.
        outputs: output-neuron count.
    """

    inputs: int = 0
    outputs: int = 0


def _conv_remote_fraction(height: int, width: int, kernel: int,
                          tiles: list[Rect]) -> float:
    """Exact fraction of window accesses that leave the owning tile.

    Builds the input-ownership map and counts, over every output neuron
    and every kernel offset, accesses whose input pixel belongs to a
    different vault than the neuron's owner.  The neuron's owner is the
    vault owning its window's top-left pixel's tile-expanded centre.
    """
    owner = np.empty((height, width), dtype=np.int32)
    for vault, tile in enumerate(tiles):
        owner[tile.y0:tile.y1, tile.x0:tile.x1] = vault
    out_h = height - kernel + 1
    out_w = width - kernel + 1
    if out_h < 1 or out_w < 1:
        raise MappingError(
            f"kernel {kernel} larger than image {height}x{width}")
    half = kernel // 2
    # Owner of each output neuron: the vault holding its window centre.
    centre = owner[half:half + out_h, half:half + out_w]
    remote = 0
    for dy in range(kernel):
        for dx in range(kernel):
            window = owner[dy:dy + out_h, dx:dx + out_w]
            remote += int(np.count_nonzero(window != centre))
    total = out_h * out_w * kernel * kernel
    return remote / total


def conv_layout(height: int, width: int, kernel: int, in_maps: int,
                out_maps: int, vaults: int,
                duplicate: bool) -> ConvLayout:
    """Plan a locally connected layer's storage across vaults.

    Weights (``out_maps * in_maps * kernel^2`` values) are small and, per
    §V-A1, duplicated into every PE's weight memory; only states stream
    from DRAM, so each connection costs one NoC packet.

    Args:
        height, width: input image size.
        kernel: square kernel side.
        in_maps, out_maps: feature-map counts.
        vaults: number of vaults (= PEs).
        duplicate: store overlapped halos (Fig. 10c) to kill lateral
            traffic at the price of duplicated pixels.
    """
    tiles = partition_grid(height, width, vaults)
    halo = kernel // 2
    kernel_weights = out_maps * in_maps * kernel * kernel
    state_bytes = in_maps * height * width * ITEM_BYTES
    weight_bytes = kernel_weights * ITEM_BYTES
    if duplicate:
        stored = [tile.expanded(halo, width, height) for tile in tiles]
        extra_pixels = sum(s.area for s in stored) - height * width
        duplicated = extra_pixels * in_maps * ITEM_BYTES
        remote = 0.0
    else:
        stored = list(tiles)
        duplicated = 0
        remote = _conv_remote_fraction(height, width, kernel, tiles)
    # Weight memory duplication across PEs is counted as SRAM, not DRAM,
    # so it does not appear in duplicated_bytes (it appears in Table II's
    # weight-register area instead).
    return ConvLayout(
        connectivity="local", duplicate=duplicate, vaults=vaults,
        state_bytes=state_bytes, weight_bytes=weight_bytes,
        duplicated_bytes=duplicated, remote_state_fraction=remote,
        packets_per_connection=1, tiles=tuple(tiles),
        stored_tiles=tuple(stored), kernel=kernel)


def fc_layout(inputs: int, outputs: int, vaults: int,
              duplicate: bool) -> FullLayout:
    """Plan a fully connected layer's storage across vaults.

    The ``outputs x inputs`` weight matrix is split by output neuron
    across vaults and streams from DRAM (it is far too large for PE weight
    memory), so each connection costs two packets: one weight, one state.

    With duplication the input vector is copied into every vault
    (Fig. 10d): all accesses local, overhead ``(vaults-1) * inputs``
    items.  Without duplication the input vector is scattered (Fig. 10e)
    and a fraction ``(vaults-1)/vaults`` of state reads are remote.
    """
    if inputs < 1 or outputs < 1:
        raise MappingError(
            f"fully connected layer needs inputs, outputs >= 1; got "
            f"{inputs}, {outputs}")
    if vaults < 1:
        raise MappingError(f"vaults must be >= 1, got {vaults}")
    state_bytes = inputs * ITEM_BYTES
    weight_bytes = inputs * outputs * ITEM_BYTES
    if duplicate:
        duplicated = (vaults - 1) * inputs * ITEM_BYTES
        remote = 0.0
    else:
        duplicated = 0
        remote = (vaults - 1) / vaults
    return FullLayout(
        connectivity="full", duplicate=duplicate, vaults=vaults,
        state_bytes=state_bytes, weight_bytes=weight_bytes,
        duplicated_bytes=duplicated, remote_state_fraction=remote,
        packets_per_connection=2, inputs=inputs, outputs=outputs)
