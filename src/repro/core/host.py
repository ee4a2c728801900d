"""Host / global controller (paper §IV-B/C, Fig. 8).

The host programs the Neurocube one layer at a time: it asserts the
configuration-enable signal, writes each PNG's configuration registers
(loop bounds, image width, base addresses, kernel offsets, LUT), then
deasserts the signal to start the FSMs and waits for ``layer done``
(Fig. 8c).  The paper assumes direct host programming over the HMC
external links (§IV-C).

This module is that host software made explicit:

* :func:`registers_for_descriptor` produces the actual
  :class:`~repro.core.png.PNGRegisters` values for a compiled
  descriptor — the bridge between the compiler and the register-level
  FSM model, validated by tests that the FSM's event count equals the
  descriptor's MAC count.
* :class:`HostController` sequences a program layer by layer and
  accounts the host-interaction cost (register writes over the external
  links) that the computation itself cannot hide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import NeurocubeConfig
from repro.core.layerdesc import LayerDescriptor, NeurocubeProgram
from repro.core.png import AddressGenerator, PNGRegisters
from repro.errors import ConfigurationError
from repro.memory.layout import (FullLayout, Rect, contiguous_split,
                                 fc_input_slices, owned_outputs,
                                 partition_grid, stored_address,
                                 window_span)

#: Scalar configuration registers written per PNG per pass: neuron
#: count, connection count, MAC count, image width, output width,
#: Addr_last, weight base, and the control word.
SCALAR_REGISTERS_PER_PNG = 8

#: External-link register-write rate: one register per link clock; the
#: links run at the reference clock in this model.
WRITES_PER_CYCLE = 1


def kernel_offsets(kernel: int) -> tuple[tuple[int, int], ...]:
    """The Eq. 4 connectivity offsets of a square kernel, row-major."""
    if kernel < 1:
        raise ConfigurationError(f"kernel must be >= 1, got {kernel}")
    return tuple((dx, dy) for dy in range(kernel) for dx in range(kernel))


def registers_for_descriptor(desc: LayerDescriptor,
                             addr_last: int = 0,
                             weight_base: int = 0) -> PNGRegisters:
    """The PNG configuration-register values for one descriptor pass.

    For locally connected layers the offsets table carries the kernel
    (repeated per input map of the pass); fully connected layers leave
    it empty so the connection counter indexes the input vector
    directly (§IV-B).
    """
    if desc.kind in ("conv", "pool"):
        per_map = kernel_offsets(desc.kernel)
        maps = max(1, desc.connections // (desc.kernel * desc.kernel))
        offsets = per_map * maps
        out_width = desc.in_width - desc.kernel + 1
        if desc.kind == "pool":
            out_width = desc.in_width // desc.kernel
    else:
        offsets = ()
        out_width = None
    return PNGRegisters(
        n_neurons=desc.neurons_per_pass, n_connections=desc.connections,
        n_mac=desc.n_mac, image_width=desc.in_width,
        output_width=out_width, addr_last=addr_last,
        weight_base=weight_base, offsets=offsets,
        stride=desc.kernel if desc.kind == "pool" else 1)


def local_output_shape(desc: LayerDescriptor) -> tuple[int, int, int]:
    """``(stride, out_width, out_height)`` of a conv or pool pass:
    pooling windows tile the input, conv windows slide by one pixel."""
    kernel = desc.kernel
    if desc.kind == "pool":
        return kernel, desc.in_width // kernel, desc.in_height // kernel
    return 1, desc.in_width - kernel + 1, desc.in_height - kernel + 1


def pe_output_rects(desc: LayerDescriptor, n_pe: int) -> list[Rect | None]:
    """Each PE's output rectangle in a conv or pool pass.

    The PEs tile the input image (:func:`partition_grid`) and each owns
    the outputs whose window centre or origin lies in its tile
    (:func:`owned_outputs`); None for a PE that owns no output.
    """
    stride, out_w, out_h = local_output_shape(desc)
    return [owned_outputs(tile, desc.kernel, stride, out_w, out_h)
            for tile in partition_grid(desc.in_height, desc.in_width, n_pe)]


def _one_vault_per_pe(desc: LayerDescriptor,
                      config: NeurocubeConfig) -> bool:
    """A duplicated layout on a cube pairing each vault with one PE."""
    return (desc.layout.duplicate
            and config.n_channels == config.n_pe == desc.layout.vaults)


def feeds_own_pe_only(desc: LayerDescriptor, config: NeurocubeConfig,
                      owned: list[Rect | None] | None = None) -> bool:
    """Whether every vault of a pass sources items for its own PE only.

    Then :func:`registers_for_vault_pass` programs each PNG.  That takes
    a duplicated layout with one vault per PE and, for a conv or pool
    pass, every PE's windows inside its vault's stored tile.  ``owned``
    is :func:`pe_output_rects` of the pass (PE ``p`` pairs with vault
    ``p``), computed when omitted.
    """
    if not _one_vault_per_pe(desc, config):
        return False
    layout = desc.layout
    if isinstance(layout, FullLayout):
        return True
    if owned is None:
        owned = pe_output_rects(desc, config.n_pe)
    stride = local_output_shape(desc)[0]
    return all(rect is None
               or stored.encloses(window_span(rect, desc.kernel, stride))
               for rect, stored in zip(owned, layout.stored_tiles,
                                       strict=True))


def registers_for_vault_pass(desc: LayerDescriptor,
                             config: NeurocubeConfig, vault: int,
                             owned: list[Rect | None] | None = None
                             ) -> PNGRegisters | None:
    """Per-vault register values for a duplicated pass.

    With duplication and one vault per PE (``n_channels == n_pe``),
    every vault sources only its own PE's neurons (Fig. 10c/d), so each
    PNG walks its own slice of the layer and the whole mapping folds
    into the paper's register set over the vault image
    (:func:`repro.memory.layout.stored_address`):

    * locally connected: the neuron counter covers the PE's output
      rectangle (``output_width`` = its clipped width); ``W``
      (``image_width``) is the *stored* tile's row pitch; ``Addr_last``
      is the stored address of the PE's first window origin — exactly
      what a programmable base-address register is for.  Each offset is
      a kernel tap's stored address relative to the tile origin, as
      (column, row) at that pitch, so map ``c`` of a multi-map pass sits
      ``c * stored_height`` rows down; pooling sets ``stride`` to its
      window size.
    * fully connected: the neuron counter covers the PE's share of the
      output neurons.  Every vault holds the input vector at address 0
      and its PE's weight rows right after it, so ``Addr_last`` is 0 and
      the weight base is the input length.

    ``owned`` is :func:`pe_output_rects` of the pass, computed when
    omitted.  Returns None for a vault whose PE owns no neurons.

    Raises:
        ConfigurationError: for passes in which a vault also feeds other
            PEs — no duplication, fewer vaults than PEs (DDR3), or
            windows that reach past the vault's stored tile
            (:func:`feeds_own_pe_only` is False).
    """
    if not _one_vault_per_pe(desc, config):
        raise ConfigurationError(
            "per-vault registers are defined for duplicated passes with "
            "one vault per PE")
    layout = desc.layout
    pe = config.pe_of_channel(vault)
    if isinstance(layout, FullLayout):
        n_in = desc.connections
        outputs = contiguous_split(desc.neurons_per_pass, config.n_pe)[pe]
        if not outputs:
            return None
        inputs = fc_input_slices(n_in, config.n_channels, True)[vault]
        return PNGRegisters(
            n_neurons=len(outputs), n_connections=n_in,
            n_mac=config.n_mac, image_width=n_in,
            weight_base=len(inputs))
    if owned is None:
        owned = pe_output_rects(desc, config.n_pe)
    rect = owned[pe]
    if rect is None:
        return None
    kernel = desc.kernel
    stride = local_output_shape(desc)[0]
    maps = 1 if desc.kind == "pool" else desc.connections // (kernel * kernel)
    stored = layout.stored_tiles[vault]
    span = window_span(rect, kernel, stride)
    if not stored.encloses(span):
        raise ConfigurationError(
            f"{desc.name}: vault {vault}'s windows reach past its stored "
            f"tile; other vaults must source them")
    taps = (stored_address(stored, stored.x0 + n_x, stored.y0 + n_y, c)
            for c in range(maps) for n_x, n_y in kernel_offsets(kernel))
    offsets = tuple((column, row) for row, column
                    in (divmod(tap, stored.width) for tap in taps))
    return PNGRegisters(
        n_neurons=rect.area, n_connections=len(offsets),
        n_mac=config.n_mac, image_width=stored.width,
        output_width=rect.width,
        addr_last=stored_address(stored, span.x0, span.y0),
        offsets=offsets, stride=stride)


@dataclass
class LayerProgrammingCost:
    """Host-side cost of configuring one descriptor.

    Attributes:
        name: descriptor name.
        register_writes: total register writes across PNGs and passes
            (scalars plus the kernel-offset table).
        lut_loaded: whether a new activation LUT had to be loaded
            (the LUT persists between passes with the same activation).
    """

    name: str
    register_writes: int
    lut_loaded: bool

    def cycles(self, writes_per_cycle: int = WRITES_PER_CYCLE) -> int:
        """Reference cycles to push the writes over the links."""
        return -(-self.register_writes // writes_per_cycle)


@dataclass
class HostSchedule:
    """The host's layer-at-a-time schedule for a compiled program."""

    program: NeurocubeProgram
    costs: list[LayerProgrammingCost] = field(default_factory=list)

    @property
    def total_programming_cycles(self) -> int:
        return sum(cost.cycles() for cost in self.costs)

    @property
    def lut_loads(self) -> int:
        return sum(1 for cost in self.costs if cost.lut_loaded)


class HostController:
    """The direct-host-programming controller of §IV-C."""

    def __init__(self, config: NeurocubeConfig) -> None:
        self.config = config

    def programming_cost(self, desc: LayerDescriptor,
                         previous_activation: str | None
                         ) -> LayerProgrammingCost:
        """Register writes to configure one descriptor on every PNG.

        Scalar registers are rewritten every pass; the kernel-offset
        table once per descriptor (it is identical across passes); the
        LUT only when the activation changes from the previous
        descriptor (the per-layer LUT update of §VI).
        """
        scalars = (SCALAR_REGISTERS_PER_PNG * self.config.n_channels
                   * desc.passes)
        offsets = 0
        if desc.kind in ("conv", "pool"):
            offsets = desc.connections * self.config.n_channels
        writes = scalars + offsets
        lut_loaded = desc.activation != previous_activation
        return LayerProgrammingCost(name=desc.name,
                                    register_writes=writes,
                                    lut_loaded=lut_loaded)

    def schedule(self, program: NeurocubeProgram) -> HostSchedule:
        """Cost out the whole program's host interaction."""
        schedule = HostSchedule(program=program)
        previous = None
        for desc in program.descriptors:
            schedule.costs.append(
                self.programming_cost(desc, previous))
            previous = desc.activation
        return schedule

    def validate_registers(self, desc: LayerDescriptor) -> None:
        """Check that the register values drive the FSM over exactly the
        descriptor's work (used by tests and as a mapping sanity check).
        """
        registers = registers_for_descriptor(desc)
        generator = AddressGenerator(registers)
        expected = desc.neurons_per_pass * desc.connections
        if generator.total_events != expected:
            raise ConfigurationError(
                f"{desc.name}: FSM generates {generator.total_events} "
                f"events per pass, descriptor expects {expected}")
