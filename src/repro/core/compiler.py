"""Compiler: lower an ``repro.nn`` network to PNG layer descriptors.

The host programs the Neurocube one layer at a time (§IV); this module
produces that program.  Each functional layer becomes one
:class:`LayerDescriptor` carrying the PNG loop bounds and a vault data
layout.  Multi-feature-map convolutions are lowered to one pass per output
map so each pass's kernel fits the PE weight register; when a kernel does
not fit (Table II allows 3,600 bits) the compiler falls back to streaming
the weights from DRAM alongside the states.

Training (§VI-2) compiles to the forward program followed by, per weighted
layer in reverse order, a backward-data pass, a backward-weight pass, and
a weight-update pass, each expressed in the same descriptor vocabulary —
on the Neurocube backpropagation is just more layers of weighted sums.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import NeurocubeConfig
from repro.core.context import wants_validation
from repro.core.layerdesc import LayerDescriptor, NeurocubeProgram, Phase
from repro.errors import MappingError
from repro.memory.layout import conv_layout, fc_layout
from repro.nn.layers import (
    LSTM,
    Conv2D,
    Dense,
    Flatten,
    PixelwiseDense,
    Recurrent,
)
from repro.nn.layers.lstm import GATES
from repro.nn.layers.pool import _Pool2D
from repro.nn.network import Network


def _maybe_validate(program: NeurocubeProgram, config: NeurocubeConfig,
                    validate: bool | None) -> NeurocubeProgram:
    """Run the static plan verifier over a freshly compiled program.

    Raises :class:`repro.errors.PlanCheckError` on any violation.  The
    verifier is imported lazily — :mod:`repro.analysis` depends on the
    core plan types, so a module-level import would be circular.
    """
    if wants_validation(validate):
        from repro.analysis.nccheck import check_program

        check_program(program, config)
    return program


def conv_map_block(in_maps: int, kernel: int,
                   weight_memory_items: int) -> tuple[int, int]:
    """Input-map blocking so each sub-pass's kernel fits the weight
    register.

    Returns ``(maps_per_block, sub_passes)``.  A 7x7 kernel over 8 input
    maps (392 weights) does not fit the 225-item register, so it runs as
    2 sub-passes of 4 maps (196 weights each), carrying partial sums.
    """
    per_map = kernel * kernel
    if per_map > weight_memory_items:
        # Even one map does not fit; weights must stream from DRAM.
        return in_maps, 1
    block = min(in_maps, weight_memory_items // per_map)
    # Prefer an even split so every sub-pass has the same shape.
    while in_maps % block:
        block -= 1
    return block, in_maps // block


def _conv_descriptor(layer: Conv2D, index: int, config: NeurocubeConfig,
                     duplicate: bool, phase: Phase,
                     name: str | None = None) -> LayerDescriptor:
    in_maps, height, width = layer.input_shape
    out_maps, out_h, out_w = layer.output_shape
    block, sub_passes = conv_map_block(in_maps, layer.kernel,
                                       config.weight_memory_items)
    connections = block * layer.kernel * layer.kernel
    resident = connections <= config.weight_memory_items
    layout = conv_layout(height, width, layer.kernel, in_maps, out_maps,
                         config.n_channels, duplicate)
    if not resident:
        # Weights stream from DRAM: two packets per connection.
        layout = dataclasses.replace(layout, packets_per_connection=2)
    return LayerDescriptor(
        name=name or layer.name, kind="conv", phase=phase,
        layer_index=index, passes=out_maps * sub_passes,
        sub_passes=sub_passes, neurons_per_pass=out_h * out_w,
        connections=connections, n_mac=config.n_mac, in_height=height,
        in_width=width, kernel=layer.kernel, layout=layout,
        weights_resident=resident, is_weighted=True,
        activation=layer.activation.name)


def _pool_descriptor(layer: _Pool2D, index: int, config: NeurocubeConfig,
                     duplicate: bool, phase: Phase,
                     name: str | None = None) -> LayerDescriptor:
    maps, height, width = layer.input_shape
    _, out_h, out_w = layer.output_shape
    layout = conv_layout(height, width, layer.size, maps, maps,
                         config.n_channels, duplicate)
    # Pooling has no synaptic weights; zero out the weight accounting the
    # generic conv layout assumed.
    layout = dataclasses.replace(layout, weight_bytes=0)
    return LayerDescriptor(
        name=name or layer.name, kind="pool", phase=phase,
        layer_index=index, passes=maps, neurons_per_pass=out_h * out_w,
        connections=layer.size * layer.size, n_mac=config.n_mac,
        in_height=height, in_width=width, kernel=layer.size, layout=layout,
        weights_resident=True, is_weighted=False,
        activation=layer.activation.name)


def _dense_descriptor(layer: Dense, index: int, config: NeurocubeConfig,
                      duplicate: bool, phase: Phase,
                      name: str | None = None) -> LayerDescriptor:
    inputs = layer.input_shape[0]
    outputs = layer.units
    layout = fc_layout(inputs, outputs, config.n_channels, duplicate)
    return LayerDescriptor(
        name=name or layer.name, kind="fc", phase=phase, layer_index=index,
        passes=1, neurons_per_pass=outputs, connections=inputs,
        n_mac=config.n_mac, in_height=1, in_width=inputs, kernel=0,
        layout=layout, weights_resident=False, is_weighted=True,
        activation=layer.activation.name)


def _pixelwise_descriptor(layer: PixelwiseDense, index: int,
                          config: NeurocubeConfig, duplicate: bool,
                          phase: Phase,
                          name: str | None = None) -> LayerDescriptor:
    in_maps, height, width = layer.input_shape
    resident = in_maps <= config.weight_memory_items
    layout = conv_layout(height, width, 1, in_maps, layer.units,
                         config.n_channels, duplicate)
    if not resident:
        layout = dataclasses.replace(layout, packets_per_connection=2)
    return LayerDescriptor(
        name=name or layer.name, kind="conv", phase=phase,
        layer_index=index, passes=layer.units,
        neurons_per_pass=height * width, connections=in_maps,
        n_mac=config.n_mac, in_height=height, in_width=width, kernel=1,
        layout=layout, weights_resident=resident, is_weighted=True,
        activation=layer.activation.name)


def _recurrent_descriptor(layer: Recurrent, index: int,
                          config: NeurocubeConfig, duplicate: bool,
                          phase: Phase,
                          name: str | None = None) -> LayerDescriptor:
    steps, n_in = layer.input_shape
    connections = n_in + layer.units
    layout = fc_layout(connections, layer.units, config.n_channels,
                       duplicate)
    return LayerDescriptor(
        name=name or layer.name, kind="fc", phase=phase, layer_index=index,
        passes=steps, neurons_per_pass=layer.units,
        connections=connections, n_mac=config.n_mac, in_height=1,
        in_width=connections, kernel=0, layout=layout,
        weights_resident=False, is_weighted=True,
        activation=layer.activation.name)


def _lstm_descriptors(layer: LSTM, index: int, config: NeurocubeConfig,
                      duplicate: bool,
                      phase: Phase) -> list[LayerDescriptor]:
    """Lower an LSTM into per-gate passes plus a cell-update pass.

    This is the paper's §VI recipe: each gate is a fully connected pass
    whose PNG is programmed with that gate's activation LUT (sigmoid for
    i/f/o, tanh for the candidate); the element-wise cell/state update
    (``c = f*c + i*g; h = o*tanh(c)``) is a short weight-free pass over
    the hidden units.
    """
    steps, n_in = layer.input_shape
    connections = n_in + layer.units
    activations = {"i": "sigmoid", "f": "sigmoid", "o": "sigmoid",
                   "g": "tanh"}
    descriptors = []
    for gate in GATES:
        layout = fc_layout(connections, layer.units, config.n_channels,
                           duplicate)
        descriptors.append(LayerDescriptor(
            name=f"{layer.name}/gate_{gate}", kind="fc", phase=phase,
            layer_index=index, passes=steps,
            neurons_per_pass=layer.units, connections=connections,
            n_mac=config.n_mac, in_height=1, in_width=connections,
            kernel=0, layout=layout, weights_resident=False,
            is_weighted=True, activation=activations[gate]))
    # Element-wise update: 3 MAC-equivalents per unit, operands are the
    # gate outputs already resident in the local vault.
    update_layout = dataclasses.replace(
        fc_layout(3, layer.units, config.n_channels, duplicate=False),
        weight_bytes=0, remote_state_fraction=0.0,
        packets_per_connection=1)
    descriptors.append(LayerDescriptor(
        name=f"{layer.name}/cell_update", kind="fc", phase=phase,
        layer_index=index, passes=steps, neurons_per_pass=layer.units,
        connections=3, n_mac=config.n_mac, in_height=1, in_width=3,
        kernel=0, layout=update_layout, weights_resident=True,
        is_weighted=False, activation="tanh"))
    return descriptors


_LOWERERS = [
    (Conv2D, _conv_descriptor),
    (_Pool2D, _pool_descriptor),
    (Dense, _dense_descriptor),
    (PixelwiseDense, _pixelwise_descriptor),
    (Recurrent, _recurrent_descriptor),
]


def descriptor_for_layer(layer, index: int, config: NeurocubeConfig,
                         duplicate: bool, phase: Phase = Phase.FORWARD,
                         name: str | None = None) -> LayerDescriptor | None:
    """Lower one single-descriptor layer; None for reshapes (Flatten)."""
    if isinstance(layer, Flatten):
        return None
    for layer_type, lowerer in _LOWERERS:
        if isinstance(layer, layer_type):
            return lowerer(layer, index, config, duplicate, phase,
                           name=name)
    raise MappingError(
        f"no Neurocube lowering for layer type {type(layer).__name__}")


def descriptors_for_layer(layer, index: int, config: NeurocubeConfig,
                          duplicate: bool,
                          phase: Phase = Phase.FORWARD,
                          ) -> list[LayerDescriptor]:
    """Lower one layer to its descriptor list (empty for reshapes)."""
    if isinstance(layer, LSTM):
        return _lstm_descriptors(layer, index, config, duplicate, phase)
    descriptor = descriptor_for_layer(layer, index, config, duplicate,
                                      phase)
    return [] if descriptor is None else [descriptor]


def compile_inference(network: Network, config: NeurocubeConfig,
                      duplicate: bool = True,
                      validate: bool | None = None) -> NeurocubeProgram:
    """Compile a network's forward pass into a PNG program.

    Args:
        network: a built :class:`repro.nn.Network`.
        config: the target Neurocube.
        duplicate: use the duplication layouts of Fig. 10c/10d (True) or
            the memory-lean layouts of Fig. 10b/10e (False).
        validate: statically verify every descriptor's plan with
            :mod:`repro.analysis.nccheck` before returning, raising
            :class:`repro.errors.PlanCheckError` on the first malformed
            one; None (the default) follows the ambient run context's
            ``validate`` (:class:`repro.core.context.RunContext`).
    """
    descriptors = []
    for index, layer in enumerate(network.layers):
        descriptors.extend(
            descriptors_for_layer(layer, index, config, duplicate))
    if not descriptors:
        raise MappingError(f"network {network.name!r} lowered to nothing")
    program = NeurocubeProgram(
        network_name=network.name, descriptors=tuple(descriptors),
        duplicate=duplicate, training=False)
    return _maybe_validate(program, config, validate)


def compile_training(network: Network, config: NeurocubeConfig,
                     duplicate: bool = True,
                     validate: bool | None = None) -> NeurocubeProgram:
    """Compile one training step (forward + backward + update).

    The backward-data pass of a layer moves exactly as many MACs as its
    forward pass (each connection propagates one gradient term), as does
    the backward-weight pass (each connection accumulates one outer-
    product term); the update pass touches each weight once.  Pooling
    contributes a routing-only backward-data pass.  The first
    compute layer skips backward-data (no upstream gradient is needed).
    """
    # The forward descriptors are re-validated as part of the training
    # program below; skip the inner hook so they are not checked twice.
    forward = compile_inference(network, config, duplicate, validate=False)
    descriptors = list(forward.descriptors)
    first_index = forward.descriptors[0].layer_index
    for desc in reversed(forward.descriptors):
        if desc.layer_index != first_index:
            descriptors.append(dataclasses.replace(
                desc, name=f"{desc.name}/bwd_data",
                phase=Phase.BACKWARD_DATA))
        if desc.is_weighted:
            descriptors.append(dataclasses.replace(
                desc, name=f"{desc.name}/bwd_weight",
                phase=Phase.BACKWARD_WEIGHT))
            # Weights owned by this descriptor: a conv pass holds one
            # kernel per pass (shared across neurons); an FC pass holds
            # one row per neuron (shared across its time-step passes).
            if desc.kind == "conv":
                weights = desc.connections * desc.passes
            else:
                weights = desc.connections * desc.neurons_per_pass
            weights = max(1, weights)
            # Each vault updates the weights it stores: streaming is
            # entirely vault-local, so no remote state traffic.
            update_layout = dataclasses.replace(
                fc_layout(weights, 1, config.n_channels, duplicate=False),
                remote_state_fraction=0.0)
            descriptors.append(LayerDescriptor(
                name=f"{desc.name}/update", kind=desc.kind,
                phase=Phase.WEIGHT_UPDATE, layer_index=desc.layer_index,
                passes=1, neurons_per_pass=weights, connections=1,
                n_mac=config.n_mac, in_height=1, in_width=weights,
                kernel=0, layout=update_layout, weights_resident=False,
                is_weighted=True, activation="identity"))
    program = NeurocubeProgram(
        network_name=f"{network.name}/train",
        descriptors=tuple(descriptors), duplicate=duplicate, training=True)
    return _maybe_validate(program, config, validate)
