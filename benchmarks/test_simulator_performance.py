"""Microbenchmarks of the simulators themselves.

Not a paper artifact: these check the reproduction's own fast paths —
parallel, skip-ahead, memoized, traced and fault-injected runs are
bit-identical to the plain path and within their speed bounds of it.
The cycle-simulation rate itself is tracked by neurobench
(``benchmarks/e2e/``) against ``BENCH_trajectory.json``.
"""

import dataclasses
import time

import numpy as np

from repro.core import (
    AnalyticModel,
    NeurocubeConfig,
    NeurocubeSimulator,
    compile_inference,
)
from repro.fixedpoint import quantize_float
from repro.nn import models
from repro.obs import TraceOptions


def test_traced_run_overhead():
    """Full tracing (events + counters) on the smoke layer: identical
    cycles, and host time within a generous bound of the untraced run.

    The bound is deliberately loose (4x) — event recording on a small
    layer is dominated by fixed per-pass costs — but catches an
    accidentally quadratic or unconditionally-sampling tracer.
    """
    config = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(24, 24, 3, qformat=None)
    desc = compile_inference(net, config).descriptors[0]

    plain = NeurocubeSimulator(config)
    start = time.perf_counter()
    run_plain = plain.run_descriptor(desc)
    plain_seconds = time.perf_counter() - start

    traced = NeurocubeSimulator(config, trace=TraceOptions())
    run_traced = traced.run_descriptor(desc)
    assert run_traced.cycles == run_plain.cycles
    assert run_traced.trace is not None
    assert run_traced.trace.events
    assert run_traced.host_seconds <= max(4 * plain_seconds, 1.0)


def test_analytic_model_latency():
    """Full paper-scale network evaluation must stay interactive."""
    config = NeurocubeConfig.hmc_15nm()
    model = AnalyticModel(config)
    net = models.scene_labeling_convnn(qformat=None)
    report = model.evaluate_network(net, True)
    assert report.throughput_gops > 0


def test_parallel_conv_speedup(speedup_gate):
    """Multi-output-map conv: 4 workers vs serial, bit-identical.

    Eight independent output maps fan out over the process pool.  With
    memoization on only the first map's pass would be simulated (see
    :func:`test_batched_functional_conv_speedup`), so it is off here:
    this measures the pool.  The wall-clock speedup assertion only
    fires on hosts with at least four usable cores (CI runners qualify;
    a single-core container cannot physically show parallel speedup,
    so there we only check identity).
    """
    base = NeurocubeConfig.hmc_15nm(sim_memoize=False)
    net = models.single_conv_layer(20, 20, 5, in_maps=1, out_maps=8,
                                   seed=7)
    x = quantize_float(
        np.random.default_rng(7).standard_normal((1, 20, 20)),
        base.qformat)
    desc = compile_inference(net, base).descriptors[0]
    layer = net.layers[0]

    serial = NeurocubeSimulator(dataclasses.replace(base, sim_workers=1))
    parallel = NeurocubeSimulator(dataclasses.replace(base, sim_workers=4))

    start = time.perf_counter()
    run_serial = serial.run_descriptor(desc, layer, x)
    serial_seconds = time.perf_counter() - start

    run_parallel = parallel.run_descriptor(desc, layer, x)

    np.testing.assert_array_equal(run_serial.output, run_parallel.output)
    assert run_serial.cycles == run_parallel.cycles
    assert run_serial.macs_fired == run_parallel.macs_fired
    speedup_gate(serial_seconds / run_parallel.host_seconds)


def test_skip_ahead_overhead():
    """Skip-ahead on vs off on a latency-dominated conv: never slower
    than 1.5x the plain path, usually faster."""
    base = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(16, 16, 3, qformat=None)
    desc = compile_inference(net, base).descriptors[0]

    plain = NeurocubeSimulator(
        dataclasses.replace(base, sim_skip_ahead=False))
    start = time.perf_counter()
    run_plain = plain.run_descriptor(desc)
    plain_seconds = time.perf_counter() - start

    skipping = NeurocubeSimulator(base)
    run_skip = skipping.run_descriptor(desc)
    assert run_skip.cycles == run_plain.cycles
    assert run_skip.host_seconds <= 1.5 * plain_seconds


def test_memoized_conv_speedup():
    """Timing-mode conv with 16 structurally identical output maps:
    memoization must deliver at least a 3x wall-clock speedup (one map
    simulated, fifteen replayed) with bit-identical cycles and folded
    statistics.  This is the acceptance benchmark for timing-pass
    memoization — the layer is big enough that the replayed maps, not
    fixed per-run costs, dominate the unmemoized wall-clock."""
    base = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(24, 24, 3, in_maps=1, out_maps=16,
                                   qformat=None)
    desc = compile_inference(net, base).descriptors[0]

    plain = NeurocubeSimulator(
        dataclasses.replace(base, sim_memoize=False))
    start = time.perf_counter()
    run_plain = plain.run_descriptor(desc)
    plain_seconds = time.perf_counter() - start

    memoized = NeurocubeSimulator(base)
    run_memo = memoized.run_descriptor(desc)
    assert run_memo.cycles == run_plain.cycles
    assert run_memo.packets == run_plain.packets
    assert run_memo.macs_fired == run_plain.macs_fired
    assert run_memo.pe_busy_cycles == run_plain.pe_busy_cycles
    assert run_memo.pe_idle_cycles == run_plain.pe_idle_cycles
    assert run_memo.inject_stall_cycles == run_plain.inject_stall_cycles
    assert plain_seconds / run_memo.host_seconds >= 3.0


def test_batched_functional_conv_speedup():
    """Functional conv with 8 output maps: simulating the first map's
    pass and evaluating the other seven maps' write-backs from their
    own plans must be at least 3x faster than simulating each map's
    pass, with identical outputs, cycles and folded statistics.  The
    acceptance benchmark for functional map batching: the batched run
    moves one map's packets instead of eight."""
    base = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(20, 20, 5, in_maps=1, out_maps=8,
                                   seed=7)
    x = quantize_float(
        np.random.default_rng(7).standard_normal((1, 20, 20)),
        base.qformat)
    desc = compile_inference(net, base).descriptors[0]
    layer = net.layers[0]

    plain = NeurocubeSimulator(
        dataclasses.replace(base, sim_memoize=False))
    start = time.perf_counter()
    run_plain = plain.run_descriptor(desc, layer, x)
    plain_seconds = time.perf_counter() - start

    batched = NeurocubeSimulator(base)
    run_batched = batched.run_descriptor(desc, layer, x)
    np.testing.assert_array_equal(run_batched.output, run_plain.output)
    assert run_batched.cycles == run_plain.cycles
    assert run_batched.packets == run_plain.packets
    assert run_batched.macs_fired == run_plain.macs_fired
    assert run_batched.pe_busy_cycles == run_plain.pe_busy_cycles
    assert run_batched.pe_idle_cycles == run_plain.pe_idle_cycles
    assert (run_batched.inject_stall_cycles
            == run_plain.inject_stall_cycles)
    assert plain_seconds / run_batched.host_seconds >= 3.0


def test_fault_injection_overhead():
    """Seeded vault-jitter campaign on the smoke conv layer.

    Two invariants ride on this benchmark: a rate-0 injector must be
    cycle-invisible (the hooks may not perturb the fault-free path), and
    a seeded jitter campaign must actually inject.  Its exact counters
    are pinned in ``tests/faults/``.
    """
    from repro.faults import FaultConfig

    config = NeurocubeConfig.hmc_15nm()
    net = models.single_conv_layer(24, 24, 3, qformat=None)
    desc = compile_inference(net, config).descriptors[0]

    clean = NeurocubeSimulator(config).run_descriptor(desc)
    idle = NeurocubeSimulator(
        config, faults=FaultConfig(seed=5)).run_descriptor(desc)
    assert idle.cycles == clean.cycles

    faults = FaultConfig(seed=5, vault_jitter_rate=0.02,
                         vault_jitter_max=6)
    simulator = NeurocubeSimulator(config, faults=faults)
    run = simulator.run_descriptor(desc)
    assert run.fault_stats is not None
    assert run.fault_stats.jitter_events > 0


def test_functional_forward_throughput():
    """The numpy substrate's forward rate on the 64x64 scene net."""
    net = models.scene_labeling_convnn(height=64, width=64,
                                       qformat=None)
    x = np.random.default_rng(0).uniform(-1, 1, (1, 3, 64, 64))
    out = net.predict(x)
    assert out.shape[0] == 1
