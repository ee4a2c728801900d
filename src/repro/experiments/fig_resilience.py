"""Extension experiment: inference accuracy vs DRAM bit-error rate.

Not a paper figure — the paper assumes fault-free HMC vaults.  This
experiment uses :mod:`repro.faults` to sweep a DRAM bit-error rate
across a scaled-down scene-labeling ConvNN (same seven-layer topology as
Fig. 9, shrunk until the cycle simulator is fast) and measures how far
the faulted outputs drift from the fault-free run, with and without the
SECDED ECC model.

Every point is one functional whole-network cycle simulation under a
run context carrying that point's fault configuration (and the ambient
context's other hooks); the injected fault set is a pure function of
(seed, rate, ecc), so the sweep is exactly reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core import NeurocubeSimulator, RunContext
from repro.core.config import NeurocubeConfig
from repro.core.context import current_context
from repro.experiments.registry import register
from repro.faults import ECC_MODES, FaultConfig
from repro.nn import models

#: Per-bit error rates swept (0 is the identity sanity point).
BIT_ERROR_RATES = (0.0, 1e-6, 1e-5, 1e-4, 1e-3)

#: Scaled-down scene-labeling workload: smallest input that survives
#: three valid 3x3 convolutions and two 2x2 poolings on the 4x4 vault
#: grid (RGB input, like the paper's street scenes).
IMAGE_SIDE = 22
CONV_MAPS = (2, 3, 4)
HIDDEN_UNITS = 16
CLASSES = 4


@dataclass
class ResiliencePoint:
    """One (bit-error rate, ECC mode) sweep point.

    Attributes:
        ber: per-bit DRAM read error rate.
        ecc: "none" or "secded".
        top1_match: faulted argmax equals the fault-free argmax.
        mean_abs_error: mean |faulted - clean| over the output vector.
        max_abs_error: max |faulted - clean| over the output vector.
        flip_events: DRAM items that drew at least one bit flip.
        corrupted_items: items whose corruption reached the datapath
            (flips the ECC model could not absorb).
        ecc_corrected: single-bit flips the SECDED model corrected.
        degraded: graceful-degradation records across the network.
    """

    ber: float
    ecc: str
    top1_match: bool
    mean_abs_error: float
    max_abs_error: float
    flip_events: int
    corrupted_items: int
    ecc_corrected: int
    degraded: int


@dataclass
class ResilienceResult:
    """Accuracy-vs-BER sweep outcome."""

    baseline_output: np.ndarray | None = None
    points: list[ResiliencePoint] = field(default_factory=list)

    def points_for(self, ecc: str) -> list[ResiliencePoint]:
        return [p for p in self.points if p.ecc == ecc]

    def to_table(self) -> str:
        lines = ["Extension — inference accuracy vs DRAM bit-error rate "
                 f"(scene-labeling ConvNN, {IMAGE_SIDE}x{IMAGE_SIDE})"]
        header = (f"{'ecc':<8}{'BER':>10}{'top1':>6}{'mean|err|':>11}"
                  f"{'max|err|':>10}{'flips':>7}{'escaped':>9}"
                  f"{'corrected':>11}")
        lines.append(header)
        lines.append("-" * len(header))
        for point in self.points:
            lines.append(
                f"{point.ecc:<8}{point.ber:>10.0e}"
                f"{'yes' if point.top1_match else 'NO':>6}"
                f"{point.mean_abs_error:>11.5f}"
                f"{point.max_abs_error:>10.5f}"
                f"{point.flip_events:>7}{point.corrupted_items:>9}"
                f"{point.ecc_corrected:>11}")
        return "\n".join(lines)


def _workload(seed: int):
    net = models.scene_labeling_convnn(
        height=IMAGE_SIDE, width=IMAGE_SIDE, conv_maps=CONV_MAPS,
        hidden_units=HIDDEN_UNITS, classes=CLASSES, kernel=3, seed=seed)
    image = (np.random.default_rng(seed).standard_normal(
        (3, IMAGE_SIDE, IMAGE_SIDE)) * 0.5)
    return net, image


@register("ext_resilience", "Accuracy vs DRAM bit-error rate under "
                            "deterministic fault injection")
def run(bit_error_rates=BIT_ERROR_RATES, ecc_modes=ECC_MODES,
        fault_seed: int = 11, workload_seed: int = 5) -> ResilienceResult:
    """Sweep accuracy against the bit-error rate, per ECC mode."""
    config = NeurocubeConfig()
    net, image = _workload(workload_seed)
    clean, _ = NeurocubeSimulator(config).run_network(net, image)
    result = ResilienceResult(baseline_output=clean)
    ambient = current_context() or RunContext()
    for ecc in ecc_modes:
        for ber in bit_error_rates:
            faults = FaultConfig(seed=fault_seed, dram_bitflip_rate=ber,
                                 ecc=ecc)
            with dataclasses.replace(ambient, faults=faults) as ctx:
                first = len(ctx.runs)
                output, report = NeurocubeSimulator(config).run_network(
                    net, image)
            stats = ctx.total_fault_stats(since=first)
            error = np.abs(np.asarray(output) - np.asarray(clean))
            result.points.append(ResiliencePoint(
                ber=ber, ecc=ecc,
                top1_match=int(np.argmax(output)) == int(np.argmax(clean)),
                mean_abs_error=float(error.mean()),
                max_abs_error=float(error.max()),
                flip_events=stats.dram_flip_events,
                corrupted_items=stats.corrupted_items,
                ecc_corrected=stats.ecc_corrected,
                degraded=len(report.degraded)))
    return result
