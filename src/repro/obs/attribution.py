"""Per-layer bottleneck attribution: measured counters vs predictions.

The paper's headline claims are utilization numbers (MAC efficiency,
vault bandwidth use), but a cycle count alone does not say *why* a
layer underperforms.  This module joins the simulator's measured
counters — MAC utilization, stall ledgers, packet traffic — against the
closed-form predictions of :class:`repro.core.analytic.AnalyticModel`
and :class:`repro.core.roofline.RooflineModel`, and emits one verdict
per layer:

* ``compute-bound`` — the MAC array's demand dominates the analytic
  breakdown; more arithmetic would need more PEs or MAC lanes.
* ``vault-bandwidth-bound`` — the vault supply term dominates; the
  layer sits under the slanted roofline roof.
* ``noc-bound`` — mesh link capacity, destination inbound ports, or FC
  source serialisation dominates.
* ``stall-dominated`` — whatever the static bound, the *measured* run
  spent the majority of its cycles in cache-search or injection stalls,
  so out-of-order arrival (or fault retries), not raw capacity, set the
  cycle count.

Each :class:`LayerAttribution` carries the measured-vs-predicted gap
and the top contributing counters, and renders on
:meth:`repro.core.metrics.RunReport.to_table`, in the v2 JSON manifest
(:mod:`repro.obs.manifest`), and via ``ncprof attribute``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.analytic import AnalyticModel
from repro.core.roofline import RooflineModel
from repro.errors import ConfigurationError

#: The closed verdict vocabulary, in display precedence order.
#: "intercube-link-bound" is emitted only by multi-cube sharded runs
#: (:mod:`repro.core.shard`) for layers whose inter-cube exchange
#: barrier costs at least as much as the slowest cube's compute.
VERDICTS = ("compute-bound", "vault-bandwidth-bound", "noc-bound",
            "stall-dominated", "intercube-link-bound")

#: Fraction of measured cycles the stall ledgers must cover before the
#: static verdict is overridden with ``stall-dominated``.
STALL_DOMINANCE = 0.5

#: Analytic-breakdown term -> verdict it argues for.
_TERM_VERDICTS = (
    ("compute", "compute-bound"),
    ("supply", "vault-bandwidth-bound"),
    ("link", "noc-bound"),
    ("last_hop", "noc-bound"),
    ("broadcast", "noc-bound"),
)

#: Measured LayerStats counter fields ranked for ``top_counters``.
_COUNTER_FIELDS = ("pe_busy_cycles", "pe_idle_cycles",
                   "search_stall_cycles", "inject_stall_cycles")


@dataclass(frozen=True)
class LayerAttribution:
    """One layer's bottleneck verdict with its supporting evidence.

    Attributes:
        name, kind: from the layer's descriptor.
        verdict: one of :data:`VERDICTS`.
        measured_cycles: the simulated (or modeled) cycle count.
        predicted_cycles: the analytic model's prediction for the same
            descriptor (total across passes).
        gap: ``(measured - predicted) / predicted`` — positive when the
            simulator ran slower than the model predicts.
        predicted_bound: the analytic breakdown's binding term name.
        stall_share: fraction of measured cycles covered by the per-PE
            search-stall and per-channel inject-stall ledgers (0.0 for
            analytic rows, which carry no measured counters).
        shares: analytic term -> fraction of the breakdown total.
        top_counters: the largest nonzero measured counters,
            ``(field, value)`` descending — the evidence trail.
        roofline: intensity / attainable / achieved from the roofline
            model, or None when the descriptor streams no DRAM bytes.
    """

    name: str
    kind: str
    verdict: str
    measured_cycles: float
    predicted_cycles: float
    gap: float
    predicted_bound: str
    stall_share: float
    shares: dict = field(default_factory=dict)
    top_counters: tuple = ()
    roofline: dict | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "measured_cycles": self.measured_cycles,
            "predicted_cycles": self.predicted_cycles,
            "gap": self.gap,
            "predicted_bound": self.predicted_bound,
            "stall_share": self.stall_share,
            "shares": dict(self.shares),
            "top_counters": [list(pair) for pair in self.top_counters],
            "roofline": self.roofline,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> LayerAttribution:
        return cls(
            name=doc["name"], kind=doc["kind"], verdict=doc["verdict"],
            measured_cycles=doc["measured_cycles"],
            predicted_cycles=doc["predicted_cycles"], gap=doc["gap"],
            predicted_bound=doc["predicted_bound"],
            stall_share=doc["stall_share"],
            shares=dict(doc.get("shares", {})),
            top_counters=tuple(tuple(pair) for pair
                               in doc.get("top_counters", [])),
            roofline=doc.get("roofline"))

    def format(self) -> str:
        """One human line: verdict, gap, leading evidence."""
        parts = [f"{self.name}: {self.verdict}",
                 f"gap {100 * self.gap:+.1f}% vs analytic"]
        if self.stall_share > 0:
            parts.append(f"stalls {100 * self.stall_share:.0f}% "
                         "of cycles")
        if self.top_counters:
            name, value = self.top_counters[0]
            parts.append(f"top counter {name}={value:.0f}")
        if self.roofline is not None:
            parts.append(
                f"roofline {self.roofline['achieved_gops']:.1f}"
                f"/{self.roofline['attainable_gops']:.1f} GOPs/s")
        return " | ".join(parts)


def _verdict_from_breakdown(breakdown: dict) -> tuple[str, dict]:
    """Static verdict plus per-term shares from an analytic breakdown."""
    denominator = sum(breakdown[term] for term, _ in _TERM_VERDICTS)
    shares = {term: (breakdown[term] / denominator if denominator
                     else 0.0)
              for term, _ in _TERM_VERDICTS}
    best_term, best_verdict = _TERM_VERDICTS[0]
    for term, verdict in _TERM_VERDICTS:
        if breakdown[term] > breakdown[best_term]:
            best_term, best_verdict = term, verdict
    return best_verdict, shares


def _measured_stall_share(layer, cycles: float, n_pe: int,
                          n_channels: int) -> float:
    """Fraction of the layer's cycles covered by stall ledgers.

    Counters accumulate across agents, so each ledger is normalised by
    its population (PEs for cache-search stalls, channels for
    injection stalls) before comparing against the reference clock.
    """
    if cycles <= 0:
        return 0.0
    search = getattr(layer, "search_stall_cycles", 0) / max(1, n_pe)
    inject = (getattr(layer, "inject_stall_cycles", 0)
              / max(1, n_channels))
    return min(1.0, (search + inject) / cycles)


def attribute_layers(layers, descriptors, config) -> list[
        LayerAttribution]:
    """Attribute every layer with a matching descriptor.

    Args:
        layers: :class:`repro.core.metrics.LayerStats` rows (measured
            or analytic — analytic rows carry zero stall counters and
            so never flip to ``stall-dominated``).
        descriptors: the compiled
            :class:`repro.core.layerdesc.LayerDescriptor` list; layers
            are matched to descriptors by name, unmatched layers are
            skipped (the verdict needs the analytic prediction).
        config: the :class:`repro.core.config.NeurocubeConfig` the run
            used.
    """
    by_name = {desc.name: desc for desc in descriptors}
    analytic = AnalyticModel(config)
    roofline = RooflineModel(config)
    out: list[LayerAttribution] = []
    for layer in layers:
        desc = by_name.get(layer.name)
        if desc is None:
            continue
        breakdown = analytic.pass_breakdown(desc)
        predicted = breakdown["total"] * desc.passes
        verdict, shares = _verdict_from_breakdown(breakdown)
        stall_share = _measured_stall_share(
            layer, layer.cycles, config.n_pe, config.n_channels)
        if stall_share >= STALL_DOMINANCE:
            verdict = "stall-dominated"
        gap = ((layer.cycles - predicted) / predicted if predicted
               else 0.0)
        counters = sorted(
            ((name, float(getattr(layer, name, 0)))
             for name in _COUNTER_FIELDS),
            key=lambda pair: pair[1], reverse=True)
        top = tuple(pair for pair in counters if pair[1] > 0)[:3]
        try:
            point = roofline.point_for(desc)
            roof = {"intensity": point.intensity,
                    "attainable_gops": point.attainable_gops,
                    "achieved_gops": point.achieved_gops}
        except ConfigurationError:
            roof = None
        out.append(LayerAttribution(
            name=layer.name, kind=layer.kind, verdict=verdict,
            measured_cycles=float(layer.cycles),
            predicted_cycles=float(predicted), gap=gap,
            predicted_bound=breakdown["bound"], stall_share=stall_share,
            shares=shares, top_counters=top, roofline=roof))
    return out


def intercube_attribution(name, kind, exchange_cycles,
                          compute_cycles) -> LayerAttribution:
    """Attribution row for an exchange-bound multi-cube sharded layer.

    :mod:`repro.core.shard` emits it for layers whose inter-cube link
    barrier costs at least as much as the slowest cube's compute.
    """
    total = exchange_cycles + compute_cycles
    return LayerAttribution(
        name=name, kind=kind, verdict="intercube-link-bound",
        measured_cycles=float(total),
        predicted_cycles=float(compute_cycles),
        gap=(exchange_cycles / compute_cycles if compute_cycles
             else 0.0),
        predicted_bound="intercube_link",
        stall_share=0.0,
        shares={"intercube_link": (exchange_cycles / total if total
                                   else 0.0),
                "compute": compute_cycles / total if total else 0.0},
        top_counters=(("intercube_exchange_cycles",
                       float(exchange_cycles)),))
