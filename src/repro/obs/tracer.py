"""Cycle-level tracer for the Neurocube simulator.

One :class:`Tracer` records a single pass: typed events (PNG injections,
NoC hops, vault read bursts, MAC fires, cache parks/evicts, skip-ahead
jumps) with local-clock timestamps, sampled counters, and a packet
latency histogram.  :meth:`Tracer.finish` freezes the collection into a
picklable :class:`Trace`, and :meth:`Trace.merged` stitches per-pass
traces into one run-global trace by offsetting each pass into the global
clock — the offsets come from the serial fold order, so a parallel run's
merged trace is identical to the serial run's.

Overhead discipline: every instrumentation hook in the simulator is
guarded by a single ``if tracer is not None`` test, so the tracing-off
hot path costs one pointer comparison per *event site* (not per cycle)
and simulated results are bit-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro.obs.counters import CounterSeries, LatencyHistogram

# ----------------------------------------------------------------------
# event taxonomy (see docs/observability.md)
# ----------------------------------------------------------------------

#: PNG encapsulated a vault word and injected one packet into the NoC.
PNG_INJECT = "png.inject"
#: one packet crossed one NoC link (link stage move).
NOC_HOP = "noc.hop"
#: one packet left the fabric at its destination's local port.
NOC_DELIVER = "noc.deliver"
#: one vault word read: issue to data-return (duration = access latency).
VAULT_READ = "vault.read"
#: one MAC operation: fire to OP-counter advance (duration = n_mac).
MAC_FIRE = "pe.fire"
#: a future-op packet parked in a PE cache sub-bank.
CACHE_PARK = "cache.park"
#: parked packets recovered for the new OP (sub-bank search, §V-B).
CACHE_EVICT = "cache.evict"
#: the simulator skipped a quiescent stretch in one jump.
SKIP_AHEAD = "sim.skip"
#: one fault was injected (DRAM flip, link transient, jitter, stuck MAC).
FAULT_INJECT = "fault.inject"
#: the link retry protocol acted (retransmission scheduled or packet lost).
NOC_RETRY = "noc.retry"
#: the simulator saved (or resumed from) a cycle checkpoint.
SIM_CHECKPOINT = "sim.checkpoint"

#: Events drawn as spans (Chrome ``ph: "X"``); the rest are instants.
SPAN_KINDS = frozenset({VAULT_READ, MAC_FIRE, SKIP_AHEAD})

ALL_KINDS = (PNG_INJECT, NOC_HOP, NOC_DELIVER, VAULT_READ, MAC_FIRE,
             CACHE_PARK, CACHE_EVICT, SKIP_AHEAD, FAULT_INJECT,
             NOC_RETRY, SIM_CHECKPOINT)


@dataclass(frozen=True)
class TraceOptions:
    """What a tracing run collects.

    Attributes:
        events: record typed events (spans and instants).
        counters: record sampled time-series counters.
        sample_interval: cycles between counter samples.
        max_events: safety cap on stored events per pass; once reached,
            further events are counted in ``Trace.dropped_events``
            instead of stored, so a runaway trace degrades gracefully.
    """

    events: bool = True
    counters: bool = True
    sample_interval: int = 64
    max_events: int | None = 1_000_000

    def __post_init__(self) -> None:
        if self.sample_interval < 1:
            raise ValueError(
                f"sample_interval must be >= 1, got {self.sample_interval}")


class Trace:
    """A frozen trace: events, counter series, latency histogram.

    Events are compact tuples ``(kind, ts, dur, track, args)`` with
    ``ts``/``dur`` in reference-clock cycles, ``track`` a stable agent
    label (``"pe/3"``, ``"vault/0"``, ``"noc/1->2"``, ``"sim"``), and
    ``args`` a small dict or None.  The same structure describes one
    pass, one layer, or a whole network run — :meth:`merged` is closed
    over it.
    """

    __slots__ = ("events", "counters", "latency", "cycles",
                 "dropped_events", "meta")

    def __init__(self, events: list | None = None,
                 counters: CounterSeries | None = None,
                 latency: LatencyHistogram | None = None,
                 cycles: int = 0, dropped_events: int = 0,
                 meta: dict | None = None) -> None:
        self.events: list[tuple] = events if events is not None else []
        self.counters = counters if counters is not None else CounterSeries()
        self.latency = latency if latency is not None else LatencyHistogram()
        self.cycles = cycles
        self.dropped_events = dropped_events
        # Run-level annotations (memo/fault/degradation counters) merged
        # in by the simulator; rides into exports so a trace file is
        # self-describing without its manifest.
        self.meta: dict = meta if meta is not None else {}

    # -- introspection --------------------------------------------------

    def events_of_kind(self, kind: str) -> list[tuple]:
        """All events of one taxonomy kind, in time order."""
        return [event for event in self.events if event[0] == kind]

    def kind_counts(self) -> dict[str, int]:
        """Event count per kind (stable taxonomy order, zeros omitted)."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event[0]] = counts.get(event[0], 0) + 1
        return {kind: counts[kind] for kind in ALL_KINDS if kind in counts}

    def tracks(self) -> list[str]:
        """Sorted distinct track labels."""
        return sorted({event[3] for event in self.events})

    # -- merging --------------------------------------------------------

    @classmethod
    def merged(cls, parts: Iterable[tuple[int, Trace]]) -> Trace:
        """Stitch per-pass traces into one global-clock trace.

        Args:
            parts: ``(offset, trace)`` pairs in serial fold order; each
                trace's local cycle 0 maps to ``offset`` on the global
                clock.
        """
        out = cls()
        for offset, part in parts:
            out.events.extend(
                (kind, ts + offset, dur, track, args)
                for kind, ts, dur, track, args in part.events)
            out.counters.merge_from(part.counters, offset)
            out.latency.merge_from(part.latency)
            out.cycles = max(out.cycles, offset + part.cycles)
            out.dropped_events += part.dropped_events
            if part.meta:
                out.meta.update(part.meta)
        return out

    # -- persistence ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible native trace representation."""
        doc = {"kind": "neurocube-trace", "version": 1,
               "cycles": self.cycles,
               "dropped_events": self.dropped_events,
               "events": [[kind, ts, dur, track, args]
                          for kind, ts, dur, track, args in self.events],
               "counters": self.counters.to_dict(),
               "latency": self.latency.to_dict()}
        if self.meta:
            doc["meta"] = self.meta
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> Trace:
        if data.get("kind") != "neurocube-trace":
            raise ValueError(
                "not a neurocube trace (missing kind='neurocube-trace')")
        events = [(str(kind), int(ts), int(dur), str(track), args)
                  for kind, ts, dur, track, args in data.get("events", [])]
        return cls(events=events,
                   counters=CounterSeries.from_dict(
                       data.get("counters", {})),
                   latency=LatencyHistogram.from_dict(
                       data.get("latency", {})),
                   cycles=int(data.get("cycles", 0)),
                   dropped_events=int(data.get("dropped_events", 0)),
                   meta=dict(data.get("meta", {})))

    def __repr__(self) -> str:
        return (f"Trace(cycles={self.cycles}, events={len(self.events)}, "
                f"counters={len(self.counters.samples)}, "
                f"delivered={self.latency.count})")


class Tracer:
    """Collects one pass's events and counters (local clock from 0).

    The simulator hands one tracer to every agent of a pass; agents call
    the typed hook methods below.  ``bind_sampler`` attaches a callable
    ``(cycle) -> iterable[(name, value)]`` that reads the live agents'
    gauges; :meth:`on_cycle` invokes it whenever a sample is due
    (including the catch-up sample after a skip-ahead jump).
    """

    __slots__ = ("options", "_events", "_counters", "_latency", "_sampler",
                 "_next_sample", "_last_sample", "_capacity",
                 "dropped_events")

    def __init__(self, options: TraceOptions | None = None) -> None:
        self.options = options if options is not None else TraceOptions()
        self._events: list[tuple] = []
        self._counters = CounterSeries()
        self._latency = LatencyHistogram()
        self._sampler: Callable | None = None
        self._next_sample = 0
        self._last_sample = -1
        self._capacity = self.options.max_events
        self.dropped_events = 0

    # -- event intake ---------------------------------------------------

    def _emit(self, kind: str, ts: int, dur: int, track: str,
              args: dict | None) -> None:
        if not self.options.events:
            return
        if self._capacity is None or len(self._events) < self._capacity:
            self._events.append((kind, ts, dur, track, args))
        else:
            self.dropped_events += 1

    def png_inject(self, cycle: int, vault_id: int, packet) -> None:
        """One packet left a PNG for the fabric."""
        self._emit(PNG_INJECT, cycle, 0, f"png/{vault_id}",
                   {"dst": packet.dst, "op": packet.op_id,
                    "kind": packet.kind.value})

    def noc_hop(self, cycle: int, link: str) -> None:
        """One packet crossed one link."""
        self._emit(NOC_HOP, cycle, 0, f"noc/{link}", None)

    def packet_delivered(self, cycle: int, node: int, latency: int,
                         packet) -> None:
        """One packet ejected at its destination (fills the histogram)."""
        self._latency.record(latency)
        self._emit(NOC_DELIVER, cycle, 0, f"noc/eject@{node}",
                   {"latency": latency, "kind": packet.kind.value})

    def vault_read(self, vault_id: int, issued: int, completed: int,
                   address: int) -> None:
        """One vault word read issued (span covers the access latency)."""
        self._emit(VAULT_READ, issued, completed - issued,
                   f"vault/{vault_id}", {"addr": address})

    def mac_fire(self, cycle: int, pe_id: int, duration: int, lanes: int,
                 op: int) -> None:
        """One MAC operation fired on a PE (span covers the MAC period)."""
        self._emit(MAC_FIRE, cycle, duration, f"pe/{pe_id}",
                   {"lanes": lanes, "op": op})

    def cache_park(self, cycle: int, pe_id: int, op_id: int,
                   occupancy: int) -> None:
        """A future-op packet parked in a PE cache sub-bank."""
        self._emit(CACHE_PARK, cycle, 0, f"pe/{pe_id}",
                   {"op": op_id, "fill": occupancy})

    def cache_evict(self, cycle: int, pe_id: int, recovered: int,
                    stall: int) -> None:
        """Parked packets recovered after a sub-bank search."""
        self._emit(CACHE_EVICT, cycle, 0, f"pe/{pe_id}",
                   {"recovered": recovered, "stall": stall})

    def skip_ahead(self, cycle: int, jump: int) -> None:
        """The simulator jumped ``jump`` quiescent cycles at ``cycle``."""
        self._emit(SKIP_AHEAD, cycle, jump, "sim", {"jump": jump})

    def fault_inject(self, cycle: int, model: str, track: str,
                     args: dict | None = None) -> None:
        """One fault injected by a :class:`repro.faults.FaultInjector`."""
        payload = {"model": model}
        if args:
            payload.update(args)
        self._emit(FAULT_INJECT, cycle, 0, track, payload)

    def noc_retry(self, cycle: int, link: str,
                  args: dict | None = None) -> None:
        """The link retry protocol scheduled a retransmission or gave up."""
        self._emit(NOC_RETRY, cycle, 0, f"noc/{link}", args)

    def sim_checkpoint(self, cycle: int, action: str, label: str) -> None:
        """A checkpoint was saved (``action="save"``) or resumed from."""
        self._emit(SIM_CHECKPOINT, cycle, 0, "sim",
                   {"action": action, "label": label})

    # -- counter sampling -----------------------------------------------

    def bind_sampler(self, sampler: Callable) -> None:
        """Attach the per-pass gauge reader built by the simulator."""
        self._sampler = sampler

    def sample_jump_limit(self, cycle: int) -> int | None:
        """Largest skip-ahead jump that lands before the next sample.

        The simulator clamps its event-horizon jumps with this so every
        sample is taken on a *stepped* cycle, exactly where lock-step
        stepping would take it — sample positions, spans, and therefore
        the delta-based counter values (MAC utilisation, vault
        bandwidth) are bit-identical with and without skip-ahead.
        Returns None when counter sampling is off (no clamp needed).
        """
        if self._sampler is None:
            return None
        boundary = (self._next_sample if self._next_sample > cycle
                    else cycle + 1)
        return boundary - cycle - 1

    def on_cycle(self, cycle: int) -> None:
        """Sample the counters when a sample is due.

        Called once per stepped cycle; with skip-ahead the simulator
        clamps jumps to :meth:`sample_jump_limit`, so every call that
        samples lands on the same cycle lock-step stepping would
        sample.
        """
        if self._sampler is None or cycle < self._next_sample:
            return
        for name, value in self._sampler(cycle):
            self._counters.add(name, cycle, value)
        self._last_sample = cycle
        interval = self.options.sample_interval
        self._next_sample = cycle - cycle % interval + interval

    # -- completion -----------------------------------------------------

    def finish(self, cycles: int) -> Trace:
        """Freeze the collection into a :class:`Trace`.

        Takes a final counter sample at the pass-end cycle so every
        series covers the full pass.
        """
        if self._sampler is not None and self._last_sample != cycles:
            for name, value in self._sampler(cycles):
                self._counters.add(name, cycles, value)
        return Trace(events=self._events, counters=self._counters,
                     latency=self._latency, cycles=cycles,
                     dropped_events=self.dropped_events)
