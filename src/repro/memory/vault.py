"""Cycle-level model of one HMC vault (or generic DRAM channel).

A vault accepts read requests (item addresses), issues them at burst-mode
rate, and completes them ``access_latency_cycles`` later.  When constructed
with a backing array it also holds real data, which the PNG reads as each
word completes; that lets the system simulator compute numerically exact
layer outputs through the full PNG -> NoC -> PE path.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.memory.timing import ChannelTiming

#: Each data item is one 16-bit state or weight (paper §III-B1).
ITEM_BITS = 16


@dataclass(slots=True)
class CompletedRead:
    """A word read returned by the vault.

    The vault models timing only: the reader fetches the word's items
    from :attr:`VaultChannel.data` when the read completes (the PNG does
    so per emission record in its tag).

    Attributes:
        address: item address of the word's first item.
        tag: opaque request tag (the PNG stores its emission records
            here).
        issued_cycle: cycle the request left the queue.
        completed_cycle: cycle the data became visible.
    """

    address: int
    tag: object
    issued_cycle: int
    completed_cycle: int


class VaultChannel:
    """One vault: request queue + burst-mode issue + fixed-latency return.

    Args:
        timing: channel timing parameters.
        vault_id: identifier used in packets and error messages.
        data: optional backing store of raw 16-bit items (int array),
            read by the PNG when a word completes and written by
            write-backs.  Items beyond its end, or with no store at
            all, read as zeros — timing-only mode.
        tracer: optional :class:`repro.obs.Tracer`; when set, every word
            read issue emits a ``vault.read`` span covering the access
            latency.  None (the default) keeps the issue loop hook-free.
        injector: optional :class:`repro.faults.FaultInjector`; when
            set, issued reads may complete late (latency jitter).  DRAM
            bit-flips are applied downstream, at the PNG's packetise
            step, where per-item addresses are known.
    """

    def __init__(self, timing: ChannelTiming, vault_id: int = 0,
                 data: np.ndarray | None = None, tracer=None,
                 injector=None) -> None:
        if timing.word_bits % ITEM_BITS:
            raise ConfigurationError(
                f"word size {timing.word_bits} not a multiple of the "
                f"{ITEM_BITS}-bit item size")
        self.timing = timing
        self.vault_id = vault_id
        self.tracer = tracer
        self.injector = injector
        self.data = None if data is None else np.asarray(data, dtype=np.int64)
        self.items_per_word = timing.word_bits // ITEM_BITS
        self.cycle = 0
        self._queue: deque[tuple[int, object]] = deque()
        self._in_flight: deque[CompletedRead] = deque()
        self._burst_pos = 0
        self._gap_remaining = 0
        self._issue_credit = 0.0
        # statistics
        self.words_served = 0
        self.busy_cycles = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------

    def enqueue_read(self, address: int, tag: object = None) -> None:
        """Queue a word read starting at item ``address``."""
        if address < 0:
            raise ConfigurationError(f"negative address {address}")
        self._queue.append((address, tag))

    def enqueue_reads(self, addresses, tags=None) -> None:
        """Queue many word reads; ``tags`` parallels ``addresses``."""
        if tags is None:
            for address in addresses:
                self.enqueue_read(address)
        else:
            for address, tag in zip(addresses, tags, strict=True):
                self.enqueue_read(address, tag)

    @property
    def pending(self) -> int:
        """Requests queued but not yet issued."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while any request is queued or in flight."""
        return bool(self._queue) or bool(self._in_flight)

    def next_event_delta(self) -> int | None:
        """Cycles until this vault can next act, or None when fully idle.

        An "event" is a state change visible outside the vault: a request
        issue becoming possible (burst gap elapsing, issue credit
        reaching one word) or an in-flight read completing.  Between now
        and the returned delta the vault only counts down, which is what
        lets the simulator skip those cycles wholesale.
        """
        delta = None
        if self._in_flight:
            delta = max(1, self._in_flight[0].completed_cycle - self.cycle)
        issue = None
        if self._queue:
            if self._gap_remaining > 0:
                issue = self._gap_remaining
            else:
                # Credit accrues words_per_cycle per step; issue happens
                # on the first step where the accumulated credit >= 1.
                # Walked iteratively so the float arithmetic is the same
                # sequence step() would produce.
                rate = self.timing.words_per_cycle
                if rate > 0:
                    credit = self._issue_credit
                    steps = 0
                    while credit < 1.0:
                        credit = min(2.0, credit + rate)
                        steps += 1
                    issue = max(1, steps)
        if delta is None or (issue is not None and issue < delta):
            return issue
        return delta

    def skip(self, cycles: int) -> None:
        """Fast-forward ``cycles`` event-free cycles.

        Replicates exactly what ``cycles`` consecutive :meth:`step` calls
        would do under the precondition that none of them issues or
        completes a request (the caller guarantees this by skipping at
        most ``next_event_delta() - 1`` cycles): the clock and issue
        credit advance, a pending burst gap drains (charging stall cycles
        while requests wait), and the burst position resets on any cycle
        the channel sat idle outside a gap.
        """
        self.cycle += cycles
        # Accrue credit one cycle at a time: repeated `min(2, c + rate)`
        # is not `min(2, c + n*rate)` in floating point, and skip-ahead
        # must be bit-identical to stepping.  Once the credit saturates
        # at 2.0 every further step leaves it there, so the walk stops.
        rate = self.timing.words_per_cycle
        credit = self._issue_credit
        for _ in range(cycles):
            if credit >= 2.0:
                break
            credit = min(2.0, credit + rate)
        self._issue_credit = credit
        if self._gap_remaining > 0:
            idle_after_gap = cycles > self._gap_remaining
            if self._queue:
                self.stall_cycles += min(cycles, self._gap_remaining)
            self._gap_remaining = max(0, self._gap_remaining - cycles)
        else:
            idle_after_gap = cycles > 0
        if idle_after_gap:
            self._burst_pos = 0

    #: :meth:`state_dict` entries :meth:`timing_signature` leaves out.
    SIGNATURE_EXEMPT = {
        "cycle": "position: the clock the signature is relative to",
        "words_served": "statistics: a jump adds their per-period gain",
        "busy_cycles": "statistics: a jump adds their per-period gain",
        "stall_cycles": "statistics: a jump adds their per-period gain",
        "data": "data: no timing path reads the backing store",
    }

    def timing_signature(self, tag_key: Callable[[object], object]) -> dict:
        """The channel's timing state relative to its clock, keyed like
        :meth:`state_dict`: queued reads by ``tag_key`` of their tag
        (the requester's canonical form), in-flight reads also by their
        completion and issue cycles from now, and the burst, gap and
        credit state.  Addresses are left out: the channel's timing
        never reads them."""
        cycle = self.cycle
        return {
            "queue": tuple(tag_key(tag) for _, tag in self._queue),
            "in_flight": tuple((read.completed_cycle - cycle,
                                read.issued_cycle - cycle,
                                tag_key(read.tag))
                               for read in self._in_flight),
            "burst_pos": self._burst_pos,
            "gap_remaining": self._gap_remaining,
            "issue_credit": self._issue_credit,
        }

    def counters(self) -> tuple[int, int, int]:
        """The statistics, in :meth:`fast_forward`'s order."""
        return self.words_served, self.busy_cycles, self.stall_cycles

    def fast_forward(self, cycles: int,
                     retag: Callable[[int, object], tuple[int, object]],
                     gained: tuple[int, int, int]) -> None:
        """Jump ``cycles`` cycles ahead, as whole periods of a steady
        state would move the channel: the clock and every in-flight
        read's issue and completion cycles advance, ``retag`` maps each
        in-flight then queued read's (address, tag) to the read standing
        in its place after the jump, and ``gained`` adds to
        :meth:`counters`.  Burst, gap and credit state recur."""
        self.cycle += cycles
        in_flight = deque()
        for read in self._in_flight:
            address, tag = retag(read.address, read.tag)
            in_flight.append(CompletedRead(
                address, tag, read.issued_cycle + cycles,
                read.completed_cycle + cycles))
        self._in_flight = in_flight
        self._queue = deque(retag(address, tag)
                            for address, tag in self._queue)
        words, busy, stalls = gained
        self.words_served += words
        self.busy_cycles += busy
        self.stall_cycles += stalls

    def step(self) -> Sequence[CompletedRead]:
        """Advance one I/O clock cycle; return reads completing this cycle
        (an empty tuple when none does).

        At most one word issues per cycle; after ``burst_length``
        consecutive issues the channel idles for ``tccd_gap_cycles``.
        """
        self.cycle += 1
        # Issue stage.  The credit accumulator paces channels whose native
        # word rate is below the stepping clock (words_per_cycle < 1); it
        # saturates at 2.0 (the ``min(2.0, credit + rate)`` of skip).
        credit = self._issue_credit + self.timing.words_per_cycle
        if credit > 2.0:
            credit = 2.0
        self._issue_credit = credit
        if self._gap_remaining > 0:
            self._gap_remaining -= 1
            if self._queue:
                self.stall_cycles += 1
        elif self._queue and credit >= 1.0:
            self._issue_credit = credit - 1.0
            address, tag = self._queue.popleft()
            completed = self.cycle + self.timing.access_latency_cycles
            if self.injector is not None:
                # Latency jitter: the read completes late.  Completion
                # stays in issue order (the head of the in-flight queue
                # gates the pop loop), so jitter is purely a delay.
                completed += self.injector.read_extra_latency(
                    self.vault_id, self.cycle, address)
            self._in_flight.append(CompletedRead(
                address, tag, self.cycle, completed))
            self.busy_cycles += 1
            self.words_served += 1
            if self.tracer is not None:
                self.tracer.vault_read(self.vault_id, self.cycle,
                                       completed, address)
            self._burst_pos += 1
            if self._burst_pos >= self.timing.burst_length:
                self._burst_pos = 0
                self._gap_remaining = self.timing.tccd_gap_cycles
        else:
            self._burst_pos = 0
        # Completion stage (requests complete in issue order).
        in_flight = self._in_flight
        if not in_flight or in_flight[0].completed_cycle > self.cycle:
            return ()
        done = [in_flight.popleft()]
        while in_flight and in_flight[0].completed_cycle <= self.cycle:
            done.append(in_flight.popleft())
        return done

    def drain(self, max_cycles: int = 10_000_000) -> list[CompletedRead]:
        """Step until idle; convenience for tests.  Raises on runaway."""
        out: list[CompletedRead] = []
        for _ in range(max_cycles):
            if not self.busy:
                return out
            out.extend(self.step())
        raise SimulationError(
            f"vault {self.vault_id} did not drain within {max_cycles} cycles")

    def state_dict(self) -> dict:
        """Picklable snapshot for checkpointing.

        The backing data array is copied (write-backs mutate it), and
        restored *in place* on load — PNG sinks and readers hold a
        reference to the live array.
        """
        return {
            "cycle": self.cycle,
            "queue": tuple(self._queue),
            "in_flight": tuple(self._in_flight),
            "burst_pos": self._burst_pos,
            "gap_remaining": self._gap_remaining,
            "issue_credit": self._issue_credit,
            "words_served": self.words_served,
            "busy_cycles": self.busy_cycles,
            "stall_cycles": self.stall_cycles,
            "data": None if self.data is None else self.data.copy(),
        }

    def load_state(self, state: dict) -> None:
        self.cycle = state["cycle"]
        self._queue = deque(state["queue"])
        self._in_flight = deque(state["in_flight"])
        self._burst_pos = state["burst_pos"]
        self._gap_remaining = state["gap_remaining"]
        self._issue_credit = state["issue_credit"]
        self.words_served = state["words_served"]
        self.busy_cycles = state["busy_cycles"]
        self.stall_cycles = state["stall_cycles"]
        if state["data"] is not None and self.data is not None:
            self.data[:] = state["data"]

    def write_items(self, address: int, items) -> None:
        """Store raw items into the backing array (write-back path).

        A vault in timing-only mode ignores writes.
        """
        if self.data is None:
            return
        items = np.asarray(items, dtype=np.int64)
        end = address + len(items)
        if end > len(self.data):
            raise SimulationError(
                f"vault {self.vault_id}: write [{address}, {end}) beyond "
                f"store of {len(self.data)} items")
        self.data[address:end] = items
