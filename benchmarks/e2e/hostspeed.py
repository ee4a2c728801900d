"""Host-speed sampling, so that host times survive a shared CPU.

On a host shared with other machines the speed of a core drifts by tens
of percent within seconds, and a run's wall-clock times drift with it.
:class:`SpeedSampler` measures that drift where the work runs: every
:data:`INTERVAL_S` a timer signal runs a fixed pure-Python reference
loop in the measured process itself and records how long it took.  A
window of wall time is then normalised to the speed at which the
reference loop takes :data:`REF_S`::

    normalised seconds = wall seconds * REF_S / mean(loop times in window)

The loop is independent of ``repro``, so a change to the program does
not change its speed, and it leaves the garbage collector's counts
unchanged.  Sampling costs about 3% of wall time, the same share
on every commit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Wall seconds between samples.
INTERVAL_S = 0.02

#: Simulated cycles of the reference loop per sample.
LOOP_CYCLES = 120

#: The reference loop's duration on the nominal host: its median on the
#: 2-vCPU host the benchmark was defined on.  Normalised seconds are
#: seconds on a host that runs the loop in this time.
REF_S = 0.0005

#: Windows shorter than this borrow samples from around their centre.
MIN_WINDOW_S = 0.25


class _Agent:
    __slots__ = ("ops", "done", "ports")

    def __init__(self, index: int) -> None:
        self.ops = index
        self.done = False
        self.ports = [index, index + 1, index + 2, index + 3]

    def next_event_delta(self, horizon: int) -> int | None:
        if self.done:
            return None
        delta = self.ops - horizon
        return delta if delta > 0 else 0


_AGENTS = [_Agent(index) for index in range(16)]


def reference_loop(cycles: int = LOOP_CYCLES) -> int:
    """A fixed slice of interpreter work shaped like the simulator's
    cycle loop: a horizon over the agents, then a delta test and a port
    lookup per agent.  The one list it builds per cycle is freed at
    once, so it leaves the garbage collector's counts unchanged."""
    agents = _AGENTS
    acc = 0
    for cycle in range(cycles):
        horizon = min([agent.ops for agent in agents if not agent.done])
        for agent in agents:
            delta = agent.next_event_delta(horizon)
            if delta is not None and delta <= 1:
                acc += agent.ports[cycle & 3]
            agent.ops = (agent.ops + 1) & 1023
    return acc


class SpeedSampler:
    """Times :func:`reference_loop` on ``SIGALRM`` while running."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_loop()
        self._durations.append(time.perf_counter() - start)
        self._starts.append(start)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the mean loop time sampled in [start, end].

        ``start`` and ``end`` are :func:`time.perf_counter` readings.  A
        window shorter than :data:`MIN_WINDOW_S` is widened around its
        centre; a window with no sample takes the nearest one.
        """
        if not self._durations:
            raise RuntimeError("the speed sampler took no samples")
        if end - start < MIN_WINDOW_S:
            centre = (start + end) / 2
            start, end = centre - MIN_WINDOW_S / 2, centre + MIN_WINDOW_S / 2
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._starts, end)
        if lo == hi:
            lo, hi = (lo - 1, lo) if lo == len(self._starts) else (lo, lo + 1)
        return REF_S / statistics.fmean(self._durations[lo:hi])

    def seconds(self, start: float, end: float) -> float:
        """Normalised seconds of the wall-clock window [start, end]."""
        return (end - start) * self.scale(start, end)
