"""Host-speed probe: a fixed unit of reference work timed all through a run.

On a shared host the speed of a core changes with the neighbours' load, by
±15% within a second and by up to 2x over minutes, and the change moves
every timing of a run alike. So the runner times a fixed piece of work of
its own, `reference_work`, every INTERVAL_S seconds from an interval timer,
in the middle of whatever desbal is doing, and reports each call's duration
scaled to a reference speed: the call is cut at the probes that ran inside
it, the probes' own time is left out, and each piece counts

    piece wall time x REFERENCE_S / probe time at the piece's middle

with the probe time interpolated between the probes around it. A change that
makes desbal faster or slower moves the scaled times as it moves wall times,
because the probe runs no desbal code; a slow spell of the host slows the
probe and the call alike and cancels out.
"""

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.0035  # probe time at reference speed; near its time on a 2-core Xeon
INTERVAL_S = 0.1  # seconds between probes while the timer runs

# The work builds sets of tuples sliced from rows of strings: allocation-
# heavy Python, as in desbal's record bookkeeping. On 200 s traces of
# repeated `run_experiment` and `make_report` calls it followed their speed
# better than a dict-counting loop, a loop of small numpy calls, or integer
# arithmetic: the spread of the calls' scaled times was a third to a half
# below that with the next best.
_ROWS = [[f"d{i % 7}", f"v{i % 6}", f"s{i % 15}", str(i % 5), "AB"[i % 2],
          f"m{i % 3}", "0.5", "1"] for i in range(2700)]


def reference_work() -> int:
    size = 0
    for _ in range(3):
        size += len({tuple(row[:6]) for row in _ROWS})
    return size


class SpeedProbe:
    """Probe times along a run and the scaling they give to call times."""

    def __init__(self, clock=time.perf_counter, work=reference_work):
        self.clock = clock
        self.work = work
        self.starts = []  # clock at each probe's start, ascending
        self.ends = []  # clock at each probe's end
        self._arrays = (0, None, None)  # (probe count, middles, durations)
        work()  # warm caches; not recorded

    @property
    def values(self) -> list:
        """Probe durations, seconds."""
        return [e - s for s, e in zip(self.starts, self.ends)]

    def probe(self) -> None:
        start = self.clock()
        self.work()
        end = self.clock()
        self.starts.append(start)
        self.ends.append(end)

    @contextmanager
    def running(self, interval=INTERVAL_S):
        """Probe every `interval` seconds of wall time inside the block.

        The probe runs in a SIGALRM handler, which Python calls in the main
        thread between bytecodes, so it interrupts desbal only where any
        Python code could.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def at(self, t: float) -> float:
        """Probe time at clock `t`: linear between the probes around it,
        the nearest probe outside their range."""
        n, middles, durations = self._arrays
        if n != len(self.starts):
            if not self.starts:
                raise ValueError("no probes")
            starts, ends = np.array(self.starts), np.array(self.ends)
            n, middles, durations = len(starts), (starts + ends) / 2.0, ends - starts
            self._arrays = (n, middles, durations)
        return float(np.interp(t, middles, durations))

    def scale(self, start: float, duration: float) -> float:
        """A call of `duration` wall seconds from `start`, without the probes
        that ran inside it, scaled to the reference speed."""
        end = start + duration
        i = bisect.bisect_right(self.ends, start)  # first probe ending after start
        total = 0.0
        t = start
        while i < len(self.starts) and self.starts[i] < end:
            if self.starts[i] > t:
                total += self._scaled(t, self.starts[i])
            t = max(t, self.ends[i])
            i += 1
        if end > t:
            total += self._scaled(t, end)
        return total

    def _scaled(self, a: float, b: float) -> float:
        return (b - a) * REFERENCE_S / self.at((a + b) / 2.0)
