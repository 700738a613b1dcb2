"""How fast the machine runs Python while the benchmark measures, from a
fixed reference computation sampled inside the measured work.

A shared host changes speed by itself: the same code runs 20-60% slower
for spells from under a second to minutes, CPU time moving with wall
time, and a spell can cover a whole run. So the benchmark reports times
at a fixed nominal speed. While it measures, a SIGALRM interval timer
runs one unit of a fixed reference computation every PERIOD_S seconds of
wall time, between the bytecodes of whatever the process is running. The
units' seconds are subtracted from the intervals they fall in, and their
mean time over the measured intervals says how fast the machine ran
during exactly those intervals; a measured time times UNIT_S over that
mean is the time at the nominal speed. Sampled this finely, a pass of a
workload and the units within it speed up and slow down together (per
pass, correlation 0.94-0.98 and a log-log slope of 0.9-1.1 on the 2-vCPU
machine the benchmark was written on), so the scaled times keep the
program's own cost and lose most of the host's.

The unit is a bitmask branch-and-bound count over a fixed random graph:
plain-Python integer and call work like turankit's search, and no
turankit code, so a change to the program cannot change the unit.
"""


import signal
import time

# A unit's time at the nominal speed, about what it takes inside the
# workloads on a quiet spell of that machine. It only fixes the scale of
# the reported seconds.
UNIT_S = 0.00025
PERIOD_S = 0.01


def _graph(n: int = 22) -> list[int]:
    """A fixed graph with about 40% of the pairs as edges, from a linear
    congruential generator: this module imports only the built-in signal
    and time modules, since it is loaded before turankit's import is
    timed."""
    state, adj = 12345, [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            state = (state * 1103515245 + 12345) % 2**31
            if state % 100 < 40:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


_ADJ = _graph()
_ALL = (1 << len(_ADJ)) - 1


def _count(cand: int, depth: int) -> int:
    """One plus the number of independent sets of one to four vertices
    that extend the current one within cand."""
    if not cand or depth == 4:
        return 1
    total = 1
    while cand:
        low = cand & -cand
        cand ^= low
        total += _count(cand & ~_ADJ[low.bit_length() - 1], depth + 1)
    return total


def unit() -> int:
    return _count(_ALL, 0)


def sample() -> tuple[int, float]:
    """One unit run now, as (1, its seconds)."""
    t0 = time.perf_counter()
    unit()
    return 1, time.perf_counter() - t0


class Sampler:
    """Runs a reference unit every PERIOD_S seconds between start() and
    stop(), and keeps the running totals of units and of their seconds."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that came due during a unit
            return
        self._busy = True
        t0 = time.perf_counter()
        unit()
        self.seconds += time.perf_counter() - t0
        self.units += 1
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        return self.units, self.seconds

    def since(self, mark: tuple[int, float]) -> tuple[int, float]:
        """Units run since mark, and their seconds."""
        return self.units - mark[0], self.seconds - mark[1]


class Speed:
    """Reference units summed over a set of measured intervals."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def add(self, sample: tuple[int, float]) -> None:
        self.units += sample[0]
        self.seconds += sample[1]

    def scale(self) -> float:
        """UNIT_S over the mean unit time: times a duration measured over
        the same intervals, the duration at the nominal speed."""
        return UNIT_S * self.units / self.seconds
