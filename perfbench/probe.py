"""Host-speed probe: what lets the benchmark report reference seconds.

The machines this benchmark runs on are shared, and their speed drifts: the
same pure-Python work takes up to 2.3 times as long from one five-second
window to the next, in CPU time as much as in wall time.  No run length
averages that away, because the slow and fast phases last seconds to
minutes.  So the benchmark measures the host's speed alongside the
workload and reports every end-to-end time at one fixed reference speed.

The probe is a fixed piece of pure-Python work in the style of the library
(bitset breadth-first search, small objects, a dict keyed by tuples) that
imports nothing from ``rainbowfree``, so no change to the library changes
it.  While a worker measures, a wall-clock timer runs the probe every
``INTERVAL_S`` inside a signal handler, between two bytecodes of whatever
the workload is doing.  The handler records when each probe started and how
long it took; speed.py turns those records into reference seconds.

This module imports nothing beyond the standard library, so that importing
it leaves the worker's set-up time and peak memory as they were.
"""

from __future__ import annotations

import random
import signal
import time
from array import array

# how often the timer probes while a worker measures
INTERVAL_S = 0.02

_N = 40


def _graph() -> list[int]:
    rng = random.Random(7)
    adj = [0] * _N
    for u in range(_N):
        for v in range(u + 1, _N):
            if rng.random() < 0.3:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _graph()


class _Node:
    __slots__ = ("id", "reach")

    def __init__(self, i: int):
        self.id = i
        self.reach = 0


def probe() -> int:
    """The fixed work whose duration measures the host's speed."""
    adj = _ADJ
    nodes = [_Node(i) for i in range(_N)]
    total = 0
    for s in range(_N):
        seen = frontier = 1 << s
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= nxt
        nodes[s].reach = seen
        total += seen.bit_count()
    common = {}
    for a in range(_N):
        for b in range(a):
            common[(a, b)] = (adj[a] & adj[b]).bit_count()
    return total + sum(common.values())


def timed_probes(count: int) -> list[float]:
    """Durations of ``count`` probes run back to back."""
    out = []
    for _ in range(count):
        t = time.perf_counter()
        probe()
        out.append(time.perf_counter() - t)
    return out


class Prober:
    """Runs the probe every INTERVAL_S on a wall-clock timer, in this
    process's main thread, and records each probe's start and duration."""

    def __init__(self, tracer=None):
        self.starts = array("d")
        self.durations = array("d")
        # a traced run takes each probe out of the span it interrupted
        self.tracer = tracer
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        # on a host slow enough for a probe to outlast the interval, the
        # next alarm arrives inside this handler; skip it
        if self._busy:
            return
        self._busy = True
        try:
            t = time.perf_counter()
            probe()
            d = time.perf_counter() - t
            self.durations.append(d)
            self.starts.append(t)
            if self.tracer is not None:
                self.tracer.add_probe(d)
        finally:
            self._busy = False

    def start(self) -> None:
        # one probe right away, so that even a run shorter than the
        # interval has one
        self._on_alarm(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
