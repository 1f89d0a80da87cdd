"""Converts measured seconds into reference seconds, from host-speed probes.

The probes (probe.py) run every 20 ms while a worker measures.  ``Speed``
splits the run into ``SEGMENT_S`` segments.  A segment's speed is the mean,
over its probes, of REF_PROBE_S / probe duration, leaving out the highest
and lowest ``TRIM`` of them (a probe the kernel preempted, say).  A mean,
not a median: the host switches between a fast and a slow mode many times a
second, and a probe duration's median jumps to whichever mode holds the
majority, while the mean follows the share of time spent in each, which is
what sets the pace of the workload.  The work done in an interval of the
run is then, in reference seconds,

    (measured - probe time inside) * speed

with the speed integrated over the interval.  A reference second is the
time in which the host does the work of 1 / REF_PROBE_S probes; the probe
takes about 0.4 ms on the reference host (a 2-vCPU VM, Python 3.11.7) in
its fast mode and 0.6-0.7 ms in its slow mode.
"""

from __future__ import annotations

import numpy as np

# the probe's duration at the reference speed, in seconds
REF_PROBE_S = 0.00045
# length of the segments over which the probes' speeds are averaged
SEGMENT_S = 0.5
# share of a segment's probes left out at each end before averaging
TRIM = 0.1


def mean_speed(probes) -> float:
    """Reference seconds per measured second, from probe durations: the
    trimmed mean of REF_PROBE_S / duration."""
    speeds = np.sort(REF_PROBE_S / np.asarray(probes, dtype=np.float64))
    cut = int(len(speeds) * TRIM)
    return float(speeds[cut : len(speeds) - cut].mean())


class Speed:
    """The host's speed over one run, from the probes taken during it.
    Methods take scalars or arrays of times on the run's perf_counter clock."""

    def __init__(self, starts, durations):
        starts = np.asarray(starts, dtype=np.float64)
        durations = np.asarray(durations, dtype=np.float64)
        if not len(starts):
            raise ValueError("no probe was taken during the run")
        self.starts = starts
        self.probe_total = np.concatenate(([0.0], np.cumsum(durations)))
        self.t0 = starts[0]
        segment = ((starts - self.t0) // SEGMENT_S).astype(np.int64)
        factor = np.full(segment[-1] + 1, np.nan)
        for k in np.unique(segment):
            factor[k] = mean_speed(durations[segment == k])
        # a segment without a probe (one long native call) takes the speed
        # of the last segment that has one
        filled = np.maximum.accumulate(np.where(np.isnan(factor), 0, np.arange(len(factor))))
        # reference seconds per measured second
        self.factor = factor[filled]
        self.cumulative = np.concatenate(([0.0], np.cumsum(self.factor * SEGMENT_S)))

    def _segment(self, t):
        x = np.asarray(t, dtype=np.float64) - self.t0
        return x, np.clip(x // SEGMENT_S, 0, len(self.factor) - 1).astype(np.int64)

    def _integral(self, t):
        """Reference seconds from the first probe to ``t``, probes included;
        times outside the probed span take the nearest segment's speed."""
        x, k = self._segment(t)
        return self.cumulative[k] + self.factor[k] * (x - k * SEGMENT_S)

    def mean_factor(self, start, end):
        """Reference seconds per measured second over [start, end]."""
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        measured = end - start
        ok = measured > 0
        mean = (self._integral(end) - self._integral(start)) / np.where(ok, measured, 1.0)
        return np.where(ok, mean, self.factor[self._segment(start)[1]])

    def work_s(self, start, end):
        """Measured seconds of [start, end] that no probe took."""
        inside = (
            self.probe_total[np.searchsorted(self.starts, end, side="right")]
            - self.probe_total[np.searchsorted(self.starts, start, side="left")]
        )
        return np.maximum(np.asarray(end) - np.asarray(start) - inside, 0.0)

    def reference_s(self, start, end):
        """Reference seconds of the work done in [start, end], probes excluded."""
        return self.work_s(start, end) * self.mean_factor(start, end)

    def intervals_s(self, intervals) -> list[float]:
        """reference_s of each (start, end) pair."""
        if not len(intervals):
            return []
        start, end = np.asarray(intervals, dtype=np.float64).T
        return self.reference_s(start, end).tolist()


def reference_setup_s(measured: float, probes: list[float]) -> float:
    """Set-up time in reference seconds, from probes run just before and
    just after it in the same interpreter."""
    return measured * mean_speed(probes)
