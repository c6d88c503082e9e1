"""Reference-CPU time: cancelling the host's speed drift.

On a shared host the same CPython code runs up to ~1.9x slower for
tens of seconds at a time (another tenant on the same core; no steal
time is reported, the core itself is slower).  Wall-clock figures from
two runs then differ by more than any change worth detecting.

A :class:`SpeedProbe` runs a fixed pure-Python kernel on the
transport's loop thread (the thread that does the protocol work) every
``PERIOD`` and times it.  Each timing is expressed as reference-CPU
time: wall time scaled by ``REFERENCE_KERNEL_US / kernel_us``, the
time the same work would take on a CPU where the kernel runs in
``REFERENCE_KERNEL_US`` microseconds.  A code change that makes the
protocol faster moves the scaled figures exactly as it moves wall time;
a slower spell of the host moves the kernel with it and cancels out.
The raw wall-clock figures are kept in every report beside the scaled
ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Any, List, Optional, Tuple

#: Kernel time, in microseconds, of the reference CPU.
REFERENCE_KERNEL_US = 130.0

#: Probe period, in transport time units (milliseconds on aio).
PERIOD = 50.0

#: Kernel samples are grouped into buckets of this many seconds.
BUCKET_S = 1.0

_KERNEL_N = 2000


def kernel() -> int:
    """The calibration kernel: integer multiply-adds in the interpreter."""
    s = 0
    for j in range(_KERNEL_N):
        s += j * j
    return s


class SpeedProbe:
    """Times :func:`kernel` on the loop thread every ``PERIOD``."""

    def __init__(self, transport: Any) -> None:
        self.transport = transport
        self.stamps: List[float] = []
        self.kernel_us: List[float] = []
        self._stopped = False

    def start(self) -> None:
        self.transport.schedule(PERIOD, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        t0 = time.perf_counter()
        kernel()
        self.kernel_us.append((time.perf_counter() - t0) * 1e6)
        self.stamps.append(t0)
        self.transport.schedule(PERIOD, self._fire)

    def stop(self) -> None:
        self._stopped = True

    def median_us(self, t0: float, t1: float) -> Optional[float]:
        """Median kernel time over ``[t0, t1)``; None without samples."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_left(self.stamps, t1)
        if hi <= lo:
            return None
        return statistics.median(self.kernel_us[lo:hi])

    def scale_at(self, t: float, fallback: float) -> float:
        """Reference-time scale factor of the bucket holding ``t``."""
        start = t - (t % BUCKET_S)
        us = self.median_us(start, start + BUCKET_S)
        return REFERENCE_KERNEL_US / (us if us is not None else fallback)

    def scale(self, t0: float, t1: float) -> float:
        """Reference-time scale factor over ``[t0, t1)``.

        An interval shorter than the probe period borrows the median of
        every sample taken.
        """
        us = self.median_us(t0, t1)
        if us is None:
            us = statistics.median(self.kernel_us)
        return REFERENCE_KERNEL_US / us


#: A reference-time sleep lasts at most this many times its length.
MAX_STRETCH = 2.0


def sleep_reference(probe: SpeedProbe, seconds: float, step: float = 0.05) -> float:
    """Sleep until ``seconds`` of reference-CPU time have passed.

    A run then does the same amount of work whatever the host's current
    speed: a slow spell stretches the wall-clock window instead of
    shortening the measured work.  The stretch is capped at
    ``MAX_STRETCH`` so a run's length stays bounded.  Returns the wall
    seconds slept.
    """
    start = last = time.perf_counter()
    done = 0.0
    fallback = REFERENCE_KERNEL_US
    while done < seconds and last - start < MAX_STRETCH * seconds:
        time.sleep(step)
        now = time.perf_counter()
        us = probe.median_us(now - BUCKET_S, now)
        if us is not None:
            fallback = us
        done += (now - last) * REFERENCE_KERNEL_US / fallback
        last = now
    return last - start


def scaled_records(
    probe: SpeedProbe, records: List[Tuple[str, float, float]], fallback_us: float
) -> List[Tuple[str, float, float]]:
    """Op records as ``(kind, latency in reference ms, scale)``.

    Each op is scaled by the kernel median of the bucket it completed in.
    """
    out = []
    for kind, t0, t1 in records:
        s = probe.scale_at(t1, fallback_us)
        out.append((kind, (t1 - t0) * 1e3 * s, s))
    return out
