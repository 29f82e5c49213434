"""Host-speed probe: how fast the processor ran while something was timed.

The reference host is a shared VM whose vCPUs change speed by 20-50 % in
spells of seconds to minutes, in process CPU time as much as in wall time,
while steal time barely moves.  Raw wall times of the same code then differ
between two sets of runs by more than any useful bound.  The benchmark
therefore times a fixed pure-Python probe next to the workload, on the same
(pinned) CPU, and reports the workload's times scaled to the probe's
reference speed: ``wall * speed`` where ``speed = REFERENCE_S / probe time``.
A change to simfarm moves the scaled time exactly as it moves the raw one;
a change of the host's speed moves the probe as well and cancels out.

``Sampler`` probes in a background thread of the timing process every
``INTERVAL_S`` seconds (about 1 % of the CPU); ``measure`` probes in the
calling thread, for brackets around a child process.  The probe is pure
Python, holds the GIL throughout and is shorter than the interpreter's
switch interval.  A probe that still lost the processor or waited for the
GIL (wall time well above its thread CPU time) is dropped.
"""

from __future__ import annotations

import statistics
import threading
import time

INTERVAL_S = 0.1
PROBE_LOOPS = 6_000
# One probe's time on the reference host in a fast spell, so scaled times
# read as that host's fast-spell wall times.
REFERENCE_S = 0.00065
MEASURE_PROBES = 21


def _probe() -> tuple[float, float]:
    t0 = time.perf_counter()
    c0 = time.thread_time()
    acc = 0
    table = {}
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 255] = i
    return time.perf_counter() - t0, time.thread_time() - c0


def _clean(wall: float, cpu: float) -> bool:
    return wall <= 1.2 * cpu + 5e-5


class Sampler:
    """Background probe; ``samples`` holds ``(start, seconds)`` pairs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            wall, cpu = _probe()
            if _clean(wall, cpu):
                self.samples.append((start, wall))

    def __enter__(self) -> Sampler:
        _probe()  # warm the probe's code before the first sample
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def speed(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Mean host speed over ``[start, end]`` relative to the reference (1.0).

    The probes come at a steady interval, so their mean speed weights every
    moment of the interval alike, as the interval's wall time does.  Uses the
    probes inside the interval; if there are fewer than three, the three
    nearest to its middle.
    """
    if not samples:
        raise ValueError("no clean speed probe was recorded")
    inside = [wall for t, wall in samples if start <= t <= end]
    if len(inside) < 3:
        mid = (start + end) / 2
        inside = [wall for _, wall in sorted(samples, key=lambda s: abs(s[0] - mid))[:3]]
    return statistics.fmean(REFERENCE_S / wall for wall in inside)


def measure() -> float:
    """Host speed now, from ``MEASURE_PROBES`` probes in the calling thread."""
    _probe()
    walls = [wall for wall, cpu in (_probe() for _ in range(MEASURE_PROBES)) if _clean(wall, cpu)]
    if not walls:
        raise ValueError("no clean speed probe was recorded")
    return statistics.fmean(REFERENCE_S / wall for wall in walls)
