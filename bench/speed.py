"""The machine's speed, sampled while the benchmark runs, so that times can be
given in reference seconds.

On a shared host the machine's speed swings by a third or more over tens of
seconds, far more than one run can average out.  While a run sets up and
runs its jobs, a helper process (this file, run as a script) times a small
fixed pure-Python probe every PERIOD_S on another core.  A job's time is
then scaled by REFERENCE_PROBE_S / (the median probe time from WINDOW_S
before the job to WINDOW_S after it).  The median, not the mean: a probe
that a pause of the helper lands in reads many times too slow.

The probe runs in its own process, with its own cache and heap, so what a
job does (how much memory it walks, how many objects it keeps) cannot move
it much, and a change to the package's cost is not scaled away.  Both
processes read the same monotonic clock, which perf_counter is on Linux.
"""

from __future__ import annotations

import bisect
import gc
import select
import statistics
import subprocess
import sys
import time
from time import perf_counter

PERIOD_S = 0.01
WINDOW_S = 0.05
# typical probe time on the 2-core Xeon the benchmark was defined on: there,
# a reference second is close to a second
REFERENCE_PROBE_S = 0.00048

_MASKS = tuple(((1 << 120) - 1) // (2 * i + 3) for i in range(64))
# about 300 KB of 1500-bit ints
_BIG = tuple(((1 << 1500) - 1) // (2 * i + 3) for i in range(1500))


def _probe() -> int:
    # big-int masks in a tight loop, then a walk over a larger working set:
    # the two kinds of work the package does
    acc = 0
    for i in range(500):
        m = _MASKS[i & 63]
        acc = (acc ^ m) & (m | (acc >> 1))
        acc += (m & -m).bit_length()
    for m in _BIG:
        acc += (m & (acc | 0xFFFF)).bit_count()
    return acc


def _sample_until_stdin_closes() -> None:
    """The helper: time the probe every PERIOD_S until its parent closes stdin,
    then print one "start seconds" line per probe."""
    gc.disable()
    samples = []
    while True:
        started = perf_counter()
        _probe()
        samples.append((started, perf_counter() - started))
        if len(samples) == 1:
            print("ready", flush=True)
        if select.select([sys.stdin], [], [], 0)[0]:
            break
        time.sleep(PERIOD_S)
    print("\n".join(f"{start!r} {seconds!r}" for start, seconds in samples))


class SpeedSampler:
    """Context manager: runs the helper while active; scales times after."""

    def __init__(self):
        self._starts: list[float] = []
        self._probe_s: list[float] = []
        self._helper: subprocess.Popen | None = None

    def __enter__(self):
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        if self._helper.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("the speed sampler's helper did not start")
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._helper.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
            raise
        for line in out.splitlines():
            start, seconds = line.split()
            self._starts.append(float(start))
            self._probe_s.append(float(seconds))
        return False

    def median_probe_s(self) -> float:
        return statistics.median(self._probe_s)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds for the interval [start, end], timed while active."""
        lo = bisect.bisect_left(self._starts, start - WINDOW_S)
        hi = bisect.bisect_right(self._starts, end + WINDOW_S)
        # a window the helper was paused through takes the nearest probe
        near = self._probe_s[lo:hi] or self._probe_s[max(0, lo - 1):lo + 1]
        return (end - start) * REFERENCE_PROBE_S / statistics.median(near)


if __name__ == "__main__":
    _sample_until_stdin_closes()
