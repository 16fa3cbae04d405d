"""A fixed pure-Python reference that tracks how fast the machine runs right now.

On a small shared VM the same code runs at up to half speed for
stretches of seconds to minutes, and a whole run can sit in one of them.
A fixed reference timed between instances follows the slowdown: over
43 passes of ``oracle-crosscheck`` in four processes, pass times spread
with a coefficient of variation of 0.22, and pass time divided by the
median reference time around it by 0.05 to 0.09, depending on the
reference.  No reference follows every workload exactly: in the slow
stretches a tight loop slows more than the oracle's enumeration and a
dict walk less than the linear closure, so this reference does some of
both (``bench/README.md`` has the figures).

So the benchmark reports its end-to-end times at a fixed speed of the
reference: each measured time is multiplied by ``REFERENCE_S`` divided by
the median time of the reference calls made around it.  The reference is
benchmark code, so a change to the package cannot move it.  It runs once
untimed before each timed call, so it starts with its code and data in
the caches whatever the package left there, and with the garbage
collector paused.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time

# About the reference's time on a 2-core KVM guest under CPython 3.11 in a
# fast stretch; reported times are scaled to this speed.
REFERENCE_S = 0.001
# While measuring, run the reference at most this often, and scale each
# time by the median of the WINDOW reference calls before it and after it.
PROBE_INTERVAL_S = 0.1
WINDOW = 10


def reference() -> int:
    """Enumerate freely reduced words three times over, then fill a dict with 2000 keys and look them up.

    The first part is a tight loop on a few KB, the second spreads over a
    few hundred KB; in the host's slow stretches the first slows more than
    the package's code does and the second, on some workloads, less.
    Words and keys are ints, which the garbage collector does not track,
    so the reference does not move the collector's schedule for the
    program.
    """
    total = 0
    for _ in range(3):
        frontier = [0]  # a word over 1..4 in base 5; a + b == 5 are inverse letters
        for _length in range(5):
            longer = []
            for word in frontier:
                last = word % 5
                for a in (1, 2, 3, 4):
                    if last + a != 5:
                        longer.append(word * 5 + a)
            frontier = longer
        total += len(frontier)
    table = {}
    for i in range(2000):
        table[(i * 7919 % 2003) << 3 | (i & 7)] = i
    for i in range(2000):
        total += table.get((i * 104729 % 2003) << 3 | (i & 7), 0)
    return total


class SpeedProbe:
    """Reference calls: when each ended and how long it took."""

    reference_s = REFERENCE_S
    interval_s = PROBE_INTERVAL_S

    def __init__(self):
        self.at: list[float] = []
        self.times: list[float] = []

    def timed_reference(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference()  # untimed, so the timed call finds its code and data in the caches
            start = time.perf_counter()
            reference()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def probe(self, calls: int = 1) -> None:
        for _ in range(calls):
            self.times.append(self.timed_reference())
            self.at.append(time.perf_counter())

    def maybe_probe(self) -> None:
        """Probe unless the last probe ended less than ``interval_s`` ago."""
        if not self.at or time.perf_counter() - self.at[-1] >= self.interval_s:
            self.probe()

    def scale(self) -> float:
        """The factor that takes a time measured during all the probes to the reference speed."""
        return self.reference_s / statistics.median(self.times)

    def scale_at(self, moment: float) -> float:
        """The factor for a time measured at ``moment``, from the ``WINDOW`` probes each side of it."""
        j = bisect.bisect(self.at, moment)
        return self.reference_s / statistics.median(self.times[max(0, j - WINDOW) : j + WINDOW])


class ProcessSpeedProbe(SpeedProbe):
    """The same, with a bare interpreter process, ``python -c pass``, for the reference.

    A CLI process spends most of its time starting an interpreter, which
    the in-process reference follows badly: over 284 runs of one CLI
    instance the quartile spread of its time was 0.22 unscaled, 0.20
    scaled by the in-process reference and 0.09 divided by the time of a
    bare interpreter started just before it.
    """

    # About the bare interpreter's time on the machine of REFERENCE_S.
    reference_s = 0.07
    interval_s = 0.5

    def __init__(self, cwd, env: dict):
        super().__init__()
        self.cwd = cwd
        self.env = env

    def timed_reference(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.cwd, env=self.env, check=True)
        return time.perf_counter() - start
