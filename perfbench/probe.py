"""A CPU-speed probe that shares the benchmark's core at the lowest priority.

    python3 probe.py OUT

On a shared host the core under the benchmark runs at about half speed
whenever its hardware sibling is busy with another tenant's work, and it
switches between the two speeds every second or so.  The guest cannot see
this: steal time stays near zero and CPU time grows with wall time.  The probe
runs beside the benchmark on the same core at nice 12, so the scheduler gives
it about 6 % of the core in short slices spread through every invocation
(at nice 19 it gets a quarter as many samples, and the normalised times
spread about twice as much).
It times a fixed unit of pure-Python work (sparse rational polynomial
products, close to what chowkit spends its time on) by its own CPU time,
which counts only while the unit runs.  The mean unit cost during an
invocation is then the core's slowdown over that invocation, and the runner
divides the invocation's times by it.

On SIGTERM the probe writes ``[[perf_counter, unit CPU seconds], ...]`` to OUT
as JSON and exits.  ``time.perf_counter`` is system-wide monotonic on Linux,
so the readings line up with the runner's and the children's.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# cost of one probe unit on an uncontended core of the reference machine
# (Intel Xeon, 2 vCPUs, Python 3.11.7): normalised times are seconds at that speed
REFERENCE_UNIT_S = 500e-6
# the fewest samples one window is measured by; a shorter window borrows the
# samples nearest to it
MIN_SAMPLES = 8

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(3)}


def _unit():
    """Two products of a 9-term bivariate polynomial with rational coefficients."""
    for _ in range(2):
        out = {}
        for (i, j), x in _TERMS.items():
            for (k, m), y in _TERMS.items():
                key = (i + k, j + m)
                out[key] = out.get(key, 0) + x * y
    return out


def _run(out_path):
    os.nice(12)
    gc.disable()  # the unit frees everything by reference count
    samples = []

    def stop(signum, frame):
        with open(out_path, "w") as fh:
            json.dump(samples, fh)
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    cpu, clock, unit, append = time.thread_time, time.perf_counter, _unit, samples.append
    while True:
        started = cpu()
        unit()
        append((clock(), cpu() - started))


class SpeedProbe:
    """Runs the probe process beside the benchmark and reads its samples."""

    def __init__(self, work):
        self.out_path = os.path.join(work, "probe.json")
        self.proc = None
        self.times = []
        self.costs = []

    def start(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), self.out_path])

    def stop(self):
        """End the probe, wait for it and load its samples."""
        if self.proc is None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None
        try:
            with open(self.out_path) as fh:
                samples = json.load(fh)
        except (OSError, ValueError):
            samples = []
        self.times = [t for t, _ in samples]
        self.costs = [c for _, c in samples]

    def slowdown(self, start, end):
        """Mean unit cost over [start, end] relative to the reference speed."""
        lo, hi = bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            # widen around the window to the nearest MIN_SAMPLES samples
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("the speed probe recorded no samples")
        return statistics.fmean(self.costs[lo:hi]) / REFERENCE_UNIT_S


if __name__ == "__main__":
    _run(sys.argv[1])
