"""Speed of the benchmark's CPU while a pass runs.

On a shared host the same pass can take 20-40% longer for seconds or
minutes at a time, most likely as other tenants load the physical core
under the benchmark's CPU; a pass's wall time then tracks the host rather
than the program.  run.py holds itself and every process it starts to one
CPU, and a SpeedProbe thread on that CPU times a fixed interpreter kernel
(about 0.3 ms) every 0.1 s, under 1% of the CPU.  A pass's wall time
divided by the probe's mean time over the pass is its cost in probe
units, which moves with the program and hardly with the host.
"""

import statistics
import threading
import time

PERIOD_S = 0.1


def _kernel():
    counts = {}
    for i in range(2000):
        counts[i & 127] = counts.get(i & 127, 0) + i
    return counts


class SpeedProbe:
    """Background probe; use as a context manager around the passes."""

    def __init__(self):
        self._samples = []  # (start, duration) in perf_counter seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            start = time.perf_counter()
            _kernel()
            self._samples.append((start, time.perf_counter() - start))
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mean_s(self, start, end):
        """Mean kernel time of the samples taken between start and end, or
        of all samples when the interval was too short to hold one."""
        inside = [d for t, d in self._samples if start <= t <= end]
        return statistics.fmean(inside or [d for _, d in self._samples])
