"""Host-speed calibration: a fixed kernel timed every half second while the workload runs.

The host this benchmark was written on changes speed by up to 2x for seconds
to minutes at a time, so two runs of identical work differ by 20% or more (a
fixed pass of oracle calls varied with a coefficient of variation of 0.16 to
0.23 over 150 s).  Every time the benchmark reports is therefore rescaled to
a reference speed:

    reported = measured * REFERENCE_S / kernel_s

where kernel_s is the median time the kernel below took while the measured
interval ran, and REFERENCE_S is its time at the reference speed.  A
background thread runs the kernel every half second and times it in thread
CPU time, which leaves out the waits for the interpreter lock and counts
only how fast the core executes.  The kernel mixes what the package spends
its time on: interpreted arithmetic and small numpy linear-algebra calls.
It is the benchmark's own code, so no change to the package moves it.
"""

import bisect
import statistics
import threading
import time

import numpy as np

REFERENCE_S = 0.007
INTERVAL_S = 0.5
_M = np.array([[2.0, 0.3], [0.3, 1.5]])
_V = np.array([0.2, 0.7])


def kernel_seconds():
    """Thread CPU time of one run of the calibration kernel."""
    start = time.thread_time()
    x = 0.0
    for _ in range(400):
        x += float(np.linalg.det(_M)) + float(np.linalg.solve(_M, _V)[0])
        for j in range(20):
            x += j * 0.5
    return time.thread_time() - start


class Sampler:
    """Kernel timings every INTERVAL_S in a daemon thread: (perf_counter, seconds)."""

    def __init__(self):
        self.times = []
        self.kernel_s = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.kernel_s:        # a run shorter than one interval
            self.kernel_s.append(kernel_seconds())
            self.times.append(time.perf_counter())

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            seconds = kernel_seconds()
            self.times.append(time.perf_counter())
            self.kernel_s.append(seconds)

    def factor(self, start, end):
        """REFERENCE_S over the median kernel time in [start, end], widened to 2 samples a side."""
        lo = max(0, bisect.bisect_left(self.times, start) - 2)
        hi = bisect.bisect_right(self.times, end) + 2
        return REFERENCE_S / statistics.median(self.kernel_s[lo:hi])
