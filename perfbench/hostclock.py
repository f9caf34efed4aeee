"""Wall time corrected for the speed of a shared host.

On the 2-vCPU boxes this benchmark runs on, the speed a process gets
drifts by up to 1.8x over tens of seconds (the same 60-step noiter loop
took 0.33 s to 0.73 s within four minutes, with CPU time equal to wall
time), so raw wall times of whole runs spread by a fifth to a quarter of
their median.  The clock samples the host's speed with a fixed kernel that
does not use the library, at least every SAMPLE_EVERY seconds, and reports
durations in reference seconds: wall seconds scaled by REFERENCE_KERNEL_S
over the kernel time measured around them.  On a host running at reference
speed the two coincide.

The kernel is dense LU solves of a fixed 300x300 system.  Over 250
interleaved samples its time tracked the host's speed better than a loop of
small numpy operations did: normalized by it, the quartile spread of 10 s
windows fell from 0.21 to 0.08 for the noiter loop and from 0.12 to 0.08
for the network8 build.
"""

import bisect
import signal
import statistics
import time

import numpy as np

SAMPLE_EVERY = 0.1
# A stretch without a sample longer than this (one slow solve or build) is
# sampled by a timer interrupt.  Solves shorter than LONG_GAP - SAMPLE_EVERY
# are never interrupted: a kernel run in the middle of a 10 ms solve would
# add noise to its time.
LONG_GAP = 0.3
# Samples within this distance of a moment give its local speed.
WINDOW = 0.5
# Median kernel time on the reference host (Intel Xeon, 2 vCPUs, one BLAS
# thread, Python 3.11, numpy 2.4).
REFERENCE_KERNEL_S = 0.0033

_rng = np.random.Generator(np.random.PCG64(0))
_A = _rng.normal(size=(300, 300))
_A = _A @ _A.T + 300.0 * np.eye(300)


def _kernel():
    for k in range(2):
        np.linalg.solve(_A, _A[:, k])


class HostClock:
    """Speed samples of one run and conversions to reference seconds.

    The benchmark calls ``maybe_sample`` between solves and builds.  While
    running (``with clock:``) a timer also interrupts the process LONG_GAP
    seconds after the last sample and runs the kernel in the signal
    handler, so a single solve that takes seconds is sampled throughout.
    The kernel intervals are recorded and left out of every duration the
    clock reports.
    """

    def __init__(self):
        self.mid = []
        self.kernel_s = []
        self.spans = []
        self._previous = None
        self._running = False
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self.sample()
        return self

    def __exit__(self, *exc):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _on_alarm(self, signum, frame):
        # An alarm that lands inside a sample taken between solves is dropped.
        if not self._sampling:
            self.sample()

    def sample(self):
        self._sampling = True
        try:
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
            self.mid.append(0.5 * (t0 + t1))
            self.kernel_s.append(t1 - t0)
            self.spans.append((t0, t1))
        finally:
            self._sampling = False
        if self._running:
            # Re-armed after every sample, so timer samples never queue up.
            signal.setitimer(signal.ITIMER_REAL, LONG_GAP)

    def maybe_sample(self):
        if not self.spans or time.perf_counter() - self.spans[-1][1] >= SAMPLE_EVERY:
            self.sample()

    def _pieces(self, t0, t1):
        """The parts of [t0, t1] outside kernel runs."""
        start = t0
        for a, b in self.spans[max(bisect.bisect_left(self.spans, (t0, t0)) - 1, 0):]:
            if a >= t1:
                break
            if a > start:
                yield start, a
            start = max(start, b)
        if t1 > start:
            yield start, t1

    def _local_kernel_s(self, t):
        lo = bisect.bisect_left(self.mid, t - WINDOW)
        hi = bisect.bisect_right(self.mid, t + WINDOW)
        if lo < hi:
            return statistics.median(self.kernel_s[lo:hi])
        return statistics.mean(self.kernel_s[max(lo - 1, 0) : lo + 1])

    def wall(self, t0, t1):
        """Seconds of [t0, t1] minus the kernel runs inside it."""
        return sum(b - a for a, b in self._pieces(t0, t1))

    def reference(self, t0, t1):
        """Reference seconds of [t0, t1], minus the kernel runs inside it."""
        return REFERENCE_KERNEL_S * sum(
            (b - a) / self._local_kernel_s(0.5 * (a + b)) for a, b in self._pieces(t0, t1)
        )

    def speed(self):
        """Host speed over the run relative to the reference host."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s)
