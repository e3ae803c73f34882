"""Machine-speed probe sampled inside the timed region.

On a shared machine the speed of the same code drifts by up to 2x over
minutes. The drift comes from other tenants on the host, so a median over
one run cannot remove it. The probe measures that speed while the workload
runs. An interval timer interrupts the main thread every ``PERIOD_S``, and
between two bytecodes the handler times a fixed loop of small numpy
operations and Python arithmetic, the same mix as skewflow's per-step work.
Timings are then rescaled to a machine on which that loop takes
``REFERENCE_S``:

    scaled = (wall - probe time inside it) * REFERENCE_S / mean probe

The probe runs on the same thread at the same moments as the workload, so
it sees the same slowdown. Probes taken between repetitions, or on the
other CPU, do not (see README.md).
"""

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.02
REFERENCE_S = 1e-4
_MATMULS = 20
_ADDS = 300


class SpeedProbe:
    """Collects probe durations while ``sampling()`` is active."""

    def __init__(self):
        self.samples = []
        self._a = np.random.default_rng(0).standard_normal((3, 3))

    def probe(self, signum=None, frame=None):
        clock = time.perf_counter
        t0 = clock()
        a = x = self._a
        for _ in range(_MATMULS):
            x = a @ x
            x = x / np.abs(x).max()
        s = 0
        for j in range(_ADDS):
            s += j
        self.samples.append(clock() - t0)

    @contextmanager
    def sampling(self):
        """Probe every ``PERIOD_S`` inside the block; yields the sample list start."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield len(self.samples)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def rep_factor(self, start):
        """Probe time inside a block sampled from ``start``, and its speed factor.

        The factor rescales a time measured in that block to reference
        speed.  A block too short for the timer gets one probe right after.
        """
        if len(self.samples) == start:
            self.probe()
            inside = 0.0
        else:
            inside = sum(self.samples[start:])
        return inside, REFERENCE_S / statistics.fmean(self.samples[start:])

    def run_factor(self):
        """Speed factor over every sample of the run."""
        return REFERENCE_S / statistics.fmean(self.samples)
