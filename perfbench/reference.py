"""The fixed reference computation, and the clock that divides by it.

The machine's speed changes by up to two thirds from one second to the
next (the same code runs 80 ms or 130 ms), in spells that are shorter
than the longer operations.  So a short reference computation runs just
before each operation, just after it, and every `INTERVAL_S` while it
runs (from a SIGALRM handler on the same thread; the handler's time is
taken out of the operation's time), and the operation is measured in
units of the reference computation at the speed those samples show.

The reference computation uses no code of the package.  Like the
program it mixes interpreted Python (a breadth-first walk over a grid
with dict and tuple keys, as in mesh assembly) with small-array numpy
arithmetic (theta-like sine and cosine sums over an outer product, as in
elliptic evaluation).  Its result is kept so that no part is skipped.
"""

from __future__ import annotations

import signal
import time
from collections import deque

import numpy as np

INTERVAL_S = 0.02
# typical reference time on a 2-core x86-64 container; converts set-up
# time measured in reference units back to seconds
NOMINAL_REF_S = 1.0e-3

_K = np.arange(1.0, 26.0, 2.0)
_C = (-0.3) ** np.arange(13) * (1.0 + 0.5j)
_Z = np.linspace(0.05, 1.5, 100) * (1.0 + 0.35j)


def reference_work() -> float:
    n = 12
    pos = {(0, 0): 0.0}
    queue = deque([(0, 0)])
    while queue:
        i, j = queue.popleft()
        here = pos[(i, j)]
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (i + di, j + dj)
            if nxt in pos or not (0 <= nxt[0] < n and 0 <= nxt[1] < n):
                continue
            pos[nxt] = here + 0.5 * di - 0.25 * dj
            queue.append(nxt)
    acc = float(len(pos))
    for shift in range(4):
        kz = np.multiply.outer(_Z + 0.01 * shift, _K)
        s = np.sum(_C * np.sin(kz), axis=-1)
        c = np.sum(_C * _K * np.cos(kz), axis=-1)
        acc += float(np.abs(c / s).sum())
    return acc


class ReferenceClock:
    """Times a callable in units of the reference computation.

    The speed at any moment is taken from the nearest reference samples,
    so an operation's size in reference units is the sum, over the
    stretches between consecutive samples, of the stretch's seconds times
    the mean speed (1 / sample seconds) of the samples at its two ends.
    Dividing the whole time by the mean sample time instead would weight
    slow and fast spells wrongly, by up to 7 % when the two alternate.
    """

    def __init__(self):
        self.samples = []  # (start, end) perf_counter seconds
        self.on_sample = None  # called with each sample's seconds (tracing)
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.last = reference_work()
        end = time.perf_counter()
        self.samples.append((start, end))
        if self.on_sample is not None:
            self.on_sample(end - start)

    def measure(self, fn, sample_inside=True):
        """(seconds of fn without the samples taken inside it, its size in
        reference units, fn's result)."""
        first = len(self.samples)
        self._sample()
        start = time.perf_counter()
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            stop = time.perf_counter()
        self._sample()
        taken = self.samples[first:]
        # stretches of fn's own time run from the end of one sample to the
        # start of the next; the first starts at `start`, the last ends at `stop`
        edges = [start] + [t for s, e in taken[1:-1] for t in (s, e)] + [stop]
        speed = [1.0 / (e - s) for s, e in taken]
        units = sum((edges[2 * j + 1] - edges[2 * j]) * 0.5 * (speed[j] + speed[j + 1])
                    for j in range(len(taken) - 1))
        inside = sum(e - s for s, e in taken[1:-1])
        return stop - start - inside, units, out

    def sample_seconds(self, first=0):
        return [e - s for s, e in self.samples[first:]]
