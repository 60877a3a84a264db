"""Host speed: a fixed reference kernel timed every few milliseconds, to scale times to a nominal host.

The benchmark runs on shared hosts whose effective speed moves by up to 2x
for seconds to minutes, with the load of other tenants; process CPU time
moves with it, so timing with it does not help. So while a unit of work is
measured, a wall-clock timer interrupts it every ``PERIOD_S`` and times a
small kernel of the benchmark's own (``kernel``: Python object allocation and
pivots on a tiny numpy tableau, the two kinds of work the package does; it
calls nothing in the package). A sample runs the kernel three times and keeps
the median time, so one run cut by an interrupt does not count. Each stretch
of time between two samples whose kernel took r1 and r2 seconds counts as

    stretch * NOMINAL_S / ((r1 + r2) / 2)

that is, as the time it would take on a host where the kernel takes
``NOMINAL_S``; the samples themselves are left out. A change to the package
moves a scaled time as it moves the raw one. The timer needs no hook in the
package, so samples fall inside long items too, whatever the package's code.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

NOMINAL_S = 1e-3   # kernel time of the nominal host
PERIOD_S = 0.025   # wall time between two samples

_TABLEAU = np.random.default_rng(0).random((7, 14))


def kernel() -> tuple[dict, np.ndarray]:
    """Fixed work of about 1 ms: build a dict of small objects, then pivot a 7x14 array."""
    objects = {i: (i, float(i), [i]) for i in range(1200)}
    tableau = _TABLEAU.copy()
    for step in range(40):
        col = int(np.argmin(tableau[-1]))
        tableau -= np.outer(tableau[:, col % 7], tableau[step % 7]) * 1e-3
    return objects, tableau


class HostSpeed:
    """Kernel samples, and times scaled by them.

    ``with host:`` samples on entry, every ``PERIOD_S`` inside and on exit;
    a time between entry and exit can be scaled after exit.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        clock = time.perf_counter
        start = clock()
        runs = []
        for _ in range(3):
            begin = clock()
            kernel()
            runs.append(clock() - begin)
        self.starts.append(start)
        self.ends.append(clock())
        self.kernel_s.append(sorted(runs)[1])
        self._sampling = False

    def __enter__(self) -> "HostSpeed":
        self.sample()
        self._handler = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.sample()

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) time from ``start`` to ``end``, samples left out."""
        k = bisect.bisect_right(self.ends, start)  # stretch k: from sample k-1 to sample k
        if k == 0 or self.starts[-1] < end:
            raise ValueError("interval is not between two samples")
        raw = scaled = 0.0
        while True:
            stretch = min(end, self.starts[k]) - max(start, self.ends[k - 1])
            if stretch > 0:
                raw += stretch
                scaled += stretch * 2 * NOMINAL_S / (self.kernel_s[k - 1] + self.kernel_s[k])
            if self.starts[k] >= end:
                return raw, scaled
            k += 1
