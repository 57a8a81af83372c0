"""Speed probe: how fast this machine runs at the moment.

On a shared virtual machine the CPU's speed drifts by up to about 30% over
seconds to minutes, and thread CPU time drifts with it, so no amount of
repetition inside one run removes the drift from a wall time. Far steadier
is the ratio of a round's wall time to a fixed probe timed around and
during its stages. `run.py` therefore reports its end-to-end times at a reference
speed: wall seconds × REFERENCE_S / median probe seconds.

The probe is the benchmark's own code, never efkit's, so a change to efkit
cannot move it: a pure-Python loop, small numpy fancy-indexing of the kind
the solver's penalty scan does, and a vector pass over 4 MB like the
network's forward pass on a large space. Each part takes about a third of
the probe's ~30 ms.

Set-up time is mostly process start and imports, which this probe does not
follow: they drift by up to 30% on their own. Set-up is therefore scaled
by a reference process that starts Python and imports numpy, and nothing
else: set-up wall seconds × REFERENCE_IMPORT_S / reference seconds.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Median probe time over a few minutes on the 2-core VM the reference
# figures in README.md were measured on. It only fixes the scale of the
# reported times; any constant would do.
REFERENCE_S = 0.030
REFERENCE_IMPORT_S = 0.16  # median of `python3 -c "import numpy"` there
PERIOD_S = 0.5  # probe interval inside a timed stage

_rng = np.random.default_rng(0)
_SCAN_INDEX = _rng.integers(0, 28, size=(81, 3))
_SCAN_ERRORS = _rng.random(28)
_VECTOR = _rng.random(500_000)


def probe() -> float:
    """Wall seconds of one fixed unit of mixed interpreter and numpy work."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(900):
        penalties = _SCAN_ERRORS[_SCAN_INDEX].sum(axis=1)
        np.flatnonzero(penalties == penalties.max())
    for _ in range(16):
        float((_VECTOR * 1.0001).sum())
    return time.perf_counter() - start


class Meter:
    """Times stages and probes the speed just before and after each one and,
    when asked, every PERIOD_S during it. Probes taken during a stage run in
    a SIGALRM handler; their time is taken out of the stage's time."""

    def __init__(self):
        self.probes_s: list[float] = []
        self.last_s = 0.0  # the last stage's time, probes excluded
        self._inside_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.probes_s.append(probe())
        self._inside_s += time.perf_counter() - start

    @contextmanager
    def timing(self, during: bool):
        self.probes_s.append(probe())
        inside = self._inside_s
        if during:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.last_s = time.perf_counter() - start - (self._inside_s - inside)
            self.probes_s.append(probe())


def scaled(wall_s: float, probes_s: list[float]) -> float:
    """A wall time at the reference speed, given the probes taken around and
    during its parts; the median ignores a probe that an interrupt slowed."""
    return wall_s * REFERENCE_S / statistics.median(probes_s)


probe()  # first call pays for page faults and numpy's lazy set-up
