"""Host-speed sampling for the end-to-end timings.

The cores of a shared host run the same code at speeds up to ~1.8x
apart, in phases of a fraction of a second to minutes (seen on a 2-core
Xeon VM: the same `arcs` round took 17.8 s and 24.5 s a minute apart,
with every op of a `small` round slowed alike).  Raw wall times of runs
made minutes apart then differ more than any change worth measuring.

So each untraced round runs under a sampler: every INTERVAL_S a SIGALRM
handler times one call of `calibrate`, a fixed mix of the work asq does
(integer bytecode, dicts, frozensets, sorting, small numpy ops), in the
round's own process.  A round's time is then rescaled to a host on which
`calibrate` takes NOMINAL_S:

    scaled = (raw - time spent in the handler) * mean(NOMINAL_S / sample)

The kernel is the benchmark's own code, so a change to asq moves the
scaled time as it moves the raw time; only the host's speed is divided
out.  Raw times are kept in results.json next to the scaled ones.

The sampler is paused while `extend_arcs` runs its forked workers: the
handler would then share two cores with two workers and time the
scheduler, not the host.  Forked children do not inherit the timer.
"""
from __future__ import annotations

import signal
import time
from typing import List

import numpy as np

INTERVAL_S = 0.05
# Median duration of one `calibrate` call on a 2-core Xeon (Sapphire
# Rapids) KVM guest, Python 3.11, numpy 2.4; only the unit of the scaled
# times depends on it.
NOMINAL_S = 0.0008

_NP = np.arange(1024, dtype=np.int64)


def calibrate() -> int:
    """A fixed amount of mixed work, ~0.8 ms."""
    s = 0
    for i in range(2400):
        s += (i * 7) ^ (i >> 3)
    d: dict = {}
    for i in range(600):
        d[i & 63] = d.get(i & 63, 0) + i
    sets = {frozenset((i % 97, (i * 5) % 97, (i * 11) % 97)) for i in range(240)}
    s += len(sorted(tuple(sorted(x)) for x in sets))
    for _ in range(16):
        s += int((_NP ^ (_NP >> 2)).sum())
    return s + len(d)


class Sampler:
    """Times `calibrate` every INTERVAL_S of wall time until stopped."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0      # wall time inside the handler, calibration included
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibrate()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.resume()

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        self.pause()
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None


def speed(samples: List[float]) -> float:
    """Host speed relative to the nominal host: mean of NOMINAL_S / sample."""
    return sum(NOMINAL_S / s for s in samples) / len(samples)
