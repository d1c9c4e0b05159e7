"""Host speed, sampled by a fixed reference kernel between ops.

On a shared host (measured on a 2-core VM) the same op can take 1.6 times
longer for minutes at a time, and that drift swamps run-to-run
comparisons.  A short kernel that mixes small complex `eigh` stacks with
Python object churn (the two costs that dominate the package) is timed
between ops; its time tracks the slowdown closely.  Op and set-up times
are scaled to a host on which the kernel takes REFERENCE_S:

    scaled = measured * REFERENCE_S / (kernel time around the measurement)

The kernel is benchmark code, so a change to the package cannot move it.
Raw times are kept next to the scaled ones in the run record.
"""
from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.002
PROBE_EVERY_S = 0.25
_REPEATS = 3

_rng = np.random.default_rng(0)
_M = _rng.normal(size=(3, 8, 8)) + 1j * _rng.normal(size=(3, 8, 8))
_STACK = _M + _M.conj().swapaxes(-1, -2)
_ROWS = [list(_rng.normal(size=64)) for _ in range(60)]


def _kernel() -> None:
    for _ in range(12):
        w, V = np.linalg.eigh(_STACK)
        (V * np.clip(w, 0, None)[..., None, :]) @ V.conj().swapaxes(-1, -2)
    sum(abs(z) for row in _ROWS for z in [complex(x, -x) for x in row])
    "".join(format(x, ".17g") for x in _ROWS[0])


class HostSpeed:
    """Time-stamped kernel timings, and times scaled by them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time, kernel seconds)
        _kernel()  # first calls pay one-off costs
        _kernel()

    def probe(self) -> None:
        times = []
        for _ in range(_REPEATS):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
        self.samples.append((perf_counter(), statistics.median(times)))

    def due(self) -> bool:
        return not self.samples or perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S

    def kernel_s(self, t0: float, t1: float) -> float:
        """Median kernel time over [t0, t1] and the two nearest probes on each side."""
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_right(times, t0) - 2, 0)
        hi = min(bisect.bisect_left(times, t1) + 1, len(times) - 1)
        return statistics.median(s for _, s in self.samples[lo:hi + 1])

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * REFERENCE_S / self.kernel_s(t0, t1)
