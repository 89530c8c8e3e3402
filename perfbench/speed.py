"""Host speed probe: times a fixed kernel mix between operations.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give a process drifts by about 30% within seconds and
minutes (a fixed pure-Python loop takes 115-200 ms from one half second to
the next).  Raw wall times of the same code then differ by more than any
useful regression bound.  So each timed operation is bracketed by probes:
a probe times five fixed kernels that stand for the kinds of work galpha
does, and the operation's latency is scaled by REFERENCE_S over the probe
time measured around it.  The scaled latency reads in seconds on a host
whose probe takes REFERENCE_S.

The kernels use numpy and the interpreter only, never galpha, so a change
to galpha cannot move the probe.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# The unit of the scaled times: the probe time of the reference host.  The
# 2-core host that defined the benchmark gave 2.0-4.2 ms.  Fixed: changing it
# rescales every reported time.
REFERENCE_S = 3.0e-3
# An operation's local probe time is the median over this many probe pairs
# centred on it, so one disturbed probe does not scale an operation.
WINDOW = 5


class SpeedProbe:
    """Five kernels of about 1-4 ms each on the 2-core host."""

    def __init__(self, threads: int):
        rng = np.random.default_rng(0)
        self._matrix = rng.normal(size=(48, 48))
        self._small = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        self._large = rng.normal(size=65536) + 1j * rng.normal(size=65536)
        self._threads = max(1, threads)
        self._pool = ThreadPoolExecutor(max_workers=self._threads)
        self.kernels = (self._interpreter, self._small_arrays, self._lapack,
                        self._vector, self._threaded_vector)

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _interpreter() -> None:
        total = 0
        for i in range(40000):
            total += i * i % 7

    def _small_arrays(self) -> None:
        # like scalar refinement: many numpy calls on a few points
        z = 0.3 + 0.1j
        head = self._small[:8]
        for _ in range(500):
            z = complex(np.abs(np.exp(head * z)).sum() * 1e-3)

    def _lapack(self) -> None:
        # like polynomial root finding
        for _ in range(3):
            np.linalg.eigvals(self._matrix)

    def _vector(self) -> None:
        # like a grid sweep in one thread
        for _ in range(15):
            np.abs(np.exp(self._small * 0.5)).sum()

    def _threaded_vector(self) -> None:
        # like the grid sweep split over GALPHA_THREADS workers
        step = self._threads

        def part(start: int) -> None:
            for _ in range(4):
                np.abs(np.exp(self._large[start::step] * 0.5)).sum()

        list(self._pool.map(part, range(step)))

    def sample(self) -> float:
        """Geometric mean of the five kernel times, in seconds."""
        logs = 0.0
        for kernel in self.kernels:
            t0 = time.perf_counter()
            kernel()
            logs += math.log(time.perf_counter() - t0)
        return math.exp(logs / len(self.kernels))


def scale(times: list[float], probes: list[float]) -> list[float]:
    """Scale times[i], bracketed by probes[i] and probes[i + 1], to the
    reference host."""
    if len(probes) != len(times) + 1:
        raise ValueError("each time needs a probe before and after it")
    pairs = [(a + b) / 2.0 for a, b in zip(probes, probes[1:])]
    scaled = []
    for i, t in enumerate(times):
        # the window shifts inwards at the ends, so it keeps WINDOW pairs
        lo = max(0, min(i - WINDOW // 2, len(pairs) - WINDOW))
        local = statistics.median(pairs[lo:lo + WINDOW])
        scaled.append(t * REFERENCE_S / local)
    return scaled
