"""Machine speed, sampled by a fixed kernel interleaved with the timed work.

The benchmark's machine shares its cores with other tenants, and its speed
swings by a third within seconds and by a quarter from one minute to the
next, with no steal time reported.  The same ``solve_chain_lp`` call takes
1.1 s in one minute and 1.9 s in another.  After every timed operation (and
every set-up step) the run spends ``SHARE`` of that operation's time running
a fixed kernel of heap, dict, small matrix-vector and array-wide
searchsorted/where work, the operations the library's hot paths are made
of.  The kernel does not depend on the library, so scaling a run's times
by ``REFERENCE_S`` over the kernel's mean time in that run takes out the
machine's swings and leaves every change the library makes.  On a quiet
machine the scaled and the measured seconds agree.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

SHARE = 0.1  # kernel time as a share of the measured time
REFERENCE_S = 360e-6  # the kernel's time on this machine when it is quiet


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((150, 150))
        self._vector = np.ones(150)
        self._values = rng.random(6_000)
        self._breaks = np.linspace(0.0, 1.0, 9)
        self.seconds = 0.0
        self.kernels = 0

    def _kernel(self) -> None:
        heap: list = []
        for i in range(300):
            heapq.heappush(heap, (i * 7919) % 1000)
        while heap:
            heapq.heappop(heap)
        counts: dict = {}
        for i in range(300):
            counts[i % 37] = counts.get(i % 37, 0) + i
        for _ in range(5):
            self._matrix @ self._vector
        u = self._values
        k = np.searchsorted(self._breaks, u, side="right")
        np.where(k > 4, u, 1.0 - u).sum()

    def sample(self, busy_s: float) -> None:
        """Run the kernel for ``SHARE`` of ``busy_s`` seconds, at least once."""
        t0 = time.perf_counter()
        while True:
            self._kernel()
            self.kernels += 1
            if time.perf_counter() - t0 >= SHARE * busy_s:
                break
        self.seconds += time.perf_counter() - t0

    @property
    def kernel_s(self) -> float:
        return self.seconds / self.kernels

    def scale(self, seconds: float) -> float:
        """Seconds measured in this run, at the reference machine speed."""
        return seconds * REFERENCE_S / self.kernel_s
