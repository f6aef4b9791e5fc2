"""Timing against a fixed reference kernel, so host speed swings divide out.

The benchmark runs on a shared host whose speed swings by up to 2x over
seconds to minutes (another tenant on the sibling hardware thread), and CPU
time swings with wall time.  A run that falls wholly in a slow stretch reads
slow whatever its length.  So every timed region (an infer, a tick, a block
of set-ups) is bracketed by a run of a fixed reference kernel — the
benchmark's own code, a mix of the work the program does: dense matmul,
``np.add.at`` scatter and interpreter-bound Python — and the
region's wall time is rescaled by ``REF_KERNEL_S / kernel time``, the
median of the ``2 * NEIGHBOURS`` kernel runs nearest it (half before, half
after), which smooths a single run's jitter but still follows swings that
last seconds.  The result is the region's time at the reference speed: the
speed at which the kernel takes ``REF_KERNEL_S``.

The kernel must run alone: a program that left threads working between ops
would slow the kernel and so shrink its own rescaled times.  Each kernel run
therefore also reads the process CPU time against its own thread's CPU time,
and ``RefClock.alone`` says whether the kernel had the process to itself.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np

#: The reference speed: about the kernel's time on an idle host, with one
#: BLAS thread on a 2-vCPU x86-64 VM (numpy 2, OpenBLAS).
REF_KERNEL_S = 0.013
#: Kernel runs on each side of a region that set its speed.
NEIGHBOURS = 3
#: The kernel had the process to itself if the process used at most this
#: share more CPU than the kernel's thread (plus ``_CPU_SLACK_S``).
BACKGROUND_CPU_SHARE = 0.10
_CPU_SLACK_S = 0.002


class RefClock:
    """Times regions of work, each bracketed by runs of the reference kernel."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20_231_017)
        self._dense = rng.normal(size=(8_000, 32))
        self._weights = rng.normal(size=(32, 32))
        self._scatter_to = rng.integers(0, 8_000, size=15_000)
        self._scatter_vals = rng.normal(size=(15_000, 32))
        self._out = np.empty((8_000, 32))
        self._start = 0.0
        #: Wall time of every kernel run, and the CPU the rest of the
        #: process used during each.
        self.kernel_s: List[float] = []
        self.background_cpu_s: List[float] = []

    def _kernel(self) -> None:
        # Roughly equal shares of time; this mix tracked the infer time of
        # both backends best of the parts tried (matmul, row gather,
        # scatter, dict/str work, integer loop, object churn; see the
        # README's noise section).
        for _ in range(3):
            self._dense @ self._weights
        self._out.fill(0.0)
        np.add.at(self._out, self._scatter_to, self._scatter_vals)
        table: dict = {}
        for i in range(15_000):
            key = i % 509
            table[key] = table.get(key, 0) + len(str(i))
        total = 0
        for i in range(100_000):
            total += i

    def kernel(self) -> float:
        """One run of the reference kernel; returns its wall time."""
        cpu0, thread0 = time.process_time(), time.thread_time()
        t0 = time.perf_counter()
        self._kernel()
        wall = time.perf_counter() - t0
        thread = time.thread_time() - thread0
        self.background_cpu_s.append(max(0.0, time.process_time() - cpu0 - thread))
        self.kernel_s.append(wall)
        return wall

    def start(self) -> None:
        """Begin a timed region (the previous region's closing kernel run
        opens this one; the first region runs one of its own)."""
        if not self.kernel_s:
            self.kernel()
        self._start = time.perf_counter()

    def stop(self) -> Tuple[float, int]:
        """End the timed region: its wall time in seconds, and the index of
        the kernel run after it (for ``at_ref``)."""
        wall = time.perf_counter() - self._start
        self.kernel()
        return wall, len(self.kernel_s) - 1

    def at_ref(self, wall: float, after: int) -> float:
        """A region's time at the reference speed, once the run is over (so
        the kernel runs after the region are known)."""
        near = self.kernel_s[max(0, after - NEIGHBOURS):after + NEIGHBOURS]
        return wall * REF_KERNEL_S / statistics.median(near)

    def alone(self) -> bool:
        """Whether the kernel had the process to itself (median run)."""
        if not self.kernel_s:
            return True
        return (statistics.median(self.background_cpu_s)
                <= BACKGROUND_CPU_SHARE * statistics.median(self.kernel_s)
                + _CPU_SLACK_S)

    def median_kernel_ms(self) -> float:
        return statistics.median(self.kernel_s) * 1e3 if self.kernel_s else 0.0
