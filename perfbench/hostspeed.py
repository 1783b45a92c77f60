"""How fast the host runs, from a fixed kernel that uses no advlab code.

A shared host changes speed by tens of percent over seconds to minutes (a
fixed single-thread numpy loop on a 2-vCPU Xeon ranged 0.62-1.26 s per rep,
CPU time equal to wall time).  While an untraced pass runs, ``Probe.sampling``
interrupts it after every ``EVERY_S`` seconds of wall time and times the
kernel, so the samples cover the pass evenly.  ``scale_during`` turns a time
into seconds on a host where one sample takes ``REFERENCE_S``, from the
samples taken while it ran.  advlab never runs the kernel, so a change to the
program moves the scaled times as it moves the raw ones.

Over ten seeds (one process each), scaling cut the spread between quartiles
of lemma_suite's wall time from 18% of its median to 3%, and of sweep_nn's
from 20% to 5%; mc_risk, which streams a 448 MB block, follows the kernel
less closely, so its spread fell from 16% to 5% on a noisy host but rose
from 2-5% to 8-9% on a quiet one.

The kernel mixes what the workloads spend their time on: interpreted Python
(per-iteration overhead of the trainers), numpy and BLAS calls on a 50 x 5000
matrix (the 2 MB shape of lemma_suite's trainer), and normal draws (the bulk
of mc_risk), each about a third of it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# a typical sample on a 2-vCPU Intel Xeon (105 MiB L3), OpenBLAS with 1 thread
REFERENCE_S = 0.028
# 0.3 s of the pass between samples: samples take about a tenth of the time
EVERY_S = 0.3
# a run with fewer samples inside it is scaled by its whole pass's samples
MIN_OWN_SAMPLES = 5


class Probe:
    """The reference kernel with its own fixed inputs, and its samples."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20211230)
        self._z = rng.standard_normal((50, 5000)) / 70.0
        self._draws = np.empty(400_000)
        self._rng = rng
        self.kernel()  # the first call pays for page faults and BLAS start-up
        self.samples: list[tuple[int, int]] = []  # (start_ns, end_ns), perf_counter_ns
        self._on = False

    def kernel(self) -> None:
        acc = 0
        for i in range(100_000):
            acc += i & 7
        v = np.ones(self._z.shape[1])
        for _ in range(60):
            v = v - 1e-3 * (np.tanh(self._z @ v) @ self._z)
        self._rng.standard_normal(out=self._draws)
        acc += float(self._draws.sum()) + float(v[0])

    def _sample(self) -> None:
        t0 = time.perf_counter_ns()
        self.kernel()
        self.samples.append((t0, time.perf_counter_ns()))

    def _on_alarm(self, signum, frame) -> None:
        if not self._on:  # a signal still pending when sampling stopped
            return
        self._sample()
        # re-armed only now, so a slow sample is never interrupted by the next
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    @contextlib.contextmanager
    def sampling(self):
        """Sample after every ``EVERY_S`` s, from a SIGALRM handler, until the block ends.

        The handler runs in the main thread between bytecodes, so it never
        splits a numpy call; a long call only delays the next sample.  A
        block shorter than ``EVERY_S`` gets one sample right after it.
        """
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)
        try:
            yield
        finally:
            self._on = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if len(self.samples) == first:
            self._sample()


def overlap_s(start_ns: int, end_ns: int, samples) -> float:
    """Seconds of ``[start_ns, end_ns]`` that samples took."""
    return sum(max(0, min(end_ns, b) - max(start_ns, a)) for a, b in samples) * 1e-9


def scale_during(samples, start_ns: int = 0, end_ns: int | None = None) -> float:
    """``REFERENCE_S`` over the mean sample taken within ``[start_ns, end_ns]``.

    Multiplying a time by it gives the time at the reference host speed.  With
    no window, or fewer than ``MIN_OWN_SAMPLES`` inside it, every sample counts.
    """
    inside = [b - a for a, b in samples if start_ns <= a and (end_ns is None or b <= end_ns)]
    if len(inside) < MIN_OWN_SAMPLES:
        inside = [b - a for a, b in samples]
    return REFERENCE_S / (statistics.fmean(inside) * 1e-9)
