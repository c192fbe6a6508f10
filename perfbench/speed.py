"""The host's speed, sampled by a fixed reference kernel while jobs run.

A shared host runs the same code at speeds up to 2x apart, changing within a
fraction of a second and drifting over minutes, with process CPU time equal
to wall time.  Samples taken between jobs do not follow the speed during a
job of several seconds.  So a ``Sampler`` interrupts the benchmark every
``INTERVAL_S`` seconds (SIGALRM, handled between bytecodes in the main
thread) and times one run of a fixed piece of pure-Python work, independent
of the package.  Its ``clock`` leaves out the time spent sampling, and a job
time read on it is put at a fixed reference speed by multiplying it by
``REFERENCE_S`` over the mean kernel time of the samples taken meanwhile.  A
change to the package moves job times and leaves the kernel alone; a change
of host speed moves both.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

# Seconds the kernel takes at the reference speed.  Any fixed value would do:
# it only sets the scale on which times are reported.  This one is about the
# kernel's mean on a shared 2-vCPU Xeon host with Python 3.11, so scaled times
# there read close to clock times.
REFERENCE_S = 0.002
INTERVAL_S = 0.025  # between samples; one sample costs about a tenth of that


def _kernel(n: int = 6) -> int:
    """Breadth-first closure of the n-vertex ring under local complementation.

    Bit-row graphs, tuple hashing, dict look-ups and small objects: the same
    mix of interpreter work as the package's orbit engines and GF(2)
    routines, written independently of them.  372 members for n = 6.
    """
    rows = tuple(((1 << ((v + 1) % n)) | (1 << ((v - 1) % n))) for v in range(n))
    seen = {rows: 0}
    frontier = [rows]
    while frontier:
        nxt = []
        for node in frontier:
            depth = seen[node] + 1
            for v in range(n):
                m = node[v]
                new = list(node)
                mm = m
                while mm:
                    low = mm & -mm
                    new[low.bit_length() - 1] ^= m ^ low
                    mm ^= low
                key = tuple(new)
                if key not in seen:
                    seen[key] = depth
                    nxt.append(key)
        frontier = nxt
    return len(seen)


class Sampler:
    """Samples the kernel on a timer while it is entered (``with sampler:``).

    ``samples`` and ``kernel_s`` count the samples and their kernel time;
    ``clock()`` is ``perf_counter()`` without the time spent sampling.
    """

    def __init__(self):
        self.samples = 0
        self.kernel_s = 0.0
        self.sampling_s = 0.0
        self._previous = None

    def sample(self, *_signal) -> None:
        """Time one run of the kernel, with the collector off."""
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            k0 = perf_counter()
            _kernel()
            self.kernel_s += perf_counter() - k0
            self.samples += 1
        finally:
            if enabled:
                gc.enable()
            self.sampling_s += perf_counter() - t0

    def clock(self) -> float:
        return perf_counter() - self.sampling_s

    def reading(self) -> tuple[int, float]:
        return self.samples, self.kernel_s

    def scale_since(self, reading: tuple[int, float]) -> float:
        """Factor that puts a time measured since ``reading`` at the reference speed."""
        if self.samples == reading[0]:  # shorter than the interval: sample now
            self.sample()
        return REFERENCE_S * (self.samples - reading[0]) / (self.kernel_s - reading[1])

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
