"""A speed reference that lets timings from a drifting machine be compared."""

import statistics
import time

import numpy as np


class SpeedGauge:
    """How fast the machine runs right now, against a fixed loop.

    On shared cores the speed of one core drifts by up to 40% within a
    minute, so raw seconds from two runs of the same code differ by more
    than any useful bound.  :meth:`factor` times a fixed chunk of Python
    and numpy work (at most every ``INTERVAL_S``) and returns
    ``REFERENCE_S`` over its median duration: a time multiplied by it is
    the time on a machine where the chunk takes ``REFERENCE_S``.  The
    chunk belongs to the benchmark, so no change to asymconv moves it.
    Callers read the factor before and after an operation and use the
    mean, so a long operation is bracketed by two readings.
    """

    REFERENCE_S = 1e-3
    INTERVAL_S = 0.02
    _Z = np.exp(1j * np.linspace(0.0, 6.0, 1024))

    def __init__(self) -> None:
        self._at = -float("inf")
        self._factor = 1.0

    @classmethod
    def _chunk(cls) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i % 7
        np.abs(np.exp(cls._Z)).sum()
        return time.perf_counter() - start

    def factor(self) -> float:
        if time.perf_counter() - self._at >= self.INTERVAL_S:
            self._factor = self.REFERENCE_S / statistics.median(
                self._chunk() for _ in range(5))
            self._at = time.perf_counter()
        return self._factor
