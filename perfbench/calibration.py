"""A fixed calibration kernel, timed next to every operation.

The benchmark runs on shared hosts whose speed drifts by half or more over
stretches of a minute: every kind of work, interpreted Python, FFTs and
memory streams alike, slows down and speeds up together.  One
``Calibrator()`` call times a fixed mix of those three kinds of work, with
no bqci code in it.  An operation's wall time divided by the mean of the
calibration times right before and right after it is then a figure of the
program, not of the host's current speed.

The arrays are allocated once, in ``__init__``, so a call allocates nothing
and takes no page faults.
"""

import time

import numpy as np
import scipy.fft

PY_LOOPS = 300_000          # interpreted Python: one multiply-add per loop
FFT_SHAPE = (64, 64, 64)    # 2 MiB of float64, half a core's L2
FFT_PAIRS = 6              # rfftn + irfftn pairs, one worker
STREAM_MIB = 64             # 16 times a core's L2, most of a shared L3
STREAM_SWEEPS = 4           # in-place passes over the stream


class Calibrator:
    """Call it to get the wall seconds of one pass of the kernel."""

    def __init__(self):
        self._cube = np.random.default_rng(0).standard_normal(FFT_SHAPE)
        self._stream = np.ones(STREAM_MIB * 2**20 // 8)

    def __call__(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PY_LOOPS):
            acc += i * i
        for _ in range(FFT_PAIRS):
            spec = scipy.fft.rfftn(self._cube, workers=1)
            scipy.fft.irfftn(spec, FFT_SHAPE, workers=1)
        for _ in range(STREAM_SWEEPS):
            np.multiply(self._stream, 1.0, out=self._stream)
        return time.perf_counter() - t0
