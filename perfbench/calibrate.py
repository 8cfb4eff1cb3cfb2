"""Machine-speed calibration for timings on a shared host.

On a shared virtual machine the same work can take 1.6x longer for tens of
seconds at a time while another tenant loads the physical core. Process CPU
time slows by the same factor, so it does not help. A fixed kernel of Python
bytecode and small numpy calls, timed right before each measured operation,
slows by nearly the same factor as the pipeline: on the 2-vCPU box where the
benchmark was written, six identical 20 s runs of the unimodal workload had
an interquartile spread of 24% in raw median run time and 2.7% after
calibration.

A calibrated time is ``raw time * REF_MS / kernel time``: the time the
operation would take on a machine where the kernel takes ``REF_MS``. The
kernel took 1.0-1.7 ms on that box, so calibrated times are close to raw
times when the machine runs at its fastest.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REF_MS = 1.0
_REPEATS = 3


def kernel_ms() -> float:
    """Median time, in ms, of three runs of the fixed calibration kernel."""
    a = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
    times = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        s = 0.0
        for i in range(3000):
            s += i * 0.5
        for _ in range(100):
            b = np.einsum("ij,jk->ik", a, a)
            s += float(np.maximum(b, 0.0).sum())
        times.append(1e3 * (perf_counter() - t0))
    return statistics.median(times)


def scale() -> float:
    """Factor that turns a raw time measured now into a calibrated time."""
    return REF_MS / kernel_ms()
