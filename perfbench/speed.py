"""The machine's current speed, from a fixed calibration kernel.

The benchmark's host is shared: other tenants' load slows every instruction
of a simulate process, by up to 1.8 times for minutes at a time, and the
process's own CPU time grows with it. run.py therefore times `kernel()`
before the first simulate process and after each one, and multiplies a
process's timings by REFERENCE_S / (the mean of the kernel's two times
around it): seconds at the speed the machine had when REFERENCE_S was
measured.

The kernel is a fixed mix of the program's three kinds of work: interpreted
Python (per-call overhead on small grids), float-to-text formatting (the
snapshot writer) and numpy/scipy array work (DCTs and stencils at n=256).
It uses numpy and scipy only, never `hotspotsim`, so a change to the program
cannot change it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

# median of kernel() on a 2-core Intel Xeon virtual machine, with
# Python 3.11.7, numpy 2.4.6 and scipy 1.17.1
REFERENCE_S = 0.09

_RNG = np.random.default_rng(0)
_ARRAY = _RNG.random((256, 256))
_FLOATS = _RNG.random(40_000).tolist()


def kernel() -> float:
    """Seconds one pass of the calibration kernel takes."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    " ".join(f"{v:.17g}" for v in _FLOATS)
    for _ in range(15):
        y = scipy.fft.idctn(scipy.fft.dctn(_ARRAY, type=2, norm="ortho"),
                            type=2, norm="ortho")
        np.abs(y[1:] - y[:-1]).sum() + np.exp(-y).sum()
    return time.perf_counter() - start
