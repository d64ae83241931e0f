"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark times it between ``run_experiment`` calls, in the same
process, and reports each call's wall time as a multiple of the kernel's
time around it (``wall_rel``).  On a shared host the speed of a core drifts
by tens of percent over minutes; the drift slows the kernel and the call
alike, so the ratio keeps only what the program itself changed.

The kernel uses numpy and scipy alone, never nessolve, so a change to
nessolve cannot move it.  It mixes the three kinds of work the workloads
do, in roughly equal time: many small DST-I calls from Python (the SPDE
reference), dense BLAS and LAPACK (Gram blocks and least squares), a
stream over an array larger than a core's share of cache (the chunked
kernel matrix), and short Philox streams, one per row of a freshly
allocated array (the noise paths).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.fft import dst
from scipy.linalg import lu_factor, lu_solve

_rng = np.random.default_rng(20250128)
_V = _rng.standard_normal(4095)
_A = _rng.standard_normal((256, 256))
_B = _rng.standard_normal((256, 256))
_BIG = _rng.standard_normal(2 ** 22)            # 32 MiB
_OUT = np.empty_like(_BIG)


def reference_kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    x = _V
    for _ in range(80):
        y = dst(x, type=1) * 1e-3
        x = y - y ** 3 * 1e-6
    for _ in range(12):
        lu = lu_factor(_A @ _B)
        lu_solve(lu, _V[:256])
    for _ in range(3):
        np.multiply(_BIG, 1.0000001, out=_OUT)
        _OUT.sum()
    rows = np.empty((600, 2048))
    for k in range(600):
        rows[k] = np.random.Generator(
            np.random.Philox(key=k)).standard_normal(2048)
    return time.perf_counter() - t0
