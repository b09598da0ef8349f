"""The speed of the machine, measured with a fixed reference kernel.

The benchmark runs on a few cores of a shared host, whose speed for one
process changes by up to half within a minute: the same pass over the
same documents took 4.2 s of CPU time at one moment and 6.7 s a minute
later. Times taken minutes apart then differ more than any code change
the benchmark should resolve. To take that out, every timed call is
paired with one run of a reference kernel right before it, and the
call's CPU time is scaled by ``REF_S`` over the kernel's CPU time.

The kernel run right before a call tracks the call's speed best. Over
six 40 s runs of ``perm-sweep``, scaling by it alone gave the run
figures spreads of 0.029 to 0.046; the median kernel time of the nine
calls around each call gave 0.038 to 0.051, and of 81 calls up to
0.212. So the speed changes from one call to the next (likely as the
process moves between cores with different loads). One noisy kernel
sample moves only one call, and a document's time is the median of its
calls.

A scaled time reads what the call would take on a machine on which one
kernel run takes ``REF_S`` seconds. The kernel is pure Python exact
arithmetic, like k0mf itself, and uses nothing of k0mf, so no change to
the program can change the scale.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 0.002  # CPU time of one kernel run at the reference speed

# a fixed, well-conditioned 10 x 10 integer matrix
MATRIX = [[(i * 7 + j * 13) % 11 - 5 + 9 * (i == j) for j in range(10)] for i in range(10)]


def kernel() -> Fraction:
    """Determinant of ``MATRIX`` by rational Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in MATRIX]
    det = Fraction(1)
    for c in range(len(m)):
        p = next(r for r in range(c, len(m)) if m[r][c])
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def kernel_s() -> float:
    """CPU time of one kernel run."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """``times[i]`` at the reference speed, where ``kernels[i]`` was
    measured right before it."""
    return [t * REF_S / k for t, k in zip(times, kernels)]
