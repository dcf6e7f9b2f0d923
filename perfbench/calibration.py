"""Host-speed calibration: report host times in reference seconds.

The machine this benchmark shares runs other tenants' work, and its speed
drifts by tens of percent over minutes and stutters within seconds.  A
fixed pass of work that lives here — not in ``src/``, so no change to the
program moves it — is timed before and after every measured interval.  A
host time is then reported in *reference seconds*: the measured wall times
``REFERENCE_S`` over the calibration's wall around it, i.e. what the
interval would have taken at the speed the calibration runs on a quiet
reference machine.  A uniformly slower machine stretches both and cancels;
a faster program shortens only the interval.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

__all__ = ["REFERENCE_S", "calibrate"]

#: Wall seconds of :func:`calibrate` on a quiet 2-CPU Linux container
#: (Python 3.11.7, numpy 2.4.6, BLAS on one thread).
REFERENCE_S = 0.3

_LOOP_ROUNDS = 25_000
_ARRAY_ROUNDS = 150


def calibrate() -> float:
    """Wall seconds of one fixed pass of engine-like and executor-like work.

    Interpreter-bound and BLAS-bound work slow down by different amounts
    when the machine is shared, and the workloads mix the two, so the pass
    has one half of each.  The loop half follows the serving engine's host
    profile: heap pushes and pops, small Python lists and float
    accumulation, numpy ``cumsum`` and ``searchsorted`` on short arrays, and
    an occasional small matrix product.  The array half follows the
    functional executor: a projection-sized matrix product, GELU, layer
    norm and small softmax blocks.
    """
    rng = np.random.default_rng(0)
    small = rng.random(64)
    matrix = rng.random((64, 64))
    x = rng.random((256, 128))
    weight = rng.random((128, 128)) * 0.01
    q = rng.random((64, 32))
    k = rng.random((64, 32))
    heap: "list[tuple[float, int]]" = []
    total = 0.0
    start = time.perf_counter()
    for index in range(_LOOP_ROUNDS):
        heapq.heappush(heap, (float(small[index % 64]), index))
        if len(heap) > 32:
            heapq.heappop(heap)
        total += sum([value * 2.0 for value in small[:16].tolist()])
        chain = np.cumsum(small)
        total += float(chain[-1]) + int(np.searchsorted(chain, total % 32.0))
        if index % 50 == 0:
            total += float((matrix @ matrix)[0, 0])
    for _ in range(_ARRAY_ROUNDS):
        y = x @ weight
        y = 0.5 * y * (1.0 + np.tanh(0.7978845608 * (y + 0.044715 * y**3)))
        y = (y - y.mean(axis=-1, keepdims=True)) / np.sqrt(y.var(axis=-1, keepdims=True) + 1e-5)
        for _ in range(8):
            scores = q @ k.T
            scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
            total += float(scores[0, 0])
        total += float(y[0, 0])
    return time.perf_counter() - start
