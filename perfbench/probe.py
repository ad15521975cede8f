"""Fixed reference tasks that gauge how fast the machine runs right now.

Other tenants of a shared host slow every instruction this process runs,
in stretches from under a second to minutes and by up to 2x. An op's wall
time divided by the time a reference task took just before and just after
it is steady through those stretches. ``run.py`` multiplies that ratio by
the task's reference time to report it in milliseconds again.

A probe only matches the slowdown of work of its own kind, so there are
two. ``interpreter`` is a Python loop plus tiny SVDs, like RANSAC's sample
loop and the training graph's per-node overhead. ``array`` is strided slab
copies contracted with a channel matrix, which is the inner step of
``conv4d``; it tracks the slowdown of memory traffic, which the
interpreter probe does not. Neither touches the library, so a change to the library moves
the op time and leaves the probe as it is.
"""

from __future__ import annotations

import collections
import itertools
import statistics
import time

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((48, 9, 9))
_VOLUME = _rng.standard_normal((8, 14, 14, 14, 14))
_CHANNELS = _rng.standard_normal((8, 8))
_SLAB = np.empty((8, 12, 12, 12, 12))
_PRODUCT = np.empty((8, 12**4))


def interpreter() -> float:
    """Seconds for a pure-Python loop and 48 SVDs of 9x9 matrices."""
    t0 = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i & 7
    for matrix in _SMALL:
        np.linalg.svd(matrix)
    return time.perf_counter() - t0


def array() -> float:
    """Seconds for nine strided 12^4 slab copies, each contracted with an 8x8 channel matrix.

    Both land in buffers made once, so the allocator's state, which the
    library's own allocations change, does not reach the probe.
    """
    t0 = time.perf_counter()
    for a, b in itertools.product(range(3), repeat=2):
        np.copyto(_SLAB, _VOLUME[:, a:a + 12, b:b + 12, 1:13, 1:13])
        np.dot(_CHANNELS, _SLAB.reshape(8, -1), out=_PRODUCT)
    return time.perf_counter() - t0


WARM_UP_S = (0.5, 5.0)


def warm_up(run_probe, reference_s: float) -> float:
    """Run the probe until it reads steady; return the seconds that took.

    For the first second or two of a process, a BLAS call on two threads can
    take 20x its usual time while the idle second vCPU is woken up, and the
    array probe with it, while set-up code does not slow down. Measuring
    begins once the median of the last 10 probe times is under 3x the
    reference, after at least ``WARM_UP_S[0]`` and at most ``WARM_UP_S[1]`` seconds.
    """
    t0 = time.perf_counter()
    recent = collections.deque(maxlen=10)
    while True:
        recent.append(run_probe())
        elapsed = time.perf_counter() - t0
        steady = len(recent) == recent.maxlen and statistics.median(recent) < 3 * reference_s
        if elapsed >= WARM_UP_S[1] or (elapsed >= WARM_UP_S[0] and steady):
            return elapsed


PROBES = {"interpreter": interpreter, "array": array}

# Each probe's best of 2000 calls on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4 with OpenBLAS 0.3.31 on 2 threads). They only set the scale of the
# reported milliseconds; a change to them rescales every result.
REFERENCE_S = {"interpreter": 0.0027, "array": 0.0031}
