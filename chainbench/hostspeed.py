"""Host speed: a fixed calibration block timed between the benchmark's ops.

The benchmark runs on a shared machine whose speed moves by 20% and more
from run to run as co-tenants come and go.  The block does a fixed mix of
the kinds of work the ops do (interpreted Python, an in-cache FFT round
trip, passes over an array larger than a core's cache), so its time moves
with the host's speed.  ``run.py`` scales each op time by
``NOMINAL_S / median time of the blocks around the op``, and each set-up
time likewise: the timings are then those of a host on which one block takes
``NOMINAL_S``, and a change to the program moves them while a change of host
speed mostly does not.  The block calls nothing in ``pulsechain`` and holds
its own references to the FFT functions, so neither a change to the program
nor the tracer changes its time.
"""

import time

import numpy as np
from numpy.fft import fft, ifft

# the median block time between ops on the host the benchmark was defined
# on (2-core shared Intel Xeon, numpy 2.4, Python 3.11) was 1.3-2.4 ms,
# depending on the host's state and on what the ops leave in the caches
NOMINAL_S = 2.0e-3
SHARE = 0.15      # block time per op time, kept up to through a run
MIN_BLOCKS = 20   # blocks after set-up, and before a loop's first op
LOCAL = 5         # blocks on each side of an op that measure its host speed

_LOOP = 6000
_small = np.random.default_rng(0).standard_normal(1 << 13)
_big = np.random.default_rng(1).standard_normal(1 << 19)     # 4 MB


def block():
    """Run the calibration block once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    for _ in range(2):
        ifft(fft(_small))
    np.multiply(_big, 1.0, out=_big)
    _big.sum()
    return time.perf_counter() - t0
