"""A fixed calibration task that tracks the speed of a shared host.

On a shared host the same code runs up to 1.5 times slower for minutes at a
time, and neither the fastest nor the median run of one window escapes such a
phase. The benchmark therefore runs `calibrate` after every timed step of the
window and multiplies the steps' median seconds by
REFERENCE_S / (median calibration): the seconds a step would take on a host
where the calibration takes REFERENCE_S. The task uses neither h2ent nor the
benchmark, so a change to h2ent moves the scaled seconds as it moves the raw
ones.

Its mix follows h2ent's: interpreted loops over small objects, numpy and
scipy calls on 10 x 10 matrices and 256-element arrays, and broadcasts over
arrays of a few MB like the coarse CHSH grid. The parts slow down by
different factors in a slow phase, and so do the workloads, so the shares were
chosen by measurement: over thirty 6-second windows that alternated `bell`
and `stretch` runs with each part, the window medians of the runs spread by
15 % (`bell`) and 23 % (`stretch`), as interquartile range over median. Their
ratios to this mix spread by 5 % and 9 %; without the broadcasts, by 13 % and
10 %.
"""

import math
import time

import numpy as np
from scipy.special import gammainc

# The median calibration on a 2-core x86-64 host (Python 3.11, numpy 2.4,
# one BLAS thread), in seconds. It only fixes the unit of scaled times.
REFERENCE_S = 0.075

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((10, 10))
_ARGS = np.linspace(0.0, 30.0, 256)
_VECTORS = _RNG.standard_normal((450, 3))


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _task():
    """About a tenth interpreted loops, four tenths small numpy and scipy
    calls and half broadcasts over a 450 x 450 x 3 array, by time."""
    total = 0.0
    for _ in range(60):
        table = {}
        for i in range(300):
            p = _Pair(i * 0.5, math.exp(-i * 1e-3))
            table[i] = p.a * p.b
        total += sum(table.values())
    for _ in range(35):
        for _ in range(40):
            m = _MATRIX @ _MATRIX.T
            total += float(np.linalg.eigh(m)[0][0] + np.exp(-_ARGS).sum())
        total += float(gammainc(1.5, _ARGS[1:20]).sum())
    for _ in range(2):
        diff = _VECTORS[:, None, :] - _VECTORS[None, :, :]
        summ = _VECTORS[:, None, :] + _VECTORS[None, :, :]
        total += float((np.linalg.norm(diff, axis=-1) + np.linalg.norm(summ, axis=-1)).max())
    return total


def calibrate():
    """Seconds the calibration task takes now (call once first to warm up)."""
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0
