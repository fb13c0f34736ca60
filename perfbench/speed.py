"""Op times scaled to a fixed machine speed.

On a 2-vCPU KVM guest of a shared host, the guest's speed swings by a
factor of about 1.5 within seconds, in phases that outlast a run: a pure
Python loop timed in 1-s bins moves between about 240 and 380 iterations,
and the same op's wall time spreads by 40 % (first to third quartile) over
two minutes.  No run length averages that out.

So every timed op is bracketed by a reference kernel: fixed work of the
kind the program does (an interpreter loop and small-array numpy calls),
written here and independent of ``clfetc``.  Its wall time is scaled by
``NOMINAL_S`` over the mean of the two kernel times around it, which gives
the seconds the op would take on a machine where the kernel takes
``NOMINAL_S``.  In a two-minute test this cut the spread of one op's time
from 40 % to 7-10 %, and that of 20-op sums from 25 % to 4 %.  A change to
the program moves the scaled times as much as the wall times, since the
kernel does not run any of its code.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.012  # kernel time that defines one reference second

_A = np.arange(4.0)
_B = np.ones(4)


def _kernel():
    x, seen = 0, {}
    for i in range(30000):
        x += i * i
        seen[i & 63] = x
    a = _A
    for _ in range(1500):
        c = a * 0.5 + _B
        a = np.sqrt(np.abs(c)) if float(np.dot(c, c)) > 0.0 else c
    return a


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def to_reference(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """``wall_s`` in reference seconds, from the kernel times around it."""
    return wall_s * NOMINAL_S / (0.5 * (kernel_before + kernel_after))
