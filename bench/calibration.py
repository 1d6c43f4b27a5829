"""The machine's current speed, measured with a fixed pure-Python kernel.

This machine's speed drifts by up to 2x over tens of seconds, because the
host is shared.  The drift slows the lab and this kernel alike, so a time
divided by the kernel's time measured next to it no longer carries most of
the drift.  `REF_CALIB_S` turns such a ratio back into seconds: reference
seconds, the time at the speed at which the kernel takes `REF_CALIB_S`.

The kernel has two halves.  Integer arithmetic alone slowed 1.6x where the
lab slowed 1.9-2x; allocating and freeing small objects, as the lab does
between numpy calls, slowed as much as the lab.  The objects are strings,
which the cyclic garbage collector does not track, so the kernel's time does
not depend on how many objects the lab keeps alive.
"""

from __future__ import annotations

import time

ARITH_LOOPS = 500_000
CHURN_LOOPS = 300_000
# calibrate() on the reference machine, rounded: 2 vCPUs of a shared host
# ("Intel(R) Xeon(R) Processor"), Python 3.11.7.  Fixed for good: changing it
# rescales every result.
REF_CALIB_S = 0.1


def calibrate() -> float:
    """Seconds one run of the fixed kernel takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(ARITH_LOOPS):
        acc += i * i % 7
    slots: dict = {}
    for i in range(CHURN_LOOPS):
        slots[i & 4095] = str(i)
    return time.perf_counter() - t0


def reference_seconds(seconds: float, calib_s: float) -> float:
    return REF_CALIB_S * seconds / calib_s
