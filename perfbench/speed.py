"""Machine-speed reference for the end-to-end times.

The benchmark shares its host with other tenants, whose load changes the
speed of this process by 20-30 % over a few minutes; every call slows down
together.  A fixed kernel, written here and never changed with the
program, runs between the timed calls: it allocates, walks and indexes
20,000 small objects, like the program's Jet arithmetic does.  (Smaller
rounds that stay in the L2 cache swing more than the program does.)  The end-to-end
times are reported in reference seconds, ``measured * NOMINAL_S / median
kernel time`` over the run: seconds on a host where the kernel takes
``NOMINAL_S``.  The measured seconds are kept in the run's side file.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.015   # about the kernel's time on a quiet 2.1 GHz Xeon vCPU
EVERY_S = 0.25      # run the kernel at most this often between calls

_N = 20000
# sum of 0.5 * i^2 over i < _N, plus one per third index; exact in floats
_EXPECTED = 0.5 * (_N - 1) * _N * (2 * _N - 1) / 6 + len(range(0, _N, 3))


class _Node:
    __slots__ = ("v", "dx")

    def __init__(self, v, dx):
        self.v = v
        self.dx = dx


def kernel() -> float:
    """Seconds taken by one fixed run of the kernel.  The collector is off,
    so the program's heap does not change it, and the result is checked,
    so no step can be skipped."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        nodes = [_Node(float(i), (i * 0.5, 1.0)) for i in range(_N)]
        total = 0.0
        for node in reversed(nodes):
            total += node.v * node.dx[0]
        index = {i: node for i, node in enumerate(nodes)}
        for i in range(0, _N, 3):
            total += index[i].dx[1]
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    if total != _EXPECTED:
        raise RuntimeError("speed kernel computed a wrong value")
    return elapsed
