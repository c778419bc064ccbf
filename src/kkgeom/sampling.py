"""Deterministic sample-point generation for the identity suites.

A splitmix-style 64-bit generator keeps reports reproducible across
platforms: same seed, same scenario, byte-identical numbers.
"""

from __future__ import annotations

import math

from .calculus import EPoint

__all__ = ["SplitMix64", "Box", "sample_points", "DEFAULT_SEED",
           "MAX_SAMPLES"]

_M64 = (1 << 64) - 1

# The seed of a scenario that names none.
DEFAULT_SEED = 0xA1B2

# The largest sample count a scenario or ``--samples`` may ask for: far
# above every shipped count (at most 64), and small enough that the point
# list fits in a few tens of MB.
MAX_SAMPLES = 100_000


class SplitMix64:
    """splitmix64: tiny, seedable, platform-independent."""

    def __init__(self, seed: int):
        self._state = seed & _M64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return (z ^ (z >> 31)) & _M64

    def uniform(self, lo: float, hi: float) -> float:
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u


class Box:
    """Sampling ranges: one (lo, hi) per base coordinate plus one for y0.

    Defaults keep y0 away from 0 so that fiber-degenerate user fields
    (1/y0, log(y0), ...) stay evaluable.
    """

    __slots__ = ("x_ranges", "y_range")

    def __init__(self, x_ranges, y_range):
        self.x_ranges = tuple((float(a), float(b)) for a, b in x_ranges)
        self.y_range = (float(y_range[0]), float(y_range[1]))
        for lo, hi in self.x_ranges + (self.y_range,):
            if not lo < hi:
                raise ValueError(f"empty sampling range [{lo}, {hi}]")
            if not math.isfinite(hi - lo):
                raise ValueError(f"unbounded sampling range [{lo}, {hi}]")

    @staticmethod
    def default(m: int) -> "Box":
        return Box(tuple((-1.0, 1.0) for _ in range(m)), (0.1, 2.0))


def sample_points(box: Box, n: int, seed: int) -> list:
    """n quasi-random points in the box, deterministic in (box, n, seed)."""
    rng = SplitMix64(seed)
    points = []
    for _ in range(n):
        xs = tuple(rng.uniform(lo, hi) for lo, hi in box.x_ranges)
        y = rng.uniform(*box.y_range)
        points.append(EPoint(xs, y))
    return points
