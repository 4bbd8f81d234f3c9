"""Seeded random instance generation.

The distribution is this tool's own (documented here, reproducible): draw
h distinct y-values uniformly from [0, ymax] by rejection, then n distinct
x-values uniformly from [0, xmax] by rejection, then pair them up: point k
takes x_k, with y_k for k < h (so every chosen row is hit) and a uniformly
chosen row for the rest. All randomness comes from a SplitMix64 stream
seeded directly with the given seed, so results are identical across
platforms and Python versions.
"""

from __future__ import annotations

from .errors import InputError
from .geometry import Instance, check_grid_size, make_instance

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit SplitMix generator (fixed standard constants)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise InputError("bound must be positive")
        return self.next_u64() % bound


def _distinct_draws(rng: SplitMix64, count: int, upper: int) -> list[int]:
    seen: dict[int, None] = {}
    while len(seen) < count:
        seen.setdefault(rng.below(upper + 1))
    return list(seen)


def gen_instance(n: int, h: int, xmax: int, ymax: int, seed: int) -> Instance:
    """Random instance with exactly h distinct rows and n distinct columns;
    one whose n x h grid no solver accepts is refused before any draw."""
    if not 1 <= h <= n:
        raise InputError(f"need 1 <= h <= n, got h={h} n={n}")
    if xmax < n:
        raise InputError(f"xmax must be >= n for {n} distinct x values")
    if ymax < h:
        raise InputError(f"ymax must be >= h for {h} distinct y values")
    check_grid_size(h, n)
    rng = SplitMix64(seed)
    ys = _distinct_draws(rng, h, ymax)
    xs = _distinct_draws(rng, n, xmax)
    coords = []
    for k in range(n):
        y = ys[k] if k < h else ys[rng.below(h)]
        coords.append((xs[k], y))
    return make_instance(coords)
