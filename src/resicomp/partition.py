"""Low-discrepancy traversal of the token grid and slice partitioning.

Positions are ordered by a 2-D additive-recurrence sequence with
multipliers derived from the plastic constant, quantized to the lattice
by flooring.  Any prefix of the traversal is spread out, which is what
makes both conditional prediction and concealment from partial slices
work.  Slice sizes follow a power schedule in each slice's context
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import largest_remainder

# Plastic constant: the real root of x^3 = x + 1.
_PLASTIC = 1.32471795724474602596
_ALPHA1 = 1.0 / _PLASTIC
_ALPHA2 = 1.0 / (_PLASTIC * _PLASTIC)
# Start offsets are reduced modulo a prime to keep n * alpha small
# enough that the fractional part retains full double precision.
_SEED_MOD = 1_000_003


def qlds_positions(h: int, w: int, seed: int) -> list:
    """Deterministic low-discrepancy permutation of all h*w positions."""
    if h < 1 or w < 1:
        raise ValueError("grid must be at least 1x1")
    n_cells = h * w
    visited = np.zeros((h, w), dtype=bool)
    positions = []
    start = seed % _SEED_MOD
    u = (0.5 + _ALPHA1 * start) % 1.0
    v = (0.5 + _ALPHA2 * start) % 1.0
    limit = 200 * n_cells + 10_000
    for _ in range(limit):
        if len(positions) == n_cells:
            break
        u = (u + _ALPHA1) % 1.0
        v = (v + _ALPHA2) % 1.0
        r = min(int(u * h), h - 1)
        c = min(int(v * w), w - 1)
        if not visited[r, c]:
            visited[r, c] = True
            positions.append((r, c))
    if len(positions) < n_cells:
        # Float-precision stall; finish deterministically in scan order.
        for r in range(h):
            for c in range(w):
                if not visited[r, c]:
                    positions.append((r, c))
    return positions


def slice_sizes(n: int, l: int, context_counts, beta: float) -> list:
    """Integer slice sizes proportional to (1 + C_l/L)^beta, summing to n.

    Largest-remainder integerization (`density.largest_remainder`) with
    ties broken toward lower slice index; every size is at least 1.
    """
    if l < 1:
        raise ValueError("need at least one slice")
    if len(context_counts) != l:
        raise ValueError("context_counts must have one entry per slice")
    if n < l:
        raise ValueError(f"cannot split {n} tokens into {l} nonempty slices")
    weights = np.array([(1.0 + c / l) ** beta for c in context_counts])
    quotas = n * weights / weights.sum()
    sizes = np.empty((1, l), dtype=np.int64)
    largest_remainder(quotas[None], n, sizes)
    return sizes[0].tolist()


@dataclass(frozen=True)
class SlicePlan:
    """Ordered partition of an h x w grid into L slices."""

    h: int
    w: int
    l: int
    seed: int
    beta: float
    positions: tuple
    boundaries: tuple

    def __post_init__(self):
        if len(self.positions) != self.h * self.w:
            raise ValueError("positions must cover the grid")
        if len(self.boundaries) != self.l + 1:
            raise ValueError("need L+1 boundaries")
        if self.boundaries[0] != 0 or self.boundaries[-1] != self.h * self.w:
            raise ValueError("boundaries must span 0..h*w")
        if any(a >= b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("boundaries must be strictly increasing")

    def slice_positions(self, index: int) -> tuple:
        """Positions of slice `index` (1-based)."""
        if not 1 <= index <= self.l:
            raise IndexError(f"slice index {index} out of 1..{self.l}")
        lo, hi = self.boundaries[index - 1], self.boundaries[index]
        return self.positions[lo:hi]

    @cached_property
    def position_array(self) -> np.ndarray:
        """Read-only (h * w, 2) intp array of `positions`: slice i's
        rows are those between boundaries i - 1 and i."""
        array = np.array(self.positions, dtype=np.intp).reshape(-1, 2)
        array.setflags(write=False)
        return array

    @cached_property
    def owner(self) -> np.ndarray:
        """(h, w) array of each position's 1-based slice index."""
        rows, cols = self.position_array.T
        owner = np.empty((self.h, self.w), dtype=np.intp)
        owner[rows, cols] = np.repeat(np.arange(1, self.l + 1),
                                      np.diff(self.boundaries))
        owner.setflags(write=False)
        return owner


def build_plan(h: int, w: int, l: int, mode, seed: int, beta=None) -> SlicePlan:
    """Combine the QLDS traversal with the mode's slice-size schedule."""
    if l > h * w:
        raise ValueError("more slices than tokens")
    if mode.l != l:
        raise ValueError("mode slice count mismatch")
    if beta is None:
        beta = mode.default_beta
    positions = qlds_positions(h, w, seed)
    sizes = slice_sizes(h * w, l, mode.context_counts(), beta)
    boundaries = [0]
    for s in sizes:
        boundaries.append(boundaries[-1] + s)
    return SlicePlan(
        h=h,
        w=w,
        l=l,
        seed=seed,
        beta=float(beta),
        positions=tuple(positions),
        boundaries=tuple(boundaries),
    )
