"""Deterministic orthonormal bases of the all-ones complement.

All three wavelet families need, for a list of coordinates with positive
weights w, an orthonormal basis (under <u,v> = sum u_i v_i w_i) of the
orthogonal complement of the constant vector.  We build it from a balanced
binary split of the coordinate list: each internal node of the split tree
contributes the unique (up to sign) zero-mean vector that is constant on its
two child blocks, positive on the left one.  Vectors are emitted deepest
split first, left to right, which on uniform dyadic weights is exactly the
classical Haar ordering.  A basis is held as its nodes (`HaarNodes`), O(m)
numbers for m coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _split(size: int):
    """The balanced split of ``size`` coordinates as index arrays: the runs
    lo, mid, hi of its nodes (read-only); the blocks of each length (node i's
    left block as i, its right one as n + i) with their coordinates as rows;
    and each nonzero entry of the rows, row after row, as its flat position
    and its block."""
    lo, hi, depths = np.array([0]), np.array([size]), [(np.zeros(0, int),) * 3]  # size 1 has no split
    while (keep := hi - lo > 1).any():  # the splits [lo, mid) | [mid, hi) of one depth, left to right
        lo, hi = lo[keep], hi[keep]
        mid = (lo + hi + 1) // 2
        depths.append((lo, mid, hi))
        lo, hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
    lo, mid, hi = (np.concatenate(parts[::-1]) for parts in zip(*depths))  # deepest first
    lo.flags.writeable = mid.flags.writeable = hi.flags.writeable = False
    starts, lengths = np.concatenate([lo, mid]), np.concatenate([mid - lo, hi - mid])
    blocks = [(at, starts[at, None] + np.arange(length)) for length in set(lengths.tolist())
              for at in [np.flatnonzero(lengths == length)]]
    node = np.repeat(np.arange(len(lo)), hi - lo)
    col = np.arange(len(node)) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
    return lo, mid, hi, blocks, node * size + col, node + len(lo) * (col >= mid[node])


def _block_sums(w: np.ndarray) -> np.ndarray:
    """The rows W_left and W_right of the nodes: the blocks of one length
    summed as the rows of one gather, with the bits of their slice sums."""
    lo, _, _, blocks, *_ = _split(w.size)
    sums = np.empty((2, len(lo)))
    for at, index in blocks:
        sums.ravel()[at] = w[index].sum(axis=1)
    return sums


@dataclass(frozen=True)
class HaarNodes:
    """The m - 1 rows of a `complement_basis` of m coordinates, one per node,
    deepest first: row i is ``left[i]`` on [lo[i], mid[i]), ``right[i]`` on
    [mid[i], hi[i]) and zero elsewhere."""

    lo: np.ndarray
    mid: np.ndarray
    hi: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def runs(self) -> list[tuple[int, int, np.ndarray]]:
        """Each row as the run [lo, hi) it is nonzero on and its values there."""
        values = np.repeat(np.stack([self.left, self.right], 1).ravel(),
                           np.stack([self.mid - self.lo, self.hi - self.mid], 1).ravel())
        ends = np.cumsum(self.hi - self.lo).tolist()
        return [(lo, hi, values[end - hi + lo:end]) for lo, hi, end in zip(self.lo.tolist(), self.hi.tolist(), ends)]

    def rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows start, ..., stop - 1 scattered into a dense array: the one
        dense form of the rows."""
        stop, size = min(len(self.lo), len(self.lo) if stop is None else stop), len(self.lo) + 1
        *_, cells, block_of = _split(size)
        at = slice(*np.searchsorted(cells, [start * size, stop * size]).tolist())  # the entries of those rows
        out = np.zeros((stop - start, size))
        out.ravel()[cells[at] - start * size] = np.concatenate([self.left, self.right])[block_of[at]]
        return out

    def residual(self, weights) -> float:
        """The largest |a W_L + b W_R| and |a^2 W_L + b^2 W_R - 1| over the
        nodes (a, b) under ``weights``: rows constant on the child blocks of
        nested or disjoint runs are zero-mean and orthonormal when both vanish."""
        (wl, wr), a, b = _block_sums(np.asarray(weights, dtype=float)), self.left, self.right
        return float(np.max(np.abs([a * wl + b * wr, a * (a * wl) + b * (b * wr) - 1.0]), initial=0.0))


def complement_basis(weights) -> HaarNodes:
    """Orthonormal basis of the complement of the constant vector: the m - 1
    zero-mean rows, m = len(weights), orthonormal under the weight inner
    product, as split nodes.  The split runs on the weights scaled by an even
    power of two 2^s that brings the largest near 1, and the values are
    scaled back by the exact 2^(-s/2): the same bits as unscaled, without the
    underflow of w_left * total on tiny weights."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or (w <= 0).any():
        raise ValueError("weights must be positive and nonempty")
    scale = math.frexp(w.max())[1] // 2 * 2
    sums = _block_sums(np.ldexp(w, -scale))  # the rows w_left and w_right
    values = np.sqrt(sums[::-1] / (sums * (sums[0] + sums[1])))  # positive on the left, negated on the right
    values[1] *= -1
    return HaarNodes(*_split(w.size)[:3], *np.ldexp(values, -(scale // 2)))
