"""Deterministic orthonormal bases of the all-ones complement.

All three wavelet families need, for a list of coordinates with positive
weights w, an orthonormal basis (under <u,v> = sum u_i v_i w_i) of the
orthogonal complement of the constant vector.  We build it from a balanced
binary split of the coordinate list: each internal node of the split tree
contributes the unique (up to sign) zero-mean vector that is constant on its
two child blocks, positive on the left one.  Vectors are emitted deepest
split first, left to right, which on uniform dyadic weights is exactly the
classical Haar ordering.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _split(size: int):
    """The balanced split of ``size`` coordinates as index arrays: the node
    count n; the blocks of each length (node i's left block as i, its right
    one as n + i) with their coordinates as rows; each nonzero entry of the
    rows as its flat position and its block; and the run (lo, hi) of the
    coordinates of each node."""
    lo, hi, depths = np.array([0]), np.array([size]), [(np.zeros(0, int),) * 3]  # size 1 has no split
    while (keep := hi - lo > 1).any():  # the splits [lo, mid) | [mid, hi) of one depth, left to right
        lo, hi = lo[keep], hi[keep]
        mid = (lo + hi + 1) // 2
        depths.append((lo, mid, hi))
        lo, hi = np.stack([lo, mid], 1).ravel(), np.stack([mid, hi], 1).ravel()
    lo, mid, hi = (np.concatenate(parts[::-1]) for parts in zip(*depths))  # deepest first
    starts, lengths = np.concatenate([lo, mid]), np.concatenate([mid - lo, hi - mid])
    blocks = [(at, starts[at, None] + np.arange(length)) for length in set(lengths.tolist())
              for at in [np.flatnonzero(lengths == length)]]
    node = np.repeat(np.arange(len(lo)), hi - lo)
    col = np.arange(len(node)) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)
    runs = list(zip(lo.tolist(), hi.tolist()))
    return len(lo), blocks, node * size + col, node + len(lo) * (col >= mid[node]), runs


def complement_basis(weights) -> np.ndarray:
    """Orthonormal basis of the complement of the constant vector.

    Returns an (m-1, m) array whose rows are zero-mean and orthonormal under
    the weight inner product; m = len(weights).  The split runs on the
    weights scaled by an even power of two 2^s that brings the largest near
    1, and the rows are scaled back by the exact 2^(-s/2): the same bits as
    unscaled, without the underflow of w_left * total on tiny weights.
    Summed as the rows of one gather, the blocks of one length have the
    bits of their slice sums."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or (w <= 0).any():
        raise ValueError("weights must be positive and nonempty")
    n, blocks, cells, block_of, _ = _split(w.size)
    scale = math.frexp(w.max())[1] // 2 * 2
    w = np.ldexp(w, -scale)
    sums = np.empty((2, n))  # the rows w_left and w_right
    for at, index in blocks:
        sums.ravel()[at] = w[index].sum(axis=1)
    values = np.sqrt(sums[::-1] / (sums * (sums[0] + sums[1])))  # positive on the left, negated on the right
    values[1] *= -1
    return np.bincount(cells, np.ldexp(values.ravel(), -(scale // 2))[block_of], n * w.size).reshape(n, w.size)


def _complement_runs(size: int) -> list[tuple[int, int]]:
    """The run [lo, hi) off which each row of a `complement_basis` of ``size`` is zero."""
    return _split(size)[4]
