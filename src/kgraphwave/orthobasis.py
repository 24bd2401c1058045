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

import numpy as np


def constant_unit_vector(weights) -> np.ndarray:
    """The positive constant vector of weighted norm one."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or np.any(w <= 0):
        raise ValueError("weights must be positive and nonempty")
    return np.full(w.size, 1.0 / np.sqrt(w.sum()))


def complement_basis(weights) -> np.ndarray:
    """Orthonormal basis of the complement of the constant vector.

    Returns an (m-1, m) array whose rows are zero-mean and orthonormal under
    the weight inner product; m = len(weights).  The split runs on the
    weights scaled by an even power of two 2^s that brings the largest near
    1, and the rows are scaled back by the exact 2^(-s/2): the same bits as
    unscaled, without the underflow of w_left * total on tiny weights.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or np.any(w <= 0):
        raise ValueError("weights must be positive and nonempty")
    nodes: list[tuple[int, int, int]] = []  # (depth, lo, mid) with split [lo,mid)|[mid,hi)

    def descend(lo: int, hi: int, depth: int):
        size = hi - lo
        if size < 2:
            return
        mid = lo + (size + 1) // 2
        nodes.append((depth, lo, mid, hi))
        descend(lo, mid, depth + 1)
        descend(mid, hi, depth + 1)

    descend(0, w.size, 0)
    nodes.sort(key=lambda item: (-item[0], item[1]))
    scale = np.frexp(w.max())[1] // 2 * 2
    w = np.ldexp(w, -scale)

    rows = np.zeros((len(nodes), w.size))
    for row, (_, lo, mid, hi) in zip(rows, nodes):
        w_left = w[lo:mid].sum()
        w_right = w[mid:hi].sum()
        total = w_left + w_right
        row[lo:mid] = np.sqrt(w_right / (w_left * total))
        row[mid:hi] = -np.sqrt(w_left / (w_right * total))
    return np.ldexp(rows, -(scale // 2))

