"""Perron-Frobenius data for strongly connected finite k-graphs.

The vertex matrices of a strongly connected k-graph commute and share a
unique positive common eigenvector with unit l1 norm.  We recover it by
power iteration on the product of all vertex matrices (shifted by the
identity so periodic skeletons still converge) and read off the per-color
spectral radii as Rayleigh quotients, which are constant across vertices by
the common-eigenvector property.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateVertexCount,
    HasSources,
    NotStronglyConnected,
    ResidualTooLarge,
)
from .kgraph import KGraph, is_zero_one, vertex_matrices


@dataclass(frozen=True)
class PFData:
    """Spectral radii of the vertex matrices and the unimodular eigenvector.

    ``rho`` has one entry per color; ``x_lambda`` is indexed by graph vertex
    order, strictly positive, and sums to 1.
    """

    rho: np.ndarray
    x_lambda: np.ndarray

    def rho_pow(self, degree) -> float:
        """prod_i rho_i**degree_i, the measure scaling for one degree step."""
        return float(np.prod(np.asarray(self.rho) ** np.asarray(degree, dtype=float)))


def is_strongly_connected(graph: KGraph) -> bool:
    """True iff every ordered vertex pair is joined by a path (any colors):
    the first vertex reaches every vertex and every vertex reaches it."""
    if not graph.vertices:
        return True
    return all(_reaches_all(tails, heads, len(graph.vertices)) for tails, heads in (
        (graph.edge_source, graph.edge_range), (graph.edge_range, graph.edge_source)))


def _reaches_all(tails: np.ndarray, heads: np.ndarray, n: int) -> bool:
    """Whether vertex 0 reaches all n vertices along the arcs tails[i] -> heads[i]."""
    order = np.argsort(tails, kind="stable")
    starts = np.searchsorted(tails, np.arange(n + 1), sorter=order).tolist()
    heads = heads[order].tolist()
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in heads[starts[v]:starts[v + 1]]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def has_sources(graph: KGraph) -> bool:
    """True iff some vertex receives no edge of some color."""
    cells = set(zip(graph.edge_range.tolist(), graph.edge_color.tolist()))
    return len(cells) < len(graph.vertices) * graph.k


def pf_data(graph: KGraph, tol: float = 1e-13, max_iter: int = 10 ** 6,
            resid_tol: float = 1e-10) -> PFData:
    """Power-iterate the product matrix and return the common PF data.

    Raises DegenerateVertexCount on a graph with no vertex,
    NotStronglyConnected / HasSources when the preconditions fail,
    ConvergenceFailure when the iteration cap is reached and
    ResidualTooLarge when the limit is not a common eigenvector.
    """
    if not graph.vertices:
        raise DegenerateVertexCount("PF data needs at least one vertex; the graph has none")
    if not is_strongly_connected(graph):
        raise NotStronglyConnected("graph is not strongly connected")
    if has_sources(graph):
        raise HasSources("some vertex is missing an incoming edge of some color")

    mats = [m.astype(float) for m in vertex_matrices(graph)]
    product = mats[0].copy()
    for m in mats[1:]:
        product = product @ m
    # the +I shift keeps the iteration convergent on periodic skeletons
    shifted = product + np.eye(len(graph.vertices))

    x = np.full(len(graph.vertices), 1.0 / len(graph.vertices))
    for _ in range(max_iter):
        nxt = shifted @ x
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - x)) < tol:
            x = nxt
            break
        x = nxt
    else:
        raise ConvergenceFailure(f"power iteration did not converge in {max_iter} steps")

    rho = np.empty(graph.k)
    for i, m in enumerate(mats):
        ratios = (m @ x) / x
        spread = ratios.max() - ratios.min()
        # bounds the eigen residual too: |m x - rho x| = |ratios - rho| x <= spread, as x <= 1
        if not spread < resid_tol:
            raise ResidualTooLarge(f"color {i + 1}: Rayleigh spread {spread:.2e}")
        rho[i] = ratios.mean()
    return PFData(rho=rho, x_lambda=x)


def rational_pf_data(graph: KGraph, pf: PFData | None = None,
                     tol: float = 1e-9) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """Exact PF data when every spectral radius is an integer.

    Rounds the numeric radii, solves the common eigenvector exactly over the
    rationals, and verifies positivity.  Raises ValueError when the radii are
    not within ``tol`` of integers or no rational eigenvector exists.
    """
    if pf is None:
        pf = pf_data(graph)
    rho_int = []
    for r in pf.rho:
        near = round(float(r))
        if abs(r - near) > tol:
            raise ValueError(f"spectral radius {r} is not an integer; no exact mode")
        rho_int.append(int(near))

    mats = vertex_matrices(graph)
    n = len(graph.vertices)
    rows: list[list[Fraction]] = []
    for m, r in zip(mats, rho_int):
        shifted = m - r * np.eye(n, dtype=np.int64)
        rows.extend([Fraction(int(v)) for v in row] for row in shifted)
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(1)]

    x = _solve_exact(rows, rhs)
    if x is None or any(v <= 0 for v in x):
        raise ValueError("no positive rational common eigenvector")
    return tuple(rho_int), tuple(x)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Gaussian elimination over the rationals for an overdetermined system."""
    m, n = len(rows), len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if len(pivot_cols) != n:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][n]
    return x


def hausdorff_dimension(graph: KGraph, pf: PFData | None = None) -> float:
    """Dimension of the N-adic fractal image: log of the product spectral
    radius over k * log of the vertex count.  ``pf`` reuses PF data already
    computed for this graph."""
    n = len(graph.vertices)
    if n <= 1:
        raise DegenerateVertexCount("dimension formula needs more than one vertex")
    if pf is None:
        pf = pf_data(graph)
    if not is_zero_one(graph):
        warnings.warn(
            "some vertex matrix has an entry > 1; the N-adic fractal embedding "
            "assumes 0/1 matrices, the dimension value is formal", stacklevel=2)
    return float(np.sum(np.log(pf.rho)) / (graph.k * np.log(n)))
