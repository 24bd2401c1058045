"""Perron-Frobenius data for strongly connected finite k-graphs.

The vertex matrices of a strongly connected k-graph commute and share a
unique positive common eigenvector with unit l1 norm.  We recover it by
power iteration on the product of all vertex matrices (shifted by the
identity so periodic skeletons still converge) and read off the per-color
spectral radii as Rayleigh quotients, which are constant across vertices by
the common-eigenvector property.

No vertex matrix is built: A_c y is one ``bincount`` over the color-c edge
columns, each edge carrying y at its source to its range, so a step costs
O(|E|) time and builds no n x n array.  The sums run in edge order where a dense
product would sum in BLAS order; where the terms are not exact the last bit
of x and rho may differ from a dense iteration's.  `rational_pf_data` reads
the dense `vertex_matrices` for its exact solve, within
`RATIONAL_PF_CELL_LIMIT`.
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
    TooLarge,
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
    iterations: int = 0  # the power-iteration steps of `pf_data`; 0 for data given otherwise

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


PF_MAX_STEPS = 10 ** 6


def pf_data(graph: KGraph, tol: float = 1e-13) -> PFData:
    """Power-iterate A_1 ... A_k + I on the edge columns and return the
    common PF data.  It stops at the first relative step max |x' - x| / x'
    below tol, so a vertex of small weight converges as far as a large one.

    Raises DegenerateVertexCount on a graph with no vertex,
    NotStronglyConnected / HasSources when the preconditions fail,
    ConvergenceFailure after `PF_MAX_STEPS` steps and
    ResidualTooLarge when the limit is not a common eigenvector.
    """
    if not graph.vertices:
        raise DegenerateVertexCount("PF data needs at least one vertex; the graph has none")
    if not is_strongly_connected(graph):
        raise NotStronglyConnected("graph is not strongly connected")
    if has_sources(graph):
        raise HasSources("some vertex is missing an incoming edge of some color")

    n = len(graph.vertices)
    columns = [(graph.edge_source[on], graph.edge_range[on])
               for on in (graph.edge_color == c for c in range(1, graph.k + 1))]

    def apply(c: int, y: np.ndarray) -> np.ndarray:  # A_{c+1} y: each edge carries y from source to range
        sources, ranges = columns[c]
        return np.bincount(ranges, weights=y[sources], minlength=n)

    x = np.full(n, 1.0 / n)
    for step in range(1, PF_MAX_STEPS + 1):
        nxt = x
        for c in reversed(range(graph.k)):  # A_1 ... A_k x, the last color first
            nxt = apply(c, nxt)
        nxt = nxt + x  # the +I shift keeps the iteration convergent on periodic skeletons
        nxt /= nxt.sum()
        x, moved = nxt, np.max(np.abs(nxt - x) / nxt)
        if moved < tol:
            break
    else:
        raise ConvergenceFailure(f"power iteration did not converge in {PF_MAX_STEPS} steps")

    rho = np.empty(graph.k)
    for c in range(graph.k):
        ratios = apply(c, x) / x
        spread = ratios.max() - ratios.min()
        # bounds the eigen residual too: |A x - rho x| = |ratios - rho| x <= spread, as x <= 1
        if not spread < 1e-10:
            raise ResidualTooLarge(f"color {c + 1}: Rayleigh spread {spread:.2e}")
        rho[c] = ratios.mean()
    return PFData(rho=rho, x_lambda=x, iterations=step)


# The exact solve eliminates over k * n^2 Fraction cells, the k vertex
# matrices less their radii.  2^18 admits the 300-vertex benchmark circulant
# (180,000 cells: `measure --exact` runs in 4.7 s) and a 19 x 19 torus
# (260,642 cells: 6.9 s, 63 MB peak, on a 2-core host), and refuses a
# 100 x 100 torus (2 * 10^8 cells).
RATIONAL_PF_CELL_LIMIT = 2 ** 18


def rational_pf_data(graph: KGraph, pf: PFData | None = None) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """Exact PF data when every spectral radius is an integer.

    Rounds the numeric radii, solves the common eigenvector exactly over the
    rationals, and verifies positivity.  Raises TooLarge above
    `RATIONAL_PF_CELL_LIMIT` cells, before it builds a matrix, and
    ValueError when the radii are not within 1e-9 of integers or no
    rational eigenvector exists.
    """
    cells = graph.k * len(graph.vertices) ** 2
    if cells > RATIONAL_PF_CELL_LIMIT:
        raise TooLarge(f"the exact PF data of {len(graph.vertices)} vertices and {graph.k} colors "
                       f"are solved over {cells} cells, above the limit of {RATIONAL_PF_CELL_LIMIT}")
    if pf is None:
        pf = pf_data(graph)
    rho_int = []
    for r in pf.rho:
        near = round(float(r))
        if abs(r - near) > 1e-9:
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
