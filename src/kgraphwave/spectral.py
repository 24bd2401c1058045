"""The k-graph Laplacian, graph Fourier transform, and spectral wavelets.

Each color contributes a signed vertex-by-edge incidence matrix (loop columns
are zero) and the Laplacian is the sum of the per-color Gram matrices
M_s M_s^T: symmetric, positive semidefinite, integer-valued, and independent
of edge orientation.  Vertex signals transform against the orthonormal
eigenbasis; a band-pass kernel g scaled by t > 0 turns the eigenvalues into
filter gains and its translates psi_{g,t,n} into a continuous frame whose
logarithmic energy C_g = int g(x)^2/x dx normalizes reconstruction.

With g(0) = 0 the frame annihilates the kernel of the Laplacian, so
reconstruction recovers exactly the component orthogonal to it; constants on
a connected graph reconstruct to zero, not to themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    AsymmetricInput,
    DegenerateVertexCount,
    DimensionMismatch,
    DivergentIntegral,
    GridTooCoarse,
    NegativeArgument,
    NonFiniteResult,
    ResidualTooLarge,
    TooLarge,
)
from .kgraph import KGraph


def incidence_entries(graph: KGraph, color: int):
    """The nonzeros of M_s for color s, in row-major order, from the edge
    columns: +1 at (r(e), e) and -1 at (s(e), e) for each non-loop edge e of
    the color, its columns ordered alphabetically by edge id.  Returns the
    edges of the color (its columns), and the rows, columns and values of
    the nonzeros."""
    edges = np.flatnonzero(graph.edge_color == color)
    moving = np.flatnonzero(graph.edge_source[edges] != graph.edge_range[edges])
    rows = np.concatenate([graph.edge_range[edges[moving]], graph.edge_source[edges[moving]]])
    cols = np.concatenate([moving, moving])
    values = np.repeat(np.array([1, -1], dtype=np.int64), len(moving))
    order = np.argsort(rows * len(edges) + cols)
    return edges, rows[order], cols[order], values[order]


# The `laplacian` listing writes n x |E| incidence entries and n x n Laplacian
# entries, about three bytes of text each ("0, "): 2^26 entries is about
# 200 MB of text, and admits a 68 x 68 torus (3 x 68^4 = 64.1M entries).
LAPLACIAN_ENTRY_LIMIT = 2 ** 26


def check_laplacian_listing(graph: KGraph) -> int:
    """The number of entries n * |E| + n^2 of the incidence matrices and the
    Laplacian of a graph with n vertices and |E| edges; above
    `LAPLACIAN_ENTRY_LIMIT` it raises TooLarge."""
    n = len(graph.vertices)
    entries = n * (len(graph.edge_ids) + n)
    if entries > LAPLACIAN_ENTRY_LIMIT:
        raise TooLarge(f"the incidence matrices and Laplacian of {n} vertices and {len(graph.edge_ids)} "
                       f"edges hold {entries} entries, above the limit of {LAPLACIAN_ENTRY_LIMIT}")
    return entries


# Eigendata holds n^2 floats several times over: the Laplacian, the
# eigenvectors and the residual checks' products; listings are written an
# eigenvector at a time.  2^24 entries admits a 64 x 64 torus (4096^2) in a
# 1.5 GB address space, where on one core of a 2-core host `--eig` takes 32 s
# and `--reconstruct` 18 s, each peaking at 683 MB; a 65 x 65 one is refused.
EIGEN_ENTRY_LIMIT = 2 ** 24


def check_eigendata(graph: KGraph) -> int:
    """The n^2 entries of the Laplacian and of the eigenvectors of a graph
    with n vertices; above `EIGEN_ENTRY_LIMIT` it raises TooLarge."""
    n = len(graph.vertices)
    if n * n > EIGEN_ENTRY_LIMIT:
        raise TooLarge(f"the eigendata of {n} vertices hold {n * n} entries, "
                       f"above the limit of {EIGEN_ENTRY_LIMIT}")
    return n * n


def laplacian_entries(graph: KGraph):
    """The nonzeros of Delta = sum over colors of M_s M_s^T, in row-major
    order, from the edge columns, whatever the colors.  Column e of M_s is
    1_{r(e)} - 1_{s(e)} (zero for a loop), so each non-loop edge adds 1 at
    (r, r) and (s, s) and -1 at (r, s) and (s, r): off the diagonal the
    entries are the negated pair counts, on it the end counts.  Returns the
    rows, columns and int64 values."""
    n = len(graph.vertices)
    moving = graph.edge_source != graph.edge_range
    s, r = graph.edge_source[moving], graph.edge_range[moving]
    cells = np.sort(np.concatenate([s * n + r, r * n + s, s * (n + 1), r * (n + 1)]))
    first = np.ones(len(cells), dtype=bool)
    first[1:] = cells[1:] != cells[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(cells))).astype(np.int64)
    rows, cols = np.divmod(cells[starts], n)
    return rows, cols, np.where(rows == cols, counts, -counts)


def kgraph_laplacian(graph: KGraph) -> np.ndarray:
    """Delta in exact int64: the dense view of `laplacian_entries`."""
    rows, cols, values = laplacian_entries(graph)
    delta = np.zeros((len(graph.vertices),) * 2, dtype=np.int64)
    delta[rows, cols] = values
    return delta


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigendecomposition of the Laplacian; eigenvectors are the
    columns of ``eigenvectors``, sign-normalized so the first component of
    visible size is positive."""

    laplacian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def to_records(self) -> Iterator[dict]:
        return ({"eigenvalue": lam, "eigenvector": vec.tolist()}
                for lam, vec in zip(self.eigenvalues.tolist(), self.eigenvectors.T))


def eig_sym(delta: np.ndarray) -> SpectralData:
    """Full symmetric eigendecomposition with deterministic signs.

    Raises DegenerateVertexCount on the empty (0 x 0) matrix of a graph
    with no vertex, and ResidualTooLarge when the eigenpairs or their
    orthonormality miss 1e-10."""
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise AsymmetricInput(f"need a square matrix, got shape {delta.shape}")
    if not delta.size:
        raise DegenerateVertexCount("no eigendata for the empty (0 x 0) matrix: a graph with no vertex has none")
    if np.max(np.abs(delta - delta.T)) > 1e-12:
        raise AsymmetricInput("matrix is not symmetric within tolerance")
    eigenvalues, vectors = np.linalg.eigh(delta)
    visible = np.abs(vectors) > 1e-12
    lead = vectors[visible.argmax(axis=0), np.arange(vectors.shape[1])]
    flip = visible.any(axis=0) & (lead < 0)
    vectors[:, flip] = -vectors[:, flip]
    resid = np.max(np.abs(delta @ vectors - vectors * eigenvalues))
    if not resid < 1e-10:
        raise ResidualTooLarge(f"eigen residual {resid:.2e}")
    resid = np.max(np.abs(vectors.T @ vectors - np.eye(len(eigenvalues))))
    if not resid < 1e-10:
        raise ResidualTooLarge(f"eigenvectors off orthonormal by {resid:.2e}")
    return SpectralData(delta, eigenvalues, vectors)


def gft(spec: SpectralData, signal: Sequence[float]) -> np.ndarray:
    """Coefficients <v_l, f> of a vertex signal against the eigenbasis."""
    f = np.asarray(signal, dtype=float)
    if f.shape != (spec.n,):
        raise DimensionMismatch(f"signal length {f.shape} != {spec.n}")
    return spec.eigenvectors.T @ f


# -- wavelet kernels --------------------------------------------------------

@dataclass(frozen=True)
class KernelPiece:
    """One piece of a kernel on [lo, hi): a polynomial (coefficients in
    ascending powers) or a pure power c*x**p."""

    lo: float
    hi: float
    kind: str  # "poly" | "power"
    params: tuple[float, ...]

    def eval(self, x: np.ndarray, deriv: int = 0) -> np.ndarray:
        if self.kind == "poly":
            coeffs = np.polynomial.polynomial.polyder(self.params, deriv) \
                if deriv else np.asarray(self.params, dtype=float)
            return np.polynomial.polynomial.polyval(x, coeffs)
        c, p = self.params
        with np.errstate(divide="ignore"):
            if deriv == 0:
                return c * np.power(x, p)
            return c * p * np.power(x, p - 1)


@dataclass(frozen=True)
class KernelSpec:
    """A piecewise band-pass kernel on [0, inf).

    ``vanishing_order`` is the order M of the zero at the origin (the leading
    behavior is c x^M).
    """

    pieces: tuple[KernelPiece, ...]
    vanishing_order: int


def default_kernel() -> KernelSpec:
    """x^2 head, cubic bridge on (1,2), 4/x^2 tail; C^1 with g(1)=g(2)=1."""
    return KernelSpec(
        pieces=(
            KernelPiece(0.0, 1.0, "poly", (0.0, 0.0, 1.0)),
            KernelPiece(1.0, 2.0, "poly", (-5.0, 11.0, -6.0, 1.0)),
            KernelPiece(2.0, math.inf, "power", (4.0, -2.0)),
        ),
        vanishing_order=2,
    )


def kernel_eval(spec: KernelSpec, x, deriv: int = 0):
    """Evaluate the kernel (or its first derivative) at x >= 0.

    Arguments within roundoff below zero (>= -1e-9) are clamped to 0; this
    absorbs eigensolver noise on the zero eigenvalue.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).copy()
    if np.any(arr < -1e-9):
        raise NegativeArgument("kernel arguments must be >= 0")
    np.clip(arr, 0.0, None, out=arr)
    out = np.zeros_like(arr)
    for piece in spec.pieces:
        mask = (arr >= piece.lo) & (arr < piece.hi)
        if np.any(mask):
            out[mask] = piece.eval(arr[mask], deriv)
    return float(out[0]) if scalar else out


def cg_constant(spec: KernelSpec) -> float:
    """C_g = int_0^inf g(x)^2 / x dx by per-piece closed forms."""
    total = 0.0
    for piece in spec.pieces:
        lo, hi = piece.lo, piece.hi
        if piece.kind == "poly":
            sq = np.polynomial.polynomial.polymul(piece.params, piece.params)
            if lo == 0.0 and abs(sq[0]) > 0:
                raise DivergentIntegral("g(0) != 0 makes the energy integral diverge")
            if abs(sq[0]) > 0:
                total += sq[0] * math.log(hi / lo)
            for i in range(1, len(sq)):
                total += sq[i] * (hi ** i - lo ** i) / i
        else:
            c, p = piece.params
            q = 2 * p  # integrand is c^2 x^(2p-1)
            if lo == 0.0 and q <= 0:
                raise DivergentIntegral(f"power {p} makes the energy integral diverge at 0")
            if math.isinf(hi):
                if q >= 0:
                    raise DivergentIntegral(f"tail power {p} does not decay")
                total += -c * c * lo ** q / q
            elif q == 0:
                total += c * c * math.log(hi / lo)
            else:
                total += c * c * (hi ** q - lo ** q) / q
    return float(total)


def _check_scale(spec: SpectralData, t: float):
    """Raise NonFiniteResult, with no numpy warning, when the scale t times
    an eigenvalue is past the float range: the kernel has no argument there."""
    lam = float(np.max(np.abs(spec.eigenvalues)))
    with np.errstate(over="ignore"):
        if not np.isfinite(t * lam):
            raise NonFiniteResult(f"scale {t:g} times eigenvalue {lam:g} is past the float range")


def _rounded_eigenvalues(spec: SpectralData) -> np.ndarray:
    """The eigenvalues with those within round-off below zero (>= -1e-9,
    as `kernel_eval` clamps its arguments) set to 0, so a large scale t does
    not carry the round-off of the zero eigenvalue past that clamp."""
    lam = spec.eigenvalues
    return np.where((lam < 0) & (lam >= -1e-9), 0.0, lam)


def spectral_wavelet(spec: SpectralData, kernel: KernelSpec,
                     t: float, n: int) -> np.ndarray:
    """psi_{g,t,n}(m) = sum_l g(t lambda_l) v_l(n) v_l(m)."""
    _check_scale(spec, t)
    gains = kernel_eval(kernel, t * _rounded_eigenvalues(spec))
    return spec.eigenvectors @ (gains * spec.eigenvectors[n, :])


def default_tgrid(spec: SpectralData) -> np.ndarray:
    """2000 log-spaced scales covering [1e-4/lambda_max, 1e4/lambda_min+]."""
    positive = spec.eigenvalues[spec.eigenvalues > 1e-12]
    if positive.size == 0:
        raise DivergentIntegral("no positive eigenvalues; nothing to scale against")
    return np.geomspace(1e-4 / positive.max(), 1e4 / positive.min(), 2000)


_ENERGY_ROWS = 32  # eigenvalues per block of grid energies: 32 x T floats at a time


def reconstruct(spec: SpectralData, kernel: KernelSpec, signal: Sequence[float],
                t_grid: Sequence[float] | None = None) -> np.ndarray:
    """Quadrature of (1/C_g) sum_n int <psi_{g,t,n}, f> psi_{g,t,n} dt/t.

    The frame is diagonal in the eigenbasis, so this scales the l-th
    eigencomponent of f by its grid energy sum_t w_t g(t lambda_l)^2 over C_g.
    Recovers the component of f orthogonal to the Laplacian kernel:
    eigenvalues <= 1e-12 get gain 0 because g(0) = 0, and never reach the
    kernel.  The energies of the others are taken in blocks of _ENERGY_ROWS
    eigenvalues.  Raises NonFiniteResult when the largest scale times an
    eigenvalue is past the float range, and GridTooCoarse at the first
    eigenvalue, in order, whose grid energy misses C_g by more than 1e-3
    (relative).
    """
    f = np.asarray(signal, dtype=float)
    if f.shape != (spec.n,):
        raise DimensionMismatch(f"signal length {f.shape} != {spec.n}")
    if abs(kernel_eval(kernel, 0.0)) > 0:
        raise DivergentIntegral("reconstruction requires g(0) = 0")
    if t_grid is None:
        t_grid = default_tgrid(spec)
    t = np.sort(np.asarray(t_grid, dtype=float))
    if t[0] <= 0:
        raise GridTooCoarse("scale grid must be strictly positive")
    _check_scale(spec, t[-1])
    u = np.log(t)
    du = np.diff(u)
    w = np.zeros_like(u)
    w[:-1] += du / 2
    w[1:] += du / 2

    cg = cg_constant(kernel)
    energy = np.zeros(spec.n)
    positive = np.flatnonzero(spec.eigenvalues > 1e-12)
    for start in range(0, len(positive), _ENERGY_ROWS):
        rows = positive[start:start + _ENERGY_ROWS]
        lam = spec.eigenvalues[rows]
        energy[rows] = np.sum(w * kernel_eval(kernel, lam[:, None] * t) ** 2, axis=1)
        bad = np.abs(energy[rows] - cg) > 1e-3 * cg
        if bad.any():
            i = rows[bad.argmax()]
            raise GridTooCoarse(f"grid energy {energy[i]:.6g} misses C_g {cg:.6g} "
                                f"at eigenvalue {spec.eigenvalues[i]:.6g}")
    vectors = spec.eigenvectors
    return vectors @ (energy / cg * (vectors.T @ f))


@dataclass(frozen=True)
class LocalizationProbe:
    """Normalized wavelet magnitude at one vertex pair across scales, with a
    log-log least-squares slope over the nonzero rows."""

    n: int
    m: int
    rows: tuple[tuple[float, float], ...]  # (t, |psi(m)| / ||psi||)
    slope: float | None

    def to_records(self) -> Iterator[dict]:
        return ({"t": t, "ratio": r} for t, r in self.rows)


def localization_probe(spec: SpectralData, kernel: KernelSpec,
                       n: int, m: int, t_list: Sequence[float]) -> LocalizationProbe:
    rows = []
    for t in t_list:
        psi = spectral_wavelet(spec, kernel, float(t), n)
        denom = float(np.linalg.norm(psi))
        rows.append((float(t), abs(float(psi[m])) / denom if denom > 0 else 0.0))
    usable = [(t, r) for t, r in rows if r > 0]
    slope = None
    if len(usable) >= 2:
        logt = np.log([t for t, _ in usable])
        logr = np.log([r for _, r in usable])
        slope = float(np.polyfit(logt, logr, 1)[0])
    return LocalizationProbe(n, m, tuple(rows), slope)
