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
from typing import Sequence

import numpy as np

from .errors import (
    AsymmetricInput,
    DimensionMismatch,
    DivergentIntegral,
    GridTooCoarse,
    NegativeArgument,
    ResidualTooLarge,
)
from .kgraph import KGraph


@dataclass(frozen=True)
class IncidenceSet:
    """Per-color signed incidence matrices with their edge column orders."""

    matrices: tuple[np.ndarray, ...]
    edge_orders: tuple[tuple[str, ...], ...]


def incidence_matrices(graph: KGraph) -> IncidenceSet:
    """M_s[v, e] = +1 at the range, -1 at the source of each non-loop edge of
    color s; columns ordered alphabetically by edge id."""
    n = len(graph.vertices)
    mats = []
    orders = []
    for color in range(1, graph.k + 1):
        ids = tuple(sorted(e.id for e in graph.edges.values() if e.color == color))
        m = np.zeros((n, len(ids)), dtype=np.int64)
        for j, eid in enumerate(ids):
            e = graph.edge(eid)
            if e.range != e.source:
                m[graph.vertex_index[e.range], j] = 1
                m[graph.vertex_index[e.source], j] = -1
        mats.append(m)
        orders.append(ids)
    return IncidenceSet(tuple(mats), tuple(orders))


def kgraph_laplacian(inc: IncidenceSet) -> np.ndarray:
    """Delta = sum over colors of M_s M_s^T, multiplied in float64 (by BLAS,
    unlike int64) and cast back exactly, as every entry is a small integer."""
    return sum(a @ a.T for a in (m.astype(float) for m in inc.matrices)).astype(np.int64)


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

    def to_records(self) -> list[dict]:
        return [{"eigenvalue": float(lam), "eigenvector": [float(x) for x in vec]}
                for lam, vec in zip(self.eigenvalues, self.eigenvectors.T)]


def eig_sym(delta: np.ndarray, sym_tol: float = 1e-12,
            resid_tol: float = 1e-10) -> SpectralData:
    """Full symmetric eigendecomposition with deterministic signs.

    Raises ResidualTooLarge when the eigenpairs or their orthonormality
    miss ``resid_tol``."""
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
        raise AsymmetricInput(f"need a square matrix, got shape {delta.shape}")
    if np.max(np.abs(delta - delta.T)) > sym_tol:
        raise AsymmetricInput("matrix is not symmetric within tolerance")
    eigenvalues, vectors = np.linalg.eigh(delta)
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        lead = next((x for x in v if abs(x) > 1e-12), 1.0)
        if lead < 0:
            vectors[:, col] = -v
    resid = np.max(np.abs(delta @ vectors - vectors * eigenvalues))
    if not resid < resid_tol:
        raise ResidualTooLarge(f"eigen residual {resid:.2e}")
    resid = np.max(np.abs(vectors.T @ vectors - np.eye(len(eigenvalues))))
    if not resid < resid_tol:
        raise ResidualTooLarge(f"eigenvectors off orthonormal by {resid:.2e}")
    return SpectralData(delta, eigenvalues, vectors)


def gft(spec: SpectralData, signal: Sequence[float]) -> np.ndarray:
    """Coefficients <v_l, f> of a vertex signal against the eigenbasis."""
    f = np.asarray(signal, dtype=float)
    if f.shape != (spec.n,):
        raise DimensionMismatch(f"signal length {f.shape} != {spec.n}")
    return spec.eigenvectors.T @ f


def igft(spec: SpectralData, coeffs: Sequence[float]) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (spec.n,):
        raise DimensionMismatch(f"coefficient length {c.shape} != {spec.n}")
    return spec.eigenvectors @ c


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
    behavior is c x^M); ``decay`` documents the tail.
    """

    pieces: tuple[KernelPiece, ...]
    vanishing_order: int
    decay: str


def default_kernel() -> KernelSpec:
    """x^2 head, cubic bridge on (1,2), 4/x^2 tail; C^1 with g(1)=g(2)=1."""
    return KernelSpec(
        pieces=(
            KernelPiece(0.0, 1.0, "poly", (0.0, 0.0, 1.0)),
            KernelPiece(1.0, 2.0, "poly", (-5.0, 11.0, -6.0, 1.0)),
            KernelPiece(2.0, math.inf, "power", (4.0, -2.0)),
        ),
        vanishing_order=2,
        decay="O(x^-2)",
    )


def probe_kernel() -> KernelSpec:
    """Vanishing-order-2 kernel whose head x^2 - x^4/2 carries a quartic term.

    The default kernel is *exactly* x^2 below 1, so for small t its wavelets
    vanish identically beyond distance 2 and no decay rate is observable.
    The quartic term (with no cubic) makes the leading contribution at
    distance 3 scale like t^4 against a t^2 norm: a visible O(t^2) ratio.
    """
    lo, hi = 0.5, 2.0
    head = (0.0, 0.0, 1.0, 0.0, -0.5)
    head_val = lo ** 2 - lo ** 4 / 2
    head_slope = 2 * lo - 2 * lo ** 3
    a, b, c, d = _hermite_cubic(lo, head_val, head_slope, hi, 1.0, -1.0)
    return KernelSpec(
        pieces=(
            KernelPiece(0.0, lo, "poly", head),
            KernelPiece(lo, hi, "poly", (a, b, c, d)),
            KernelPiece(hi, math.inf, "power", (4.0, -2.0)),
        ),
        vanishing_order=2,
        decay="O(x^-2)",
    )


def _hermite_cubic(x0, y0, s0, x1, y1, s1):
    """Coefficients (ascending) of the cubic with given values/slopes."""
    mat = np.array([
        [1, x0, x0 ** 2, x0 ** 3],
        [0, 1, 2 * x0, 3 * x0 ** 2],
        [1, x1, x1 ** 2, x1 ** 3],
        [0, 1, 2 * x1, 3 * x1 ** 2],
    ], dtype=float)
    return tuple(np.linalg.solve(mat, np.array([y0, s0, y1, s1], dtype=float)))


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
            if math.isinf(hi):
                if q >= 0:
                    raise DivergentIntegral(f"tail power {p} does not decay")
                total += -c * c * lo ** q / q
            elif q == 0:
                total += c * c * math.log(hi / lo)
            else:
                total += c * c * (hi ** q - lo ** q) / q
    return float(total)


def cg_constant_numeric(spec: KernelSpec, points: int = 64,
                        lo_cut: float = 1e-8, hi_cut: float = 1e6) -> float:
    """C_g by composite Gauss-Legendre in log space, one panel per decade
    within each kernel piece.  Independent of the closed forms."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    total = 0.0
    breaks = sorted({lo_cut, hi_cut,
                     *(p.lo for p in spec.pieces if lo_cut < p.lo < hi_cut),
                     *(p.hi for p in spec.pieces if lo_cut < p.hi < hi_cut)})
    for a, b in zip(breaks, breaks[1:]):
        ua, ub = math.log(a), math.log(b)
        for lo in np.arange(ua, ub, math.log(10.0)):
            hi = min(lo + math.log(10.0), ub)
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            x = np.exp(mid + half * nodes)
            total += half * float(np.sum(weights * kernel_eval(spec, x) ** 2))
    return total


def spectral_wavelet(spec: SpectralData, kernel: KernelSpec,
                     t: float, n: int) -> np.ndarray:
    """psi_{g,t,n}(m) = sum_l g(t lambda_l) v_l(n) v_l(m)."""
    gains = kernel_eval(kernel, t * spec.eigenvalues)
    return spec.eigenvectors @ (gains * spec.eigenvectors[n, :])


def wavelet_operator(spec: SpectralData, kernel: KernelSpec, t: float) -> np.ndarray:
    """The matrix T_g^t whose n-th column is psi_{g,t,n}."""
    gains = kernel_eval(kernel, t * spec.eigenvalues)
    return (spec.eigenvectors * gains[None, :]) @ spec.eigenvectors.T


def default_tgrid(spec: SpectralData, count: int = 2000) -> np.ndarray:
    """Log-spaced scales covering [1e-4/lambda_max, 1e4/lambda_min+]."""
    positive = spec.eigenvalues[spec.eigenvalues > 1e-12]
    if positive.size == 0:
        raise DivergentIntegral("no positive eigenvalues; nothing to scale against")
    return np.geomspace(1e-4 / positive.max(), 1e4 / positive.min(), count)


def reconstruct(spec: SpectralData, kernel: KernelSpec, signal: Sequence[float],
                t_grid: Sequence[float] | None = None,
                grid_tol: float = 1e-3) -> np.ndarray:
    """Quadrature of (1/C_g) sum_n int <psi_{g,t,n}, f> psi_{g,t,n} dt/t.

    The frame is diagonal in the eigenbasis, so this scales the l-th
    eigencomponent of f by its grid energy sum_t w_t g(t lambda_l)^2 over C_g.
    Recovers the component of f orthogonal to the Laplacian kernel:
    eigenvalues <= 1e-12 get gain 0 because g(0) = 0.  Raises GridTooCoarse
    when the grid's per-eigenvalue energy misses C_g by more than grid_tol
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
    u = np.log(t)
    du = np.diff(u)
    w = np.zeros_like(u)
    w[:-1] += du / 2
    w[1:] += du / 2

    cg = cg_constant(kernel)
    energy = np.zeros(spec.n)
    for i, lam in enumerate(spec.eigenvalues):
        if lam <= 1e-12:
            continue
        energy[i] = np.sum(w * kernel_eval(kernel, t * lam) ** 2)
        if abs(energy[i] - cg) > grid_tol * cg:
            raise GridTooCoarse(
                f"grid energy {energy[i]:.6g} misses C_g {cg:.6g} at eigenvalue {lam:.6g}")
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

    def to_records(self) -> list[dict]:
        return [{"t": t, "ratio": r} for t, r in self.rows]


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
