"""Output oracles, one per op kind.

Each oracle parses one op's stdout and compares it against values computed
here from the ``.kg`` document with numpy or ``Fraction``.  Nothing in this
module calls ``kgraphwave``: an oracle that reused the code under test would
agree with it whatever it computed.  A mismatch raises ``OracleError``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from inputs import GraphIndex

FLOAT_TOL = 1e-9


class OracleError(Exception):
    """An op's output disagrees with the independently computed value."""


def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _require(ok: bool, message: str):
    if not ok:
        raise OracleError(message)


def _close(a, b, tol=FLOAT_TOL, what="value"):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    _require(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    if a.size:
        dev = float(np.max(np.abs(a - b)))
        _require(dev <= tol, f"{what}: deviation {dev:.3e} > {tol:.1e}")


# -- values computed from the document ---------------------------------------

class Model:
    """Vertex matrices, PF data and cylinder masses of one graph document."""

    def __init__(self, doc: dict):
        self.g = GraphIndex(doc)
        n = len(self.g.vertices)
        self.n = n
        self.mats = [np.zeros((n, n)) for _ in range(self.g.k)]
        for e in doc["edges"]:
            self.mats[e["color"] - 1][self.g.vertex_index[e["range"]],
                                      self.g.vertex_index[e["source"]]] += 1
        self._pf = None
        self._exact = None
        self._spectral = None

    # PF data by a dense eigensolve of the primitive matrix I + sum A_i
    @property
    def pf(self) -> tuple[np.ndarray, np.ndarray]:
        if self._pf is None:
            values, vectors = np.linalg.eig(np.eye(self.n) + sum(self.mats))
            x = np.abs(np.real(vectors[:, int(np.argmax(np.real(values)))]))
            x = x / x.sum()
            rho = np.array([float(np.mean((m @ x) / x)) for m in self.mats])
            self._pf = (rho, x)
        return self._pf

    @property
    def exact_pf(self) -> tuple[list[int], list[Fraction]]:
        if self._exact is None:
            rho = [int(round(r)) for r in self.pf[0]]
            rows = []
            for m, r in zip(self.mats, rho):
                for i in range(self.n):
                    rows.append([Fraction(int(m[i, j]) - (r if i == j else 0)) for j in range(self.n)]
                                + [Fraction(0)])
            rows.append([Fraction(1)] * self.n + [Fraction(1)])
            self._exact = (rho, _solve_fraction(rows, self.n))
        return self._exact

    def source_of(self, path) -> str:
        if len(path) == 1 and path[0].startswith("@"):
            return path[0][1:]
        return self.g.source(path[-1])

    def range_of(self, path) -> str:
        if len(path) == 1 and path[0].startswith("@"):
            return path[0][1:]
        return self.g.range(path[0])

    def degree_of(self, path) -> tuple[int, ...]:
        if len(path) == 1 and path[0].startswith("@"):
            return (0,) * self.g.k
        return self.g.degree(path)

    def mass(self, path) -> float:
        rho, x = self.pf
        d = self.degree_of(path)
        return float(np.prod(rho ** -np.asarray(d, dtype=float)) * x[self.g.vertex_index[self.source_of(path)]])

    def exact_mass(self, path) -> Fraction:
        rho, x = self.exact_pf
        value = x[self.g.vertex_index[self.source_of(path)]]
        for r, d in zip(rho, self.degree_of(path)):
            value /= Fraction(r) ** d
        return value

    def refine(self, records, level) -> dict[tuple[str, ...], float]:
        """Cylinder-function records rewritten as coefficients on level paths."""
        out: dict[tuple[str, ...], float] = {}
        for rec in records:
            path = rec["path"]
            step = tuple(a - b for a, b in zip(level, self.degree_of(path)))
            prefix = () if path[0].startswith("@") else tuple(path)
            for mu in self.g.paths(step, range_vertex=self.source_of(path)):
                key = self.g.normal_form(prefix + mu)
                out[key] = out.get(key, 0.0) + float(rec["coeff"])
        return out

    # Laplacian and its eigendata
    def incidence(self) -> list[tuple[list[str], np.ndarray]]:
        out = []
        for color in range(1, self.g.k + 1):
            ids = self.g.by_color[color]
            m = np.zeros((self.n, len(ids)), dtype=np.int64)
            for j, eid in enumerate(ids):
                e = self.g.edges[eid]
                if e["range"] != e["source"]:
                    m[self.g.vertex_index[e["range"]], j] = 1
                    m[self.g.vertex_index[e["source"]], j] = -1
            out.append((ids, m))
        return out

    def laplacian(self) -> np.ndarray:
        return sum(m @ m.T for _, m in self.incidence())

    @property
    def spectral(self) -> tuple[np.ndarray, np.ndarray]:
        if self._spectral is None:
            self._spectral = np.linalg.eigh(self.laplacian().astype(float))
        return self._spectral

    def kernel_operator(self, t: float) -> np.ndarray:
        lam, vec = self.spectral
        return (vec * default_kernel(t * np.clip(lam, 0.0, None))[None, :]) @ vec.T

    def strongly_connected(self) -> bool:
        reach = (np.eye(self.n) + sum(self.mats)) > 0
        closure = reach.astype(np.int64)
        for _ in range(max(1, int(math.ceil(math.log2(max(self.n, 2)))) + 1)):
            closure = ((closure @ closure) > 0).astype(np.int64)
        return bool(closure.all())


def _solve_fraction(rows: list[list[Fraction]], n: int) -> list[Fraction]:
    """Unique solution of an overdetermined consistent rational system [A | b]."""
    rows = [r[:] for r in rows]
    pivot_row = 0
    for col in range(n):
        pivot = next((i for i in range(pivot_row, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            raise OracleError("exact PF system is singular")
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for i, row in enumerate(rows):
            if i != pivot_row and row[col] != 0:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[pivot_row])]
        pivot_row += 1
    if any(row[n] != 0 for row in rows[n:]):
        raise OracleError("exact PF system is inconsistent")
    return [rows[i][n] for i in range(n)]


def default_kernel(x) -> np.ndarray:
    """x^2 on [0,1), -5 + 11x - 6x^2 + x^3 on [1,2), 4/x^2 from 2 on."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        tail = 4.0 / np.where(x > 0, x, 1.0) ** 2
    return np.where(x < 1.0, x * x,
                    np.where(x < 2.0, -5.0 + 11.0 * x - 6.0 * x * x + x ** 3, tail))


def _gram_identity(rows: list[dict[tuple[str, ...], float]], mass, what: str):
    """The Gram matrix of functions given on disjoint cylinders is the identity."""
    paths = sorted({p for r in rows for p in r})
    index = {p: i for i, p in enumerate(paths)}
    mat = np.zeros((len(rows), len(paths)))
    for i, r in enumerate(rows):
        for p, c in r.items():
            mat[i, index[p]] = c
    weights = np.array([mass(p) for p in paths])
    gram = (mat * weights[None, :]) @ mat.T
    _close(gram, np.eye(len(rows)), what=f"{what} Gram matrix")


def _terms(rec) -> dict[tuple[str, ...], float]:
    return {tuple(t["path"]): float(t["coeff"]) for t in rec["terms"]}


# -- oracles ------------------------------------------------------------------

def check_ck(stdout: str):
    recs = _records(stdout)
    _require([r["relation"] for r in recs] == ["CK1", "CK2", "CK3", "CK4"],
             f"expected CK1..CK4 records, got {[r.get('relation') for r in recs]}")
    for r in recs:
        dev = r["max_deviation"]
        _require(isinstance(dev, float) and math.isfinite(dev) and 0.0 <= dev <= 1e-12,
                 f"{r['relation']} max deviation {dev!r} exceeds 1e-12")


def check_validate(model: Model, stdout: str):
    (rec,) = _records(stdout)
    g = model.g
    expected = {
        "ok": True, "k": g.k, "vertices": model.n,
        "edges_per_color": {str(c): len(g.by_color[c]) for c in range(1, g.k + 1)},
        "squares": len(g.doc["squares"]),
        "cube_condition": "checked" if g.k >= 3 else "n/a (k<3)",
        "strongly_connected": model.strongly_connected(),
    }
    _require(rec == expected, f"validate record {rec} != {expected}")


def check_pf(model: Model, stdout: str):
    (rec,) = _records(stdout)
    rho = np.array(rec["rho"], dtype=float)
    x = np.array([rec["x_lambda"][v] for v in model.g.vertices], dtype=float)
    _require(bool(np.all(x > 0)), "PF vector is not positive")
    _close(x.sum(), 1.0, 1e-12, "PF vector sum")
    for i, m in enumerate(model.mats):
        _close(m @ x, rho[i] * x, FLOAT_TOL, f"residual of A_{i + 1} x = rho_{i + 1} x")
    _close(rho, model.pf[0], FLOAT_TOL, "rho")
    _close(x, model.pf[1], FLOAT_TOL, "x")


def check_measure(model: Model, paths: list[str], embed: bool, stdout: str):
    recs = _records(stdout)
    _require(len(recs) == len(paths), f"{len(recs)} measure records for {len(paths)} paths")
    n = model.n
    for text, rec in zip(paths, recs):
        word = [text] if text.startswith("@") else text.split(",")
        nf = word if text.startswith("@") else list(model.g.normal_form(word))
        _require(rec["path"] == text and rec["normal_form"] == nf,
                 f"path {text}: normal form {rec['normal_form']} != {nf}")
        want = model.exact_mass(word)
        _require(rec["measure"] == str(want), f"path {text}: measure {rec['measure']} != {want}")
        if embed:
            digits = [model.g.vertex_index[model.range_of(nf)]]
            if not text.startswith("@"):
                digits += [model.g.vertex_index[model.g.source(e)] for e in nf]
            lo = sum(Fraction(d, n ** (i + 1)) for i, d in enumerate(digits))
            hi = lo + Fraction(1, n ** len(digits))
            _require(rec["interval"] == [str(lo), str(hi)],
                     f"path {text}: interval {rec['interval']} != {[str(lo), str(hi)]}")


def check_basis(model: Model, shape, depth: int, stdout: str):
    recs = _records(stdout)
    level = tuple(depth * j for j in shape)
    size = len(model.g.paths(level))
    _require(len(recs) == size, f"basis has {len(recs)} members, level space has {size}")
    _require([r["kind"] for r in recs[:model.n]] == ["scaling"] * model.n,
             "basis does not open with one scaling function per vertex")
    _gram_identity([_terms(r) for r in recs], model.mass, "basis")


def check_family(model: Model, shape, stdout: str):
    recs = _records(stdout)
    scaling = [r for r in recs if r["kind"] == "scaling"]
    wavelets = [r for r in recs if r["kind"] == "wavelet"]
    _require(len(scaling) == model.n, "one scaling function per vertex")
    for r in scaling:
        ((path, c),) = _terms(r).items()
        _close(c * c * model.mass(path), 1.0, what=f"scaling norm at {r['vertex']}")
    for v in model.g.vertices:
        count = sum(1 for r in wavelets if r["vertex"] == v)
        want = len(model.g.paths(tuple(shape), range_vertex=v)) - 1
        _require(count == want, f"vertex {v}: {count} wavelets, want {want}")
    rows = [_terms(r) for r in wavelets]
    _gram_identity(rows, model.mass, "family")
    means = [sum(c * model.mass(p) for p, c in r.items()) for r in rows]
    _close(means, np.zeros(len(rows)), what="wavelet integrals")


def _norm_sq(model: Model, coeffs: dict[tuple[str, ...], float]) -> float:
    return sum(c * c * model.mass(p) for p, c in coeffs.items())


def check_analyze(model: Model, shape, depth: int, fn_records: list[dict], stdout: str):
    recs = _records(stdout)
    level = tuple(depth * j for j in shape)
    _require(len(recs) == len(model.g.paths(level)), "one coefficient per level path")
    energy = sum(float(r["coeff"]) ** 2 for r in recs)
    want = _norm_sq(model, model.refine(fn_records, level))
    _close(energy, want, FLOAT_TOL * max(1.0, want), "Parseval: sum of squared coefficients")


def check_synthesize(model: Model, shape, depth: int, fn_records: list[dict],
                     coeff_text: str, stdout: str):
    level = tuple(depth * j for j in shape)
    got = {tuple(t["path"]): float(t["coeff"]) for t in _records(stdout)}
    want = model.refine(fn_records, level)
    keys = sorted(set(got) | set(want))
    _close([got.get(k, 0.0) for k in keys], [want.get(k, 0.0) for k in keys],
           what="synthesize(analyze(f)) against f")
    energy = sum(float(r["coeff"]) ** 2 for r in _records(coeff_text))
    _close(_norm_sq(model, got), energy, FLOAT_TOL * max(1.0, energy), "Parseval after synthesis")


def check_compare(model: Model, shape, factor: int, stdout: str):
    (rec,) = _records(stdout)
    dim = len(model.g.paths(tuple(factor * j for j in shape))) - model.n
    _require(rec["dim_multiscale"] == dim and rec["dim_single_scale"] == dim,
             f"compared dimensions {rec['dim_multiscale']}/{rec['dim_single_scale']}, want {dim}")
    angles = rec["principal_angles"]
    _require(rec["equal"] is True and len(angles) == dim and max(angles) <= 1e-8,
             "multiscale and single-scale wavelet spaces differ")


def check_markov(weights: list[Fraction], depth: int, stdout: str):
    recs = _records(stdout)
    letters = len(weights)
    _require(len(recs) == letters ** (depth + 1), f"{len(recs)} members, want {letters ** (depth + 1)}")
    width = len(str(letters - 1))
    p = {f"{i:0{width}d}": float(w) for i, w in enumerate(weights)}
    _gram_identity([_terms(r) for r in recs], lambda word: math.prod(p[a] for a in word), "markov")


def check_traffic(model: Model, degrees: dict[str, tuple[int, ...]], stdout: str):
    recs = _records(stdout)
    rho, x = model.pf
    nu = np.array([np.prod(rho ** -np.asarray(degrees[v], dtype=float)) * x[i]
                   for i, v in enumerate(model.g.vertices)])
    _require(recs[0]["kind"] == "measure", "traffic output opens with the measure record")
    _close([recs[0]["values"][v] for v in model.g.vertices], nu, what="traffic measure")
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, v in enumerate(model.g.vertices):
        classes.setdefault(tuple(degrees[v]), []).append(i)
    wavelets = [r for r in recs if r["kind"] == "wavelet"]
    want = sum(len(m) - 1 for m in classes.values() if len(m) > 1)
    _require(len(wavelets) == want, f"{len(wavelets)} traffic wavelets, want {want}")
    for r in wavelets:
        support = {i for i, val in enumerate(r["values"]) if val != 0.0}
        _require(support <= set(classes[tuple(r["shape"])]), "wavelet leaves its degree class")
    mat = np.array([r["values"] for r in recs if r["kind"] in ("wavelet", "constant")])
    _close((mat * nu[None, :]) @ mat.T, np.eye(len(mat)), what="traffic Gram matrix")
    complete = len(classes) == 1
    _require(recs[-1] == {"kind": "summary", "complete": complete}, "traffic summary record")


def least_degrees(model: Model, root: str) -> dict[str, tuple[int, ...]]:
    """Per vertex, the first degree of least total (in ascending lexicographic
    order) carrying a path from it into ``root``; 2-graphs only."""
    r = model.g.vertex_index[root]
    a1, a2 = ((m > 0).astype(np.int64) for m in model.mats)
    out: dict[str, tuple[int, ...]] = {}
    powers1 = [np.eye(model.n, dtype=np.int64)]
    powers2 = [np.eye(model.n, dtype=np.int64)]
    total = 0
    while len(out) < model.n:
        if total > 4 * model.n:
            raise OracleError(f"some vertex has no path into {root}")
        while len(powers1) <= total:
            powers1.append(((powers1[-1] @ a1) > 0).astype(np.int64))
            powers2.append(((powers2[-1] @ a2) > 0).astype(np.int64))
        for a in range(total + 1):
            reach = (powers1[a] @ powers2[total - a])[r]
            for i, v in enumerate(model.g.vertices):
                if v not in out and reach[i] > 0:
                    out[v] = (a, total - a)
        total += 1
    return out


def check_laplacian(model: Model, stdout: str):
    recs = _records(stdout)
    inc = model.incidence()
    _require(len(recs) == len(inc) + 1, "one incidence record per color plus the Laplacian")
    for color, ((ids, m), rec) in enumerate(zip(inc, recs), start=1):
        _require(rec == {"kind": "incidence", "color": color, "edges": ids, "matrix": m.tolist()},
                 f"incidence matrix of color {color} differs")
    _require(recs[-1] == {"kind": "laplacian", "matrix": model.laplacian().tolist()},
             "Laplacian differs")


def check_eig(model: Model, stdout: str):
    recs = _records(stdout)
    lam_ref, _ = model.spectral
    lam = np.array([r["eigenvalue"] for r in recs])
    vec = np.array([r["eigenvector"] for r in recs]).T
    _close(lam, lam_ref, FLOAT_TOL, "eigenvalues")
    delta = model.laplacian().astype(float)
    _close(delta @ vec, vec * lam[None, :], FLOAT_TOL, "eigen residual")
    _close(vec.T @ vec, np.eye(len(lam)), FLOAT_TOL, "eigenvector orthonormality")
    for col in vec.T:
        lead = next((v for v in col if abs(v) > 1e-12), 1.0)
        _require(lead > 0, "eigenvector sign is not normalized")


def _clusters(lam: np.ndarray, gap: float = 1e-8) -> list[slice]:
    out, start = [], 0
    for i in range(1, len(lam) + 1):
        if i == len(lam) or lam[i] - lam[i - 1] > gap * max(1.0, abs(lam[i])):
            out.append(slice(start, i))
            start = i
    return out


def check_gft(model: Model, signal: list[float], stdout: str):
    """Per eigenspace, the energy of the coefficients equals that of the
    projected signal; this holds for any orthonormal eigenbasis."""
    coeffs = np.array([r["coefficient"] for r in _records(stdout)])
    lam, vec = model.spectral
    f = np.asarray(signal)
    _require(coeffs.shape == lam.shape, "one GFT coefficient per eigenvalue")
    ref = vec.T @ f
    got = [float(np.sum(coeffs[s] ** 2)) for s in _clusters(lam)]
    want = [float(np.sum(ref[s] ** 2)) for s in _clusters(lam)]
    _close(got, want, FLOAT_TOL * max(1.0, float(f @ f)), "eigenspace energies")


def check_wavelet(model: Model, t: float, center: str, stdout: str):
    recs = _records(stdout)
    psi = model.kernel_operator(t)[:, model.g.vertex_index[center]]
    _require([r["m"] for r in recs] == model.g.vertices, "one wavelet value per vertex")
    _close([r["value"] for r in recs], psi, FLOAT_TOL, "spectral wavelet V g(t L) V^T")


def check_localize(model: Model, center: str, target: str, ts: list[float], stdout: str):
    recs = _records(stdout)
    n, m = model.g.vertex_index[center], model.g.vertex_index[target]
    ratios = []
    for t in ts:
        psi = model.kernel_operator(t)[:, n]
        ratios.append(abs(psi[m]) / float(np.linalg.norm(psi)))
    _require([r["t"] for r in recs[:-1]] == ts, "one probe row per scale")
    _close([r["ratio"] for r in recs[:-1]], ratios, FLOAT_TOL, "localization ratios")
    usable = [(t, r) for t, r in zip(ts, ratios) if r > 0]
    slope = recs[-1]["slope"]
    if len(usable) >= 2:
        want = float(np.polyfit(np.log([t for t, _ in usable]), np.log([r for _, r in usable]), 1)[0])
        _close(slope, want, 1e-7, "localization slope")
    else:
        _require(slope is None, "slope reported without two usable scales")


def kernel_energy_constant() -> float:
    """C_g = int_0^inf g(x)^2 / x dx of the default kernel, piece by piece."""
    cubic = np.polynomial.polynomial.polymul((-5.0, 11.0, -6.0, 1.0), (-5.0, 11.0, -6.0, 1.0))
    bridge = cubic[0] * math.log(2.0) + sum(c * (2.0 ** i - 1.0) / i for i, c in enumerate(cubic) if i)
    return 0.25 + bridge + 0.25  # x^4/x on [0,1) and 16 x^-5 on [2, inf) give 1/4 each


def check_reconstruct(model: Model, signal: list[float], points: int, grid_tol: float, stdout: str):
    """The frame quadrature on the default grid (``points`` log-spaced scales from
    1e-4/lambda_max to 1e4/lambda_min, trapezoid weights in log t) scales each
    eigencomponent of f by its grid energy over C_g.  The output must equal that,
    and so lie within grid_tol of f minus its projection onto ker L."""
    got = np.array([r["value"] for r in _records(stdout)])
    lam, vec = model.spectral
    positive = lam[lam > 1e-12]
    t = np.geomspace(1e-4 / positive.max(), 1e4 / positive.min(), points)
    du = np.diff(np.log(t))
    w = np.zeros_like(t)
    w[:-1] += du / 2
    w[1:] += du / 2
    gain = np.array([np.sum(w * default_kernel(t * x) ** 2) if x > 1e-12 else 0.0 for x in lam])
    gain /= kernel_energy_constant()
    f = np.asarray(signal)
    _close(got, vec @ (gain * (vec.T @ f)), FLOAT_TOL, "reconstruction against the grid quadrature")
    kernel = vec[:, lam < 1e-8]
    target = f - kernel @ (kernel.T @ f)
    err = float(np.linalg.norm(got - target))
    _require(err <= grid_tol * float(np.linalg.norm(target)),
             f"reconstruction misses f - P_ker f by {err:.3e}")
