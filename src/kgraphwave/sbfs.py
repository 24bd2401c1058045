"""Semibranching representation operators as prefix index maps between cylinder levels.

The prefixing operator S_lambda maps functions constant on degree-L cylinders
to functions constant on degree L + d(lambda) cylinders.  In the orthonormal
bases of measure-normalized indicators it is the index map mu -> lambda*mu on
the paths with r(mu) = s(lambda), with entries rho^{d(lambda)/2} *
sqrt(M(Z(lambda mu)) / M(Z(mu))).  These are 1, and checked to be, because the
Radon-Nikodym derivative of prefixing is constant on cylinders.  `s_matrix`
returns the map and its `.matrix` is the dense view; `check_ck_relations`
verifies the four Cuntz-Krieger relations at a chosen level on the maps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache, cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .errors import DegreeRangeError, LevelTooSmall, NonConstantDerivative
from .kgraph import (
    Degree,
    KGraph,
    Path,
    as_degree,
    compose,
    deg_add,
    deg_le,
    deg_sub,
    enumerate_paths,
    vertex_path,
)
from .measure import CylinderFn, MeasureSpec, cylinder_measure, refine


@dataclass(frozen=True)
class LevelSpace:
    """The ordered basis of degree-`level` cylinder indicators with their
    masses; Theta_lambda / sqrt(M(Z(lambda))) is the attached orthonormal
    basis."""

    graph: KGraph
    spec: MeasureSpec
    level: Degree
    basis: tuple[Path, ...]
    weights: np.ndarray
    index: dict = field(repr=False)

    def vector_of(self, f: CylinderFn) -> np.ndarray:
        """Coefficients of f in the (unnormalized) indicator basis."""
        refined = refine(f, self.level)
        vec = np.zeros(len(self.basis))
        for p, c in refined.terms.items():
            vec[self.index[p]] = c
        return vec

    def function_of(self, vec: Sequence[float]) -> CylinderFn:
        vec = np.asarray(vec, dtype=float)
        return CylinderFn(self.graph, {self.basis[i]: float(vec[i]) for i in np.flatnonzero(vec)})


def level_space(spec: MeasureSpec, level: Sequence[int]) -> LevelSpace:
    level = as_degree(level, spec.graph.k)
    basis = tuple(enumerate_paths(spec.graph, level))
    weights = np.array([float(cylinder_measure(spec, p)) for p in basis])
    return LevelSpace(spec.graph, spec, level, basis,
                      weights, {p: i for i, p in enumerate(basis)})


@dataclass(frozen=True)
class OperatorMatrix:
    """A level-to-level operator in the normalized cylinder bases, held as an
    index map: entry vals[t] at (rows[t], cols[t]).  No column of S_path repeats."""

    domain_level: Degree
    codomain_level: Degree
    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The dense view."""
        mat = np.zeros(self.shape)
        mat[self.rows, self.cols] = self.vals
        return mat

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and entry of each column (-1 and 0 if empty); no column may repeat."""
        row, val = np.full(self.shape[1], -1), np.zeros(self.shape[1])
        row[self.cols], val[self.cols] = self.rows, self.vals
        return row, val


def _prefix_map(spec: MeasureSpec, path: Path, dom: LevelSpace, cod: LevelSpace,
                rn_tol: float = 1e-12) -> OperatorMatrix:
    """S_path from `dom` to `cod`: column mu, for r(mu) = s(path), goes to the
    row of path*mu with entry factor * sqrt(M(Z(path mu)) / M(Z(mu)))."""
    cols = np.array([j for j, mu in enumerate(dom.basis) if mu.range == path.source], dtype=int)
    rows = np.array([cod.index[compose(path, dom.basis[j])] for j in cols], dtype=int)
    vals = spec.prefix_factor(path) * np.sqrt(cod.weights[rows] / dom.weights[cols])
    bad = np.flatnonzero(~(np.abs(vals - 1.0) < rn_tol))
    if len(bad):
        raise NonConstantDerivative(f"Radon-Nikodym derivative not constant: entry "
                                    f"{vals[bad[0]]} for {path}, {dom.basis[cols[bad[0]]]}")
    return OperatorMatrix(dom.level, cod.level, (len(cod.basis), len(dom.basis)), rows, cols, vals)


def s_matrix(spec: MeasureSpec, path: Path, domain_level: Sequence[int],
             rn_tol: float = 1e-12) -> OperatorMatrix:
    """S_path from level `domain_level` to `domain_level + d(path)`."""
    domain_level = as_degree(domain_level, spec.graph.k)
    return _prefix_map(spec, path, level_space(spec, domain_level),
                       level_space(spec, deg_add(domain_level, path.degree)), rn_tol)


def s_star_matrix(spec: MeasureSpec, path: Path, domain_level: Sequence[int]) -> OperatorMatrix:
    """Adjoint of S_path, from `domain_level` down to `domain_level - d(path)`."""
    domain_level = as_degree(domain_level, spec.graph.k)
    if not deg_le(path.degree, domain_level):
        raise DegreeRangeError(
            f"adjoint needs domain level >= d(path); {domain_level} < {path.degree}")
    fwd = s_matrix(spec, path, deg_sub(domain_level, path.degree))
    return OperatorMatrix(domain_level, fwd.domain_level, fwd.shape[::-1],
                          fwd.cols, fwd.rows, fwd.vals)


def s_apply(spec: MeasureSpec, path: Path, f: CylinderFn) -> CylinderFn:
    """S_path f computed directly on the terms: Theta_mu -> factor * Theta_{path mu}."""
    factor = spec.prefix_factor(path)
    terms = {}
    for mu, c in f.terms.items():
        if mu.range != path.source:
            continue
        tau = compose(path, mu)
        terms[tau] = terms.get(tau, 0.0) + factor * c
    return CylinderFn(spec.graph, terms)


@dataclass(frozen=True)
class RelationCheck:
    relation: str
    max_deviation: float
    witness: dict


@dataclass(frozen=True)
class CKReport:
    test_level: Degree
    checks: tuple[RelationCheck, ...]

    @property
    def max_deviation(self) -> float:
        return max(c.max_deviation for c in self.checks)

    def to_records(self) -> list[dict]:
        return [asdict(c) for c in self.checks]


def _steps(upto: Degree) -> list[Degree]:
    """The nonzero degrees up to `upto`, in product order."""
    return [d for d in product(*(range(t + 1) for t in upto)) if any(d)]


def _product(outer: tuple, inner: tuple) -> tuple[np.ndarray, np.ndarray]:
    """outer @ inner on column forms: each entry of inner goes on through the
    column of outer at its row, so every entry is a single product."""
    (ro, vo), (ri, vi) = outer, inner
    return np.where(ri >= 0, ro[ri], -1), np.where(ri >= 0, vo[ri] * vi, 0.0)


def _deviation(a: tuple, b: tuple) -> float:
    """max |A - B| over the whole matrix, from column forms: per column,
    |a - b| where the entries share a row, else the larger |entry|."""
    (ra, va), (rb, vb) = a, b
    dev = np.where(ra == rb, np.abs(va - vb), np.maximum(np.abs(va), np.abs(vb)))
    return float(np.max(dev, initial=0.0))


def check_ck_relations(spec: MeasureSpec, graph: KGraph,
                       test_level: Sequence[int]) -> CKReport:
    """Verify (CK1)-(CK4) as matrix identities on cylinder level spaces.

    All compositions are arranged to land at degree `test_level`; the report
    carries the worst absolute deviation per relation and where it occurred.
    Each level space and each S_lambda, as an index map, is built once.
    """
    test_level = as_degree(test_level, graph.k)
    if any(t < 1 for t in test_level):
        raise LevelTooSmall(f"test level {test_level} must be >= 1 in every color")
    worst = {relation: (0.0, {}) for relation in ("CK1", "CK2", "CK3", "CK4")}

    def record(relation: str, d: float, witness: dict):
        if d > worst[relation][0]:
            worst[relation] = (d, witness)

    @cache
    def space(level: Degree) -> LevelSpace:
        return level_space(spec, level)

    @cache
    def s_op(path: Path, level: Degree) -> OperatorMatrix:
        return _prefix_map(spec, path, space(level), space(deg_add(level, path.degree)))

    projs = {v: s_op(vertex_path(graph, v), test_level).columns for v in graph.vertices}
    at = np.arange(len(space(test_level).basis))

    # (CK1) vertex projections are orthogonal and sum to the identity
    for v in graph.vertices:
        for w in graph.vertices:
            target = projs[v] if v == w else (at, np.zeros(len(at)))
            record("CK1", _deviation(_product(projs[v], projs[w]), target), {"vertices": [v, w]})
    # S_v fills only the columns mu with r(mu) = v: the sum has one term per entry
    rows, vals = zip(*projs.values())
    total = np.max(rows, axis=0), np.sum(vals, axis=0)
    record("CK1", _deviation(total, (at, np.ones(len(at)))), {"vertices": "sum"})

    # (CK2) S_mu S_lambda = S_{mu lambda}
    for dm in _steps(test_level):
        for dl in _steps(deg_sub(test_level, dm)):
            base = deg_sub(test_level, deg_add(dm, dl))
            for mu in enumerate_paths(graph, dm):
                inner = s_op(mu, deg_add(base, dl)).columns
                for lam in enumerate_paths(graph, dl, range=mu.source):
                    lhs = _product(inner, s_op(lam, base).columns)
                    record("CK2", _deviation(lhs, s_op(compose(mu, lam), base).columns),
                           {"mu": "".join(mu.word), "lambda": "".join(lam.word)})

    # (CK3) S_mu* S_mu = S_{s(mu)}.  An injective S_mu has S* S = its squared
    # entries on the diagonal at its columns; otherwise take the dense product.
    for dm in _steps(test_level):
        base = deg_sub(test_level, dm)
        for mu in enumerate_paths(graph, dm):
            op, target = s_op(mu, base), s_op(vertex_path(graph, mu.source), base)
            if len(set(op.rows.tolist())) == len(op.rows):
                size = target.shape[1]
                diag = np.arange(size), np.bincount(op.cols, op.vals ** 2, minlength=size)
                d = _deviation(diag, target.columns)
            else:
                d = float(np.max(np.abs(op.matrix.T @ op.matrix - target.matrix)))
            record("CK3", d, {"mu": "".join(mu.word)})

    # (CK4) S_v = sum over v Lambda^n of S_lambda S_lambda*.  With one entry per
    # column S S* is diagonal: the squared entries summed at their rows.
    for n in _steps(test_level):
        base = deg_sub(test_level, n)
        for v in graph.vertices:
            acc = np.zeros(len(at))
            for lam in enumerate_paths(graph, n, range=v):
                op = s_op(lam, base)
                acc += np.bincount(op.rows, op.vals ** 2, minlength=len(at))
            record("CK4", _deviation((at, acc), projs[v]), {"n": list(n), "vertex": v})

    return CKReport(test_level, tuple(RelationCheck(r, *worst[r]) for r in worst))
