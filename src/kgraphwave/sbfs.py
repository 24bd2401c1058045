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
    _expand_runs,
    as_degree,
    compose,
    deg_add,
    deg_le,
    deg_sub,
    enumerate_paths,
)
from .measure import CylinderFn, MeasureSpec, cylinder_measure


@dataclass(frozen=True)
class LevelSpace:
    """The ordered basis of degree-`level` cylinder indicators with their
    masses; Theta_lambda / sqrt(M(Z(lambda))) is the attached orthonormal
    basis.

    The paths are held as word-kernel rows (`KGraph.word_kernel`) with the
    range and source vertex index of each, in `enumerate_paths` order;
    ``basis`` turns them into `Path` objects on first access.
    """

    graph: KGraph
    spec: MeasureSpec
    level: Degree
    words: np.ndarray = field(repr=False)
    ranges: np.ndarray = field(repr=False)
    sources: np.ndarray = field(repr=False)
    weights: np.ndarray

    @cached_property
    def basis(self) -> tuple[Path, ...]:
        return tuple(self.graph.word_kernel.paths((self.words, self.ranges, self.sources), self.level))

    @cached_property
    def index(self) -> dict[Path, int]:
        return {p: i for i, p in enumerate(self.basis)}

    def _extension_indices(self, path: Path) -> np.ndarray:
        """The positions of the paths path * mu, d(mu) = level - d(path),
        in the order of the mu."""
        if not deg_le(path.degree, self.level):
            raise DegreeRangeError(f"term at degree {path.degree} above level {self.level}")
        vertex = self.graph.vertex_index
        if not any(self.level):
            return np.array([vertex[path.range]])
        kernel = self.graph.word_kernel
        step = deg_sub(self.level, path.degree)
        tails, ranges, _ = kernel.level(step)
        tails = tails[ranges == vertex[path.source]]
        return kernel.rank(kernel.compose(kernel.word(path), path.degree, tails, step), self.level)

    def vector_of(self, f: CylinderFn) -> np.ndarray:
        """Coefficients of f in the (unnormalized) indicator basis: each term
        adds its coefficient at the paths that extend it, in term order, the
        order in which `refine` sums them."""
        vec = np.zeros(len(self.words))
        for p, c in f.terms.items():
            vec[self._extension_indices(p)] += c
        return vec

    def function_of(self, vec: Sequence[float]) -> CylinderFn:
        vec = np.asarray(vec, dtype=float)
        at = np.flatnonzero(vec)
        return self.function_at(at, vec[at])

    def function_at(self, at: np.ndarray, values: np.ndarray) -> CylinderFn:
        """The function with the given values at the given distinct positions."""
        basis = self.basis
        return CylinderFn(self.graph, {basis[i]: v for i, v in zip(at.tolist(), values.tolist())})

    @cached_property
    def _record_paths(self) -> list[list[str]]:
        """The ``path`` field of each position's term record, at a nonzero level."""
        return np.array(self.graph.word_kernel.ids, dtype=object)[self.words].tolist()

    def records(self, at: np.ndarray, values: np.ndarray) -> list[dict]:
        """`CylinderFn.to_records` of `function_at(at, values)`, from the rows.

        ``at`` must ascend.  At a nonzero level, position order is the
        (word, range) order the records are sorted by; exact zeros, -0.0
        too, are dropped as `CylinderFn` drops them.  Records of one
        position share its path list.
        """
        if not any(self.level):  # vertices: positions follow graph order, records names
            return self.function_at(at, values).to_records()
        keep = values != 0.0
        paths = self._record_paths
        return [{"path": paths[i], "coeff": v}
                for i, v in zip(at[keep].tolist(), values[keep].tolist())]


def level_space(spec: MeasureSpec, level: Sequence[int]) -> LevelSpace:
    level = as_degree(level, spec.graph.k)
    kernel = spec.graph.word_kernel
    words, ranges, sources = kernel.level(level)
    if spec.exact:  # Fractions, rounded path by path
        weights = np.array([float(cylinder_measure(spec, p))
                            for p in kernel.paths((words, ranges, sources), level)])
    else:
        weights = spec.level_weights(level, words, sources)
    return LevelSpace(spec.graph, spec, level, words, ranges, sources, weights)


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


def _prefix_maps(spec: MeasureSpec, lams: tuple[np.ndarray, np.ndarray, np.ndarray],
                 degree: Degree, dom: LevelSpace, cod: LevelSpace,
                 rn_tol: float = 1e-12) -> list[OperatorMatrix]:
    """S_lambda from `dom` to `cod` for each of the paths `lams` of one degree,
    given as word-kernel rows, ranges and sources: column mu, for r(mu) =
    s(lambda), goes to the row of lambda*mu with entry factor *
    sqrt(M(Z(lambda mu)) / M(Z(mu))).  All products are composed at once."""
    kernel = spec.graph.word_kernel
    words, _, sources = lams
    by_range = np.argsort(dom.ranges, kind="stable")
    starts = np.searchsorted(dom.ranges[by_range], np.arange(len(spec.graph.vertices) + 1))
    count = starts[sources + 1] - starts[sources]
    owner = np.repeat(np.arange(len(words)), count)
    cols = by_range[_expand_runs(starts[sources], count)]
    if any(cod.level):
        rows = kernel.rank(kernel.compose(words[owner], degree, dom.words[cols], dom.level), cod.level)
    else:  # vertices on level 0
        rows = cols
    vals = spec.prefix_factors(degree, words)[owner] * np.sqrt(cod.weights[rows] / dom.weights[cols])
    bad = np.flatnonzero(~(np.abs(vals - 1.0) < rn_tol))
    if len(bad):
        lam = kernel.paths(tuple(a[owner[bad[:1]]] for a in lams), degree)[0]
        raise NonConstantDerivative(f"Radon-Nikodym derivative not constant: entry "
                                    f"{vals[bad[0]]} for {lam}, {dom.basis[cols[bad[0]]]}")
    shape = (len(cod.weights), len(dom.weights))
    ends = np.cumsum(count).tolist()
    return [OperatorMatrix(dom.level, cod.level, shape, rows[a:b], cols[a:b], vals[a:b])
            for a, b in zip([0] + ends[:-1], ends)]


def s_matrix(spec: MeasureSpec, path: Path, domain_level: Sequence[int],
             rn_tol: float = 1e-12) -> OperatorMatrix:
    """S_path from level `domain_level` to `domain_level + d(path)`."""
    domain_level = as_degree(domain_level, spec.graph.k)
    row = spec.graph.word_kernel.row(path)
    return _prefix_maps(spec, row, path.degree, level_space(spec, domain_level),
                        level_space(spec, deg_add(domain_level, path.degree)), rn_tol)[0]


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
    Each level space is built once, and the S_lambda of one degree at one
    level are built together, as index maps.
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

    kernel = graph.word_kernel

    @cache
    def s_ops(degree: Degree, level: Degree) -> list[OperatorMatrix]:
        """S_lambda at `level` for every lambda of `degree`, in `enumerate_paths` order."""
        return _prefix_maps(spec, kernel.level(degree), degree, space(level),
                            space(deg_add(level, degree)))

    def with_ops(degree: Degree, level: Degree) -> list[tuple[Path, OperatorMatrix]]:
        return list(zip(enumerate_paths(graph, degree), s_ops(degree, level)))

    projs = [op.columns for op in s_ops(graph.zero_degree(), test_level)]
    at = np.arange(len(space(test_level).weights))

    # (CK1) vertex projections are orthogonal and sum to the identity
    for v, pv in zip(graph.vertices, projs):
        for w, pw in zip(graph.vertices, projs):
            target = pv if v == w else (at, np.zeros(len(at)))
            record("CK1", _deviation(_product(pv, pw), target), {"vertices": [v, w]})
    # S_v fills only the columns mu with r(mu) = v: the sum has one term per entry
    rows, vals = zip(*projs)
    total = np.max(rows, axis=0), np.sum(vals, axis=0)
    record("CK1", _deviation(total, (at, np.ones(len(at)))), {"vertices": "sum"})

    # (CK2) S_mu S_lambda = S_{mu lambda}; the composites are found by rank
    for dm in _steps(test_level):
        for dl in _steps(deg_sub(test_level, dm)):
            base, both = deg_sub(test_level, deg_add(dm, dl)), deg_add(dm, dl)
            lams = with_ops(dl, base)
            pairs = [(mu, outer, lam, op) for mu, outer in with_ops(dm, deg_add(base, dl))
                     for lam, op in lams if lam.range == mu.source]
            words = [[kernel.position[e] for e in compose(mu, lam).word] for mu, _, lam, _ in pairs]
            ranks = kernel.rank(np.array(words, dtype=np.intp).reshape(len(pairs), sum(both)), both)
            composites = s_ops(both, base)
            for (mu, outer, lam, op), at_both in zip(pairs, ranks.tolist()):
                lhs = _product(outer.columns, op.columns)
                record("CK2", _deviation(lhs, composites[at_both].columns),
                       {"mu": "".join(mu.word), "lambda": "".join(lam.word)})

    # (CK3) S_mu* S_mu = S_{s(mu)}.  An injective S_mu has S* S = its squared
    # entries on the diagonal at its columns; otherwise take the dense product.
    for dm in _steps(test_level):
        base = deg_sub(test_level, dm)
        targets = s_ops(graph.zero_degree(), base)
        for mu, op in with_ops(dm, base):
            target = targets[graph.vertex_index[mu.source]]
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
        lams = with_ops(n, base)
        for v, pv in zip(graph.vertices, projs):
            acc = np.zeros(len(at))
            for lam, op in lams:
                if lam.range == v:
                    acc += np.bincount(op.rows, op.vals ** 2, minlength=len(at))
            record("CK4", _deviation((at, acc), pv), {"n": list(n), "vertex": v})

    return CKReport(test_level, tuple(RelationCheck(r, *worst[r]) for r in worst))
