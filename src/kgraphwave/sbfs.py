"""Semibranching representation operators as prefix index maps between cylinder levels.

The prefixing operator S_lambda maps functions constant on degree-L cylinders
to functions constant on degree L + d(lambda) cylinders.  In the orthonormal
bases of measure-normalized indicators it is the index map mu -> lambda*mu on
the paths with r(mu) = s(lambda), with entries rho^{d(lambda)/2} *
sqrt(M(Z(lambda mu)) / M(Z(mu))).  These are 1, and checked to be, because the
Radon-Nikodym derivative of prefixing is constant on cylinders.  With at most
one entry per column, the S_lambda of every lambda of one degree, at one
level, form one column-form table: rows[i, mu] and vals[i, mu] are the row and
entry of column mu of the i-th S_lambda, -1 and 0 where the column is empty.
`check_ck_relations` verifies the four Cuntz-Krieger relations on the tables,
each for all its cases of one degree at once; `s_matrix` reads one row of a
table as an `OperatorMatrix`, whose `.matrix` is the dense view.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache, cached_property, partial
from itertools import product
from typing import Sequence

import numpy as np

from . import jsonl
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
)
from .measure import CylinderFn, MeasureSpec


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
    def term_heads(self) -> np.ndarray:
        """The text ``{"path": [...], "coeff": `` of each position's term
        record (`jsonl`): its word, or ``@`` and its vertex at level zero."""
        if any(self.level):
            paths = jsonl.word_lists(self.graph.word_kernel.id_texts, self.words)
        else:
            paths = jsonl.strings(["@" + v for v in self.graph.vertices])[self.ranges]
        return jsonl.cells('{"path": [', paths, '], "coeff": ')

    def lines(self, at: np.ndarray, values: np.ndarray) -> str:
        """The JSON lines of `CylinderFn.to_records` of `function_at(at,
        values)`, from the rows.

        ``at`` must ascend.  At a nonzero level, position order is the
        (word, range) order the records are sorted by; at level zero they
        are sorted by vertex name.  Exact zeros, -0.0 too, are dropped as
        `CylinderFn` drops them.
        """
        keep = values != 0.0
        at, values = at[keep], values[keep]
        if not any(self.level):
            names = self.graph.vertices
            order = sorted(range(len(at)), key=lambda i: names[at[i]])
            at, values = at[order], values[order]
        return jsonl.text(self.term_heads[at], jsonl.numbers(values), "}\n")

    def records(self, at: np.ndarray, values: np.ndarray) -> list[dict]:
        """The records of `lines`: `CylinderFn.to_records` of `function_at(at, values)`."""
        return jsonl.parse(self.lines(at, values))


def level_space(spec: MeasureSpec, level: Sequence[int]) -> LevelSpace:
    level = as_degree(level, spec.graph.k)
    words, ranges, sources = spec.graph.word_kernel.level(level)
    # an exact spec's masses are Fractions, rounded one by one
    weights = np.asarray(spec.level_weights(level, words, sources), dtype=float)
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


def _matching(sources: np.ndarray, ranges: np.ndarray, vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) with sources[i] == ranges[j], i-major, j ascending."""
    by_range = np.argsort(ranges, kind="stable")
    starts = np.searchsorted(ranges[by_range], np.arange(vertices + 1))
    count = starts[sources + 1] - starts[sources]
    return np.repeat(np.arange(len(sources)), count), by_range[_expand_runs(starts[sources], count)]


def _prefix_table(spec: MeasureSpec, lams: tuple[np.ndarray, np.ndarray, np.ndarray],
                  degree: Degree, dom: LevelSpace, cod: LevelSpace,
                  rn_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """The table of S_lambda from `dom` to `cod` for the paths `lams` of one
    degree, given as word-kernel rows, ranges and sources: column mu, for
    r(mu) = s(lambda), goes to the row of lambda*mu with entry factor *
    sqrt(M(Z(lambda mu)) / M(Z(mu))).  All products are composed at once."""
    kernel = spec.graph.word_kernel
    words, _, sources = lams
    owner, cols = _matching(sources, dom.ranges, len(spec.graph.vertices))
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
    table = np.full((len(words), len(dom.weights)), -1), np.zeros((len(words), len(dom.weights)))
    table[0][owner, cols], table[1][owner, cols] = rows, vals
    return table


def s_matrix(spec: MeasureSpec, path: Path, domain_level: Sequence[int],
             rn_tol: float = 1e-12) -> OperatorMatrix:
    """S_path from level `domain_level` to `domain_level + d(path)`."""
    dom = level_space(spec, domain_level)
    cod = level_space(spec, deg_add(dom.level, path.degree))
    rows, vals = _prefix_table(spec, spec.graph.word_kernel.row(path), path.degree, dom, cod, rn_tol)
    cols = np.flatnonzero(rows[0] >= 0)
    return OperatorMatrix(dom.level, cod.level, (len(cod.weights), len(dom.weights)),
                          rows[0, cols], cols, vals[0, cols])


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


def _product(outer: tuple, i: np.ndarray, inner: tuple, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """outer[i[p]] @ inner[j[p]] per case p, on column-form tables: each entry
    of inner goes on through the column of outer at its row, a single product."""
    (ro, vo), (ri, vi) = outer, (inner[0][j], inner[1][j])
    at = i[:, None], ri
    return np.where(ri >= 0, ro[at], -1), np.where(ri >= 0, vo[at] * vi, 0.0)


def _deviation(a: tuple, b: tuple) -> np.ndarray:
    """max |A - B| per case, over the last axis of column forms: per column
    |a - b| where the entries share a row, else the larger |entry|."""
    (ra, va), (rb, vb) = a, b
    dev = np.where(ra == rb, np.abs(va - vb), np.maximum(np.abs(va), np.abs(vb)))
    return np.max(dev, axis=-1, initial=0.0)


def check_ck_relations(spec: MeasureSpec, graph: KGraph,
                       test_level: Sequence[int]) -> CKReport:
    """Verify (CK1)-(CK4) as matrix identities on cylinder level spaces.

    All compositions are arranged to land at degree `test_level`; the report
    carries the worst absolute deviation per relation and the first case
    where it occurred.  Each level space is built once, and so is the table
    of the S_lambda of one degree at one level; each relation is checked for
    all its cases of one degree at once.
    """
    if graph is not spec.graph:
        raise ValueError("measure and graph live on different graphs")
    test_level = as_degree(test_level, graph.k)
    if any(t < 1 for t in test_level):
        raise LevelTooSmall(f"test level {test_level} must be >= 1 in every color")
    worst = {relation: (0.0, {}) for relation in ("CK1", "CK2", "CK3", "CK4")}

    def record(relation: str, devs: np.ndarray, witness):
        """Keep the first case with the largest deviation; ``witness(p)`` names
        case p.  No list of cases is empty: a measured graph has no sources."""
        p = int(np.argmax(devs))
        if devs[p] > worst[relation][0]:
            worst[relation] = (float(devs[p]), witness(p))

    space, kernel, vertices = cache(partial(level_space, spec)), graph.word_kernel, graph.vertices

    @cache
    def table(degree: Degree, level: Degree) -> tuple[np.ndarray, np.ndarray]:
        """S_lambda at `level` for every lambda of `degree`, in `enumerate_paths` order."""
        return _prefix_table(spec, kernel.level(degree), degree, space(level), space(deg_add(level, degree)))

    def word(degree: Degree, i: int) -> str:
        return "".join(kernel.ids[e] for e in kernel.level(degree)[0][i])

    projs = table(graph.zero_degree(), test_level)
    at = np.arange(projs[0].shape[1])

    # (CK1) vertex projections are orthogonal and sum to the identity
    for v in range(len(vertices)):
        target = projs[0][v], np.where(np.arange(len(vertices))[:, None] == v, projs[1][v], 0.0)
        lhs = _product(projs, np.full(len(vertices), v), projs, np.arange(len(vertices)))
        record("CK1", _deviation(lhs, target), lambda w: {"vertices": [vertices[v], vertices[w]]})
    # S_v fills only the columns mu with r(mu) = v: the sum has one term per entry
    total = projs[0].max(axis=0, keepdims=True), projs[1].sum(axis=0, keepdims=True)
    record("CK1", _deviation(total, (at, np.ones(len(at)))), lambda _: {"vertices": "sum"})

    for d in _steps(test_level):
        mus = kernel.level(d)
        # (CK2) S_mu S_lambda = S_{mu lambda} for d(mu) = d and each lambda with
        # r(lambda) = s(mu); the composites are found by rank
        for dl in _steps(deg_sub(test_level, d)):
            base, both = deg_sub(test_level, deg_add(d, dl)), deg_add(d, dl)
            lams = kernel.level(dl)
            i, j = _matching(mus[2], lams[1], len(vertices))
            lhs = _product(table(d, deg_add(base, dl)), i, table(dl, base), j)
            at_both = kernel.rank(kernel.compose(mus[0][i], d, lams[0][j], dl), both)
            rows, vals = table(both, base)
            record("CK2", _deviation(lhs, (rows[at_both], vals[at_both])),
                   lambda p: {"mu": word(d, i[p]), "lambda": word(dl, j[p])})
        # (CK3) S_mu* S_mu = S_{s(mu)}.  S* S holds the squared entries on its
        # diagonal and, where two columns share a row, their product: the
        # largest such product in a row is that of its two largest entries.
        base = deg_sub(test_level, d)
        rows, vals = table(d, base)
        targets = table(graph.zero_degree(), base)
        dev = _deviation((np.arange(rows.shape[1]), vals ** 2), (targets[0][mus[2]], targets[1][mus[2]]))
        lam, col = np.nonzero(rows >= 0)
        row, val = rows[lam, col], vals[lam, col]
        key, size = lam * len(at) + row, np.abs(val)
        order = np.lexsort((-size, key))  # by case and row, the largest entry first
        key, size, mu = key[order], size[order], lam[order]
        shared = np.flatnonzero(key[1:] == key[:-1])
        np.maximum.at(dev, mu[shared], size[shared] * size[shared + 1])
        record("CK3", dev, lambda p: {"mu": word(d, p)})
        # (CK4) S_v = sum over v Lambda^d of S_lambda S_lambda*.  With one entry
        # per column S S* is diagonal: the squared entries summed at their rows.
        acc = np.zeros(projs[1].shape)
        np.add.at(acc, (mus[1][lam], row), val ** 2)
        record("CK4", _deviation((at, acc), projs), lambda v: {"n": list(d), "vertex": vertices[v]})

    return CKReport(test_level, tuple(RelationCheck(r, *worst[r]) for r in worst))
