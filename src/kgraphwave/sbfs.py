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
The pairs (lambda, mu) come from the level's range index (`WordKernel.matching`).

`check_ck_relations` counts the entries of every table up to its test level
(`ck_table_entries`, against `CK_ENTRY_LIMIT`), builds each once, and checks
the four Cuntz-Krieger relations on them, each for all its cases of one
degree at once: (CK1) in one pass over the entries of the vertex
projections, (CK2) with its cases and composites read off the tables.
`s_matrix` reads one row of a table as an `OperatorMatrix`, whose `.matrix`
is the dense view.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cache, cached_property, partial
from itertools import product
from typing import Sequence

import numpy as np

from . import jsonl
from .errors import DegreeRangeError, LevelTooSmall, NonConstantDerivative, TooLarge
from .kgraph import (
    Degree,
    KGraph,
    Path,
    _same_graph,
    as_degree,
    compose,
    deg_add,
    deg_le,
    deg_sub,
    form_of,
    path_counts,
    row_forms,
)
from .measure import CylinderFn, MeasureSpec, extension_rows, refine_rows


@dataclass(frozen=True)
class LevelSpace:
    """The ordered basis of degree-`level` cylinder indicators with their
    masses; Theta_lambda / sqrt(M(Z(lambda))) is the attached orthonormal
    basis.

    The paths are held as word-kernel rows (`KGraph.word_kernel`) with the
    range and source vertex index of each, in `WordKernel.level` order;
    functions on the space are built from the rows, and ``basis`` turns
    them into `Path` objects on first access.
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

    def vector_of(self, f: CylinderFn) -> np.ndarray:
        """Coefficients of f in the (unnormalized) indicator basis: each term
        adds its coefficient at the paths that extend it, as `refine` sums
        them (`refine_rows`)."""
        _same_graph("function and level space", f.graph, self.graph)
        return refine_rows(f, self.level, len(self.words))[-1]

    def function_of(self, vec: Sequence[float]) -> CylinderFn:
        vec = np.asarray(vec, dtype=float)
        at = np.flatnonzero(vec)
        return self.function_at(at, vec[at])

    def function_at(self, at: np.ndarray, values: np.ndarray) -> CylinderFn:
        """The function with the given values at the given distinct positions."""
        forms = row_forms((self.words[at], self.ranges[at], self.sources[at]), self.level)
        return CylinderFn.from_forms(self.graph, zip(forms, values.tolist()))

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


def _prefix_table(spec: MeasureSpec, lams: tuple[np.ndarray, np.ndarray, np.ndarray],
                  factors: np.ndarray, degree: Degree, dom: LevelSpace, cod: LevelSpace,
                  rn_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """The table of S_lambda from `dom` to `cod` for the paths `lams` of one
    degree, given as word-kernel rows, ranges and sources, with their
    `MeasureSpec.prefix_factors`: column mu, for r(mu) = s(lambda), goes to
    the row of lambda*mu with entry factor * sqrt(M(Z(lambda mu)) / M(Z(mu))).
    Its nonempty entries, i-major and mu ascending, are the pairs of
    `WordKernel.matching`.  All products are composed at once."""
    kernel = spec.graph.word_kernel
    words, _, sources = lams
    owner, cols = kernel.matching(sources, dom.level)
    if any(degree):
        rows = kernel.rank(kernel.compose(words[owner], degree, dom.words[cols], dom.level), cod.level)
    else:  # a vertex times mu is mu
        rows = cols
    vals = factors[owner] * np.sqrt(cod.weights[rows] / dom.weights[cols])
    good = np.abs(vals - 1.0) < rn_tol
    if not good.all():
        bad = int(np.argmin(good))
        lam = kernel.paths(tuple(a[owner[bad:bad + 1]] for a in lams), degree)[0]
        raise NonConstantDerivative(f"Radon-Nikodym derivative not constant: entry "
                                    f"{vals[bad]} for {lam}, {dom.basis[cols[bad]]}")
    table = np.full((len(words), len(dom.weights)), -1), np.zeros((len(words), len(dom.weights)))
    table[0][owner, cols], table[1][owner, cols] = rows, vals
    return table


def s_matrix(spec: MeasureSpec, path: Path, domain_level: Sequence[int],
             rn_tol: float = 1e-12) -> OperatorMatrix:
    """S_path from level `domain_level` to `domain_level + d(path)`."""
    dom = level_space(spec, domain_level)
    cod = level_space(spec, deg_add(dom.level, path.degree))
    lams = extension_rows(spec.graph, [form_of(path)], path.degree)[0]
    rows, vals = _prefix_table(spec, lams, spec.prefix_factors(path.degree, lams[0]),
                               path.degree, dom, cod, rn_tol)
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
    factor = spec.prefix_factor(path)  # distinct terms mu give distinct path * mu
    return CylinderFn(spec.graph, {compose(path, mu): factor * c
                                   for mu, c in f.terms.items() if mu.range == path.source})


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


# The CK check holds every prefix table it builds until it returns: at most
# this many entries in all, 16 bytes each (a row index and a value).
CK_ENTRY_LIMIT = 2 ** 24


def ck_table_entries(graph: KGraph, test_level: Sequence[int]) -> int:
    """The entries of the prefix tables `check_ck_relations` holds at
    `test_level` T, counted, not built: it builds the table of every degree x
    at every level L with x + L <= T, |Lambda^x| * |Lambda^L| entries
    (`path_counts`).  An exact integer.  No other array of the check has more
    entries than its largest table, save the word rows: |L| edge indices
    per path of a level L."""
    counts = path_counts(graph, as_degree(test_level, graph.k))
    below = counts  # below[y]: the paths of all degrees <= y
    for axis in range(graph.k):
        below = np.cumsum(below, axis=axis)
    return int((counts * np.flip(below)).sum())


def _steps(upto: Degree) -> list[Degree]:
    """The nonzero degrees up to `upto`, in product order."""
    return [d for d in product(*(range(t + 1) for t in upto)) if any(d)]


def _prefix_tables(spec: MeasureSpec, test_level: Degree) -> dict[tuple[Degree, Degree], tuple]:
    """The table of the S_lambda of every degree x at every level L with
    x + L <= `test_level`, keyed (x, L), with one `MeasureSpec.prefix_factors`
    call per degree.  Above `CK_ENTRY_LIMIT` entries (`ck_table_entries`) it
    raises TooLarge before it builds a level.

    The order is fixed: the vertex projections at the test level; then per
    nonzero degree d, for each degree dl, the tables of S_mu (d(mu) = d),
    S_lambda (d(lambda) = dl) and S_{mu lambda} that (CK2) multiplies, then
    those of S_mu and S_{s(mu)} that (CK3) reads.  A derivative that is not
    constant raises at the first table in this order that shows it."""
    graph, kernel, zero = spec.graph, spec.graph.word_kernel, spec.graph.zero_degree()
    entries = ck_table_entries(graph, test_level)
    if entries > CK_ENTRY_LIMIT:
        raise TooLarge(f"the CK check at level {test_level} holds {entries} prefix-table entries, "
                       f"above the limit of {CK_ENTRY_LIMIT}")
    space, tables = cache(partial(level_space, spec)), {}
    factors = cache(lambda degree: spec.prefix_factors(degree, kernel.level(degree)[0]))

    def build(degree: Degree, level: Degree):
        if (degree, level) not in tables:
            tables[degree, level] = _prefix_table(spec, kernel.level(degree), factors(degree), degree,
                                                  space(level), space(deg_add(level, degree)))

    build(zero, test_level)
    for d in _steps(test_level):
        rest = deg_sub(test_level, d)
        for dl in _steps(rest):
            build(d, rest), build(dl, deg_sub(rest, dl)), build(deg_add(d, dl), deg_sub(rest, dl))
        build(d, rest), build(zero, rest)
    return tables


def _product(outer: tuple, i: np.ndarray, inner: tuple, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """outer[i[p]] @ inner[j[p]] per case p, on column-form tables: each entry
    of inner goes on through the column of outer at its row, a single product."""
    (ro, vo), (ri, vi) = outer, (inner[0][j], inner[1][j])
    at = i[:, None], ri
    return np.where(ri >= 0, ro[at], -1), np.where(ri >= 0, vo[at] * vi, 0.0)


def _gaps(a: tuple, b: tuple) -> np.ndarray:
    """|A - B| entry by entry, on column forms: |a - b| where the entries
    share a row, else the larger |entry|."""
    (ra, va), (rb, vb) = a, b
    return np.where(ra == rb, np.abs(va - vb), np.maximum(np.abs(va), np.abs(vb)))


def _deviation(a: tuple, b: tuple) -> np.ndarray:
    """max |A - B| per case, over the last axis of column forms."""
    return np.max(_gaps(a, b), axis=-1, initial=0.0)


def check_ck_relations(spec: MeasureSpec, graph: KGraph,
                       test_level: Sequence[int]) -> CKReport:
    """Verify (CK1)-(CK4) as matrix identities on cylinder level spaces.

    All compositions are arranged to land at degree `test_level`; the report
    carries the worst absolute deviation per relation and the first case
    where it occurred.  The relations read the prefix tables
    (`_prefix_tables`), each for all its cases of one degree at once.
    """
    _same_graph("measure and graph", graph, spec.graph)
    test_level = as_degree(test_level, graph.k)
    if any(t < 1 for t in test_level):
        raise LevelTooSmall(f"test level {test_level} must be >= 1 in every color")
    tables, kernel, vertices = _prefix_tables(spec, test_level), graph.word_kernel, graph.vertices
    worst = {relation: (0.0, {}) for relation in ("CK1", "CK2", "CK3", "CK4")}

    def record(relation: str, devs: np.ndarray, witness):
        """Keep the first case with the largest deviation; ``witness(p)`` names
        case p.  No list of cases is empty: a measured graph has no sources."""
        p = int(np.argmax(devs))
        if devs[p] > worst[relation][0]:
            worst[relation] = (float(devs[p]), witness(p))

    def word(degree: Degree, i: int) -> str:
        return "".join(kernel.ids[e] for e in kernel.level(degree)[0][i])

    # (CK1) S_v S_w = [v = w] S_v, and the S_v sum to 1.  Column mu of the
    # projections holds one entry, (row, val)[mu] of S_{r(mu)}, so S_v S_w
    # differs from [v = w] S_v at mu only for w = r(mu): there it holds
    # (row, val)[row[mu]] times val[mu] for v = r(row[mu]), and nothing else.
    zero, n, ranges = graph.zero_degree(), len(vertices), kernel.level(test_level)[1]
    projs, at = tables[zero, test_level], np.arange(len(ranges))
    row, val = projs[0][ranges, at], projs[1][ranges, at]
    outer, same = ranges[row], ranges[row] == ranges
    dev = np.zeros(n * n)
    np.maximum.at(dev, outer * n + ranges, _gaps((row[row], val[row] * val),
                                                 (np.where(same, row, -1), np.where(same, val, 0.0))))
    np.maximum.at(dev, (ranges * (n + 1))[~same], np.abs(val[~same]))  # (w, w) misses (row, val)[mu]
    record("CK1", dev, lambda p: {"vertices": [vertices[p // n], vertices[p % n]]})
    record("CK1", _deviation((row[None], val[None]), (at, np.ones(len(at)))), lambda _: {"vertices": "sum"})

    for d in _steps(test_level):
        mus, rest = kernel.level(d), deg_sub(test_level, d)
        # (CK2) S_mu S_lambda = S_{mu lambda} for d(mu) = d and each lambda with
        # r(lambda) = s(mu).  The table of S_mu at level d(lambda) holds the
        # cases, mu-major and lambda ascending, at the rows of the composites.
        for dl in _steps(rest):
            base, composites = deg_sub(rest, dl), tables[d, dl][0]
            i, j = np.nonzero(composites >= 0)
            lhs = _product(tables[d, rest], i, tables[dl, base], j)
            rows, vals = tables[deg_add(d, dl), base]
            at_both = composites[i, j]
            record("CK2", _deviation(lhs, (rows[at_both], vals[at_both])),
                   lambda p: {"mu": word(d, i[p]), "lambda": word(dl, j[p])})
        # (CK3) S_mu* S_mu = S_{s(mu)}.  S* S holds the squared entries on its
        # diagonal and, where two columns share a row, their product: the
        # largest such product in a row is that of its two largest entries.
        (rows, vals), targets = tables[d, rest], tables[zero, rest]
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
