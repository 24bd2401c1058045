"""Measures on the infinite path space and finite cylinder functions.

Every measure is one model, a triple (rho, x, w): a spectral radius rho_i
per color, a weight x_v per vertex and a weight w_e per edge give the
cylinder Z(lambda) the mass

    M(Z(lambda)) = rho^{-d(lambda)} * x_{s(lambda)} * prod_{e in lambda} w_e.

The Perron-Frobenius measure of a strongly connected k-graph takes rho and x
from its PF data and w = 1; the Bernoulli measure on the 1-vertex bouquet
takes rho = 1, x = 1 and the letter weights as w.  Either way prefixing by
lambda has the constant Radon-Nikodym derivative rho^{-d(lambda)} * prod w_e,
which is what makes every wavelet construction downstream work.

A CylinderFn is a finite real combination of cylinder indicators, held as
the normal forms of its terms.  Functions at mixed degrees are compared by
refining to a common level (`refine_rows`); Z(lambda) meets Z(mu) in the
disjoint union of the cylinders of their minimal common extensions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from numbers import Rational
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BadWeights, DegreeRangeError, DimensionMismatch, NotStronglyConnected, NotZeroOne
from .kgraph import (
    Degree,
    Form,
    KGraph,
    Path,
    _same_graph,
    as_degree,
    deg_add,
    deg_join,
    deg_le,
    deg_sub,
    form_of,
    is_zero_one,
    normal_form_rows,
    path_of,
    row_forms,
)
from .perron import PFData, is_strongly_connected, pf_data, rational_pf_data


class MeasureSpec:
    """The cylinder-set measure of a triple (rho, x, w) on a graph, held as
    float arrays ``rho`` (per color), ``x`` (per vertex, in graph order) and
    ``w`` (per edge, in id order, the order of word-kernel entries).

    An exact spec also holds the triple as exact rationals (Fractions, and
    int edge weights 1), and its masses are Fractions; prefix factors read
    the float triple either way.  ``kind``, ``pf`` and ``weights`` record
    which constructor made the triple: `perron_frobenius` or `bernoulli`."""

    PF = "perron-frobenius"
    BERNOULLI = "bernoulli"

    def __init__(self, kind: str, graph: KGraph, triple: tuple, exact_triple: tuple | None = None,
                 pf: PFData | None = None, weights: Sequence | None = None):
        self.kind, self.graph, self.pf, self.weights = kind, graph, pf, weights
        self.exact = exact_triple is not None
        self.rho, self.x, self.w = (np.asarray(a, dtype=float) for a in triple)
        self._masses = (self.rho, self.x, self.w) if exact_triple is None else \
            tuple(np.array(a, dtype=object) for a in exact_triple)
        self._w_root = np.array([v ** -0.5 for v in self.w.tolist()])

    @classmethod
    def perron_frobenius(cls, graph: KGraph, pf: PFData | None = None,
                         exact: bool = False) -> "MeasureSpec":
        """rho and x from the PF data, w = 1; ``exact`` needs integer
        spectral radii."""
        if pf is None:
            pf = pf_data(graph)  # checks strong connectivity itself
        elif not is_strongly_connected(graph):
            raise NotStronglyConnected("PF measure needs a strongly connected graph")
        if len(pf.rho) != graph.k or len(pf.x_lambda) != len(graph.vertices):
            raise DimensionMismatch(
                f"PF data with {len(pf.rho)} radii and {len(pf.x_lambda)} vertex entries "
                f"does not fit a graph of {graph.k} colors and {len(graph.vertices)} vertices")
        exact_triple = None
        if exact:
            rho, x = rational_pf_data(graph, pf)
            exact_triple = [Fraction(r) for r in rho], x, [1] * len(graph.edge_ids)
        return cls(cls.PF, graph, (pf.rho, pf.x_lambda, np.ones(len(graph.edge_ids))), exact_triple, pf=pf)

    @classmethod
    def bernoulli(cls, graph: KGraph, weights: Sequence[float],
                  exact: bool = False) -> "MeasureSpec":
        """rho = 1 and x = 1 on the bouquet, the letter weights as w, in
        letter (edge id) order; ``exact`` needs rational weights."""
        if len(graph.vertices) != 1 or graph.k != 1:
            raise BadWeights("Bernoulli measure lives on the 1-vertex, 1-color bouquet")
        if len(weights) != len(graph.edge_ids):
            raise BadWeights(f"need {len(graph.edge_ids)} weights, got {len(weights)}")
        wsum = sum(Fraction(w) if isinstance(w, Rational) else w for w in weights)
        if any(not 0 < float(w) < 1 for w in weights) or abs(float(wsum) - 1.0) > 1e-12:
            raise BadWeights("weights must lie in (0,1) and sum to 1")
        if exact and not all(isinstance(w, Rational) for w in weights):
            raise BadWeights("exact Bernoulli mode needs rational weights")
        weights = tuple(weights)
        one = (Fraction(1),)
        exact_triple = (one, one, [Fraction(w) for w in weights]) if exact else None
        return cls(cls.BERNOULLI, graph, ((1.0,), (1.0,), weights), exact_triple, weights=weights)

    def prefix_factor(self, path: Path) -> float:
        """The constant value of (d(M o sigma_path)/dM)^{-1/2} on Z(s(path)):
        the isometry normalization of the prefixing operator."""
        return float(self.prefix_factors(path.degree, np.array([form_of(path)[1]], dtype=np.intp))[0])

    def prefix_factors(self, degree: Degree, words: np.ndarray) -> np.ndarray:
        """`prefix_factor` of each path of one degree, from word-kernel rows:
        rho^{d/2} times the product of the edges' w^{-1/2}, from the float
        triple."""
        return np.prod(self.rho ** (np.asarray(degree) / 2.0)) * np.multiply.reduce(self._w_root[words], axis=1)

    def level_weights(self, level: Degree, words: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """`cylinder_measure` of each path of one level, from word-kernel rows
        and source vertex indices: rho^{-L} * x[source] times the product of
        the edges' w.  Fractions, in an object array, for an exact spec.

        Each product runs left to right, as a reduction by np.multiply does."""
        rho, x, w = self._masses
        # math.prod: np.prod's order, without its object-array cost
        return math.prod(rho ** -np.array(level, dtype=rho.dtype)) * x[sources] * np.multiply.reduce(w[words], axis=1)


def cylinder_measure(spec: MeasureSpec, path: Path):
    """Mass of the cylinder Z(path), one row of `MeasureSpec.level_weights`:
    a Fraction for an exact spec, a float otherwise."""
    _same_graph("measure and path", spec.graph, path.graph)
    return cylinder_measures(spec, [form_of(path)])[0]


def forms_by_degree(forms: Sequence[Form]) -> dict[Degree, tuple[list[int], np.ndarray, np.ndarray]]:
    """The normal forms of each degree, degrees in order of first appearance:
    their positions in `forms`, their rows and their sources."""
    groups: dict[Degree, list[int]] = {}
    for i, form in enumerate(forms):
        groups.setdefault(form[0], []).append(i)
    return {degree: (group, np.array([forms[i][1] for i in group], dtype=np.intp),
                     np.array([forms[i][3] for i in group], dtype=np.intp))
            for degree, group in groups.items()}


def cylinder_measures(spec: MeasureSpec, forms: Sequence[Form]) -> list:
    """`cylinder_measure` of each normal form (`normal_form_rows`), with one
    `MeasureSpec.level_weights` call per degree."""
    masses = {}
    for degree, (group, words, sources) in forms_by_degree(forms).items():
        masses.update(zip(group, spec.level_weights(degree, words, sources).tolist()))
    return [masses[i] for i in range(len(forms))]


def extension_rows(graph: KGraph, forms: Sequence[Form], level: Degree) -> tuple:
    """The extensions to `level` of the paths of these normal forms, each
    path's in `WordKernel.level` order, those of one degree composed at
    once: their rows, ranges and sources, and the index of the path each extends."""
    kernel, empty = graph.word_kernel, np.empty(0, dtype=np.intp)
    words, sources, owner = [empty.reshape(0, sum(level))], [empty], [empty]
    for degree, (group, heads, head_sources) in forms_by_degree(forms).items():
        if not deg_le(degree, level):  # the first group of a bad degree holds the first bad term
            raise DegreeRangeError(f"term at degree {degree} above level {level}")
        step = deg_sub(level, degree)
        tails, _, tail_sources = kernel.level(step)
        rows, cols = kernel.matching(head_sources, step)
        words.append(kernel.compose(heads[rows], degree, tails[cols], step))
        sources.append(tail_sources[cols])
        owner.append(np.array(group, dtype=np.intp)[rows])
    words, sources, owner = (np.concatenate(parts) for parts in (words, sources, owner))
    return (words, np.array([form[2] for form in forms], dtype=np.intp)[owner], sources), owner


def refine_rows(f: "CylinderFn", level: Degree, size: int | None = None) -> tuple:
    """The one refinement engine: the extensions of f's terms (`extension_rows`);
    ``by_term``, the order that lists them term after term; and f's
    coefficients added in that order at their positions in the level
    (`WordKernel.rank`; vertex indices on level 0) into ``size`` entries, or
    by default into one entry per distinct position, in increasing order, with
    ``first``, the entry of ``by_term`` where each is first reached."""
    rows, owner = extension_rows(f.graph, list(f.forms), level)
    by_term = np.argsort(owner, kind="stable")
    slots, first = (f.graph.word_kernel.rank(rows[0], level) if any(level) else rows[2])[by_term], None
    if size is None:  # a stable sort: no np.unique, and nothing as large as the level
        order = np.argsort(slots, kind="stable")
        new = np.diff(slots[order], prepend=-1) != 0  # positions are >= 0
        slots[order], first, size = np.cumsum(new) - 1, order[new], int(new.sum())
    vec = np.zeros(size)
    np.add.at(vec, slots, np.array(list(f.forms.values()))[owner[by_term]])
    return rows, by_term, first, vec


class CylinderFn:
    """A finite real combination sum_lambda c_lambda * Theta_lambda: ``forms``
    maps the normal form (`form_of`) of each term to its nonzero coefficient,
    in term order; ``terms``, the map keyed by `Path`, is built on first read."""

    def __init__(self, graph: KGraph, terms: Mapping[Path, float]):
        _same_graph("function and paths", graph, *(p.graph for p in terms))
        self.graph, self.forms = graph, {form_of(p): float(c) for p, c in terms.items() if c != 0.0}

    @classmethod
    def from_forms(cls, graph: KGraph, pairs: Iterable[tuple[Form, float]]) -> "CylinderFn":
        """The function of (normal form, coefficient) pairs: the coefficients
        of a repeated form summed in order, the zero sums left out."""
        acc: dict = {}
        for form, c in pairs:
            acc[form] = acc.get(form, 0.0) + float(c)
        f = cls(graph, {})
        f.forms = {form: c for form, c in acc.items() if c != 0.0}
        return f

    @cached_property
    def terms(self) -> dict[Path, float]:
        return {path_of(self.graph, form): c for form, c in self.forms.items()}

    @classmethod
    def indicator(cls, path: Path) -> "CylinderFn":
        return cls(path.graph, {path: 1.0})

    @classmethod
    def combination(cls, pairs: Iterable[tuple[Path, float]]) -> "CylinderFn":
        pairs = list(pairs)
        if not pairs:
            raise ValueError("empty combination has no graph")
        _same_graph("function and paths", *(p.graph for p, _ in pairs))
        return cls.from_forms(pairs[0][0].graph, ((form_of(p), c) for p, c in pairs))

    def __add__(self, other: "CylinderFn") -> "CylinderFn":
        _same_graph("functions", self.graph, other.graph)
        return CylinderFn.from_forms(self.graph, [*self.forms.items(), *other.forms.items()])

    def __sub__(self, other: "CylinderFn") -> "CylinderFn":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "CylinderFn":
        return CylinderFn.from_forms(self.graph, ((form, c * scalar) for form, c in self.forms.items()))

    __rmul__ = __mul__

    def level(self) -> Degree:
        """Componentwise join of the degrees of all terms."""
        return reduce(deg_join, (form[0] for form in self.forms), self.graph.zero_degree())

    def to_records(self) -> list[dict]:
        """One record per term, by (word, range): rows sort as their words do."""
        ids, vertices = self.graph.edge_ids, self.graph.vertices
        return [{"path": [ids[e] for e in row] or ["@" + vertices[r]], "coeff": c}
                for (_, row, r, _), c in sorted(self.forms.items(),
                                                key=lambda item: (item[0][1], vertices[item[0][2]]))]

    @classmethod
    def from_records(cls, graph: KGraph, records: Iterable[Mapping]) -> "CylinderFn":
        """The function of records ``{"path": [...], "coeff": c}`` (``["@v"]``
        the vertex v): one term per path, its coefficients summed in order."""
        records = list(records)
        forms = normal_form_rows(graph, [rec["path"] for rec in records], vertex_marks=True)
        return cls.from_forms(graph, zip(forms, (rec["coeff"] for rec in records)))

    def __repr__(self):
        return f"CylinderFn({len(self.forms)} terms, level {self.level()})"


def refine(f: CylinderFn, level: Sequence[int]) -> CylinderFn:
    """Rewrite f so that every term sits at exactly the given degree level.

    Each indicator expands into the indicators of all its extensions to the
    level; the represented function (and hence every integral) is unchanged.
    The terms come in order of first appearance, term after term.
    """
    level = as_degree(level, f.graph.k)
    rows, by_term, first, vec = refine_rows(f, level)
    new = np.argsort(first)  # the distinct positions in order of first appearance
    return CylinderFn.from_forms(f.graph, zip(row_forms(tuple(a[by_term[first[new]]] for a in rows), level),
                                              vec[new].tolist()))


def mce(lam: Path, mu: Path) -> list[Path]:
    """Minimal common extensions: the paths of degree d(lam) v d(mu) whose
    initial segments reproduce both lam and mu, sorted.  Empty means the
    cylinders are disjoint.  They are lam's extensions to the join that
    share a rank there (a vertex index at degree 0) with mu's, by rank."""
    _same_graph("paths", lam.graph, mu.graph)
    graph, join = lam.graph, deg_join(lam.degree, mu.degree)
    rows, _ = extension_rows(graph, [form_of(lam), form_of(mu)], join)  # lam's rows, then mu's
    at = graph.word_kernel.rank(rows[0], join) if any(join) else rows[2]
    order = np.argsort(at, kind="stable")  # a rank both reach: lam's row, then mu's
    keep = order[:-1][at[order[:-1]] == at[order[1:]]]
    return graph.word_kernel.paths(tuple(a[keep] for a in rows), join)


def extensions(path: Path, degree: Sequence[int]) -> list[Path]:
    """All paths ``path * mu`` with d(mu) = degree, in lexicographic mu order."""
    level = deg_add(path.degree, as_degree(degree, path.graph.k))
    return path.graph.word_kernel.paths(extension_rows(path.graph, [form_of(path)], level)[0], level)


def inner_product(spec: MeasureSpec, f: CylinderFn, g: CylinderFn) -> float:
    """<f, g> = sum over term pairs of c_lambda c'_mu M(Z(lambda) n Z(mu))."""
    _same_graph("functions", f.graph, g.graph)
    total = 0.0
    for lam, cf in f.terms.items():
        for mu, cg in g.terms.items():
            for tau in mce(lam, mu):
                total += cf * cg * float(cylinder_measure(spec, tau))
    return total


def norm(spec: MeasureSpec, f: CylinderFn) -> float:
    return float(np.sqrt(max(inner_product(spec, f, f), 0.0)))


def integral(spec: MeasureSpec, f: CylinderFn) -> float:
    """integral of f dM = sum of coefficients weighted by cylinder mass."""
    _same_graph("measure and function", spec.graph, f.graph)
    return float(sum(c * float(m) for c, m in zip(f.forms.values(), cylinder_measures(spec, list(f.forms)))))


def check_zero_one(graph: KGraph):
    """Raise NotZeroOne unless every vertex matrix is 0/1-valued."""
    if not is_zero_one(graph):
        raise NotZeroOne("embedding requires all vertex matrices to be 0/1-valued")


def embed_to_interval(graph: KGraph, path: Path) -> tuple[Fraction, Fraction]:
    """The N-adic interval of Z(path) under the vertex-itinerary embedding.

    Digits are the range vertex followed by the source vertex after each
    unit-degree step of the normal-form word, with vertices numbered by
    graph order; N is the vertex count.  Requires 0/1 vertex matrices so
    that the itinerary determines the path.
    """
    check_zero_one(graph)
    return embed_interval(graph, graph.vertex_index[path.range], [graph.edge_position[e] for e in path.word])


def embed_interval(graph: KGraph, r: int, row: Sequence[int]) -> tuple[Fraction, Fraction]:
    """`embed_to_interval` of the path with range vertex index r and these
    edge indices, on a graph that `check_zero_one` passes: its m + 1 digits,
    read as one integer D by Horner's rule, give [D, D + 1] / N^(m+1)."""
    n, (_, source, _) = len(graph.vertices), graph._edge_lists
    for e in row:
        r = r * n + source[e]
    return Fraction(r, n ** (len(row) + 1)), Fraction(r + 1, n ** (len(row) + 1))
