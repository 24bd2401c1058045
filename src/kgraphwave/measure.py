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

A CylinderFn is a finite real combination of cylinder indicators.  Functions
at mixed degrees are compared and integrated by refining to a common degree
level; Z(lambda) meets Z(mu) in the disjoint union of the cylinders of their
minimal common extensions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BadWeights, DegreeRangeError, DimensionMismatch, NotStronglyConnected, NotZeroOne
from .kgraph import (
    Degree,
    Form,
    KGraph,
    Path,
    as_degree,
    deg_join,
    deg_le,
    deg_sub,
    extensions,
    normal_form_rows,
    path_of,
    vertex_matrices,
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
        self._scales: dict[Degree, object] = {}  # rho^{-L} of the mass triple, per level

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
        return float(self.prefix_factors(path.degree, self.graph.word_kernel.word(path)[None, :])[0])

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
        if level not in self._scales:  # math.prod: np.prod's order, without its object-array cost
            self._scales[level] = math.prod(rho ** -np.array(level, dtype=rho.dtype))
        return self._scales[level] * x[sources] * np.multiply.reduce(w[words], axis=1)


def cylinder_measure(spec: MeasureSpec, path: Path):
    """Mass of the cylinder Z(path), one row of `MeasureSpec.level_weights`:
    a Fraction for an exact spec, a float otherwise."""
    words, _, sources = spec.graph.word_kernel.extend(path, spec.graph.zero_degree())
    return spec.level_weights(path.degree, words, sources).item(0)


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


def record_terms(graph: KGraph, records: Iterable[Mapping]) -> list[tuple[Form, float]]:
    """The terms of `CylinderFn.from_records` as (normal form, coefficient)
    pairs: one per path in order of first appearance, its coefficients
    summed in record order, the terms that sum to zero left out."""
    records = list(records)
    forms = normal_form_rows(graph, [rec["path"] for rec in records], vertex_marks=True)
    terms: dict[tuple, list] = {}
    for form, rec in zip(forms, records):
        term = terms.setdefault(form[1:3], [form, 0.0])  # the row and range name the path
        term[1] += float(rec["coeff"])
    return [(form, c) for form, c in terms.values() if c != 0.0]


class CylinderFn:
    """A finite real combination sum_lambda c_lambda * Theta_lambda."""

    def __init__(self, graph: KGraph, terms: Mapping[Path, float]):
        self.graph = graph
        self.terms = {p: float(c) for p, c in terms.items() if c != 0.0}

    @classmethod
    def indicator(cls, path: Path) -> "CylinderFn":
        return cls(path.graph, {path: 1.0})

    @classmethod
    def combination(cls, pairs: Iterable[tuple[Path, float]]) -> "CylinderFn":
        pairs = list(pairs)
        if not pairs:
            raise ValueError("empty combination has no graph")
        graph = pairs[0][0].graph
        acc: dict[Path, float] = {}
        for p, c in pairs:
            acc[p] = acc.get(p, 0.0) + float(c)
        return cls(graph, acc)

    def __add__(self, other: "CylinderFn") -> "CylinderFn":
        acc = dict(self.terms)
        for p, c in other.terms.items():
            acc[p] = acc.get(p, 0.0) + c
        return CylinderFn(self.graph, acc)

    def __sub__(self, other: "CylinderFn") -> "CylinderFn":
        return self + (other * -1.0)

    def __mul__(self, scalar: float) -> "CylinderFn":
        return CylinderFn(self.graph, {p: c * scalar for p, c in self.terms.items()})

    __rmul__ = __mul__

    def level(self) -> Degree:
        """Componentwise join of the degrees of all terms."""
        level = self.graph.zero_degree()
        for p in self.terms:
            level = deg_join(level, p.degree)
        return level

    def to_records(self) -> list[dict]:
        return [{"path": list(p.word) if p.word else ["@" + p.range], "coeff": c}
                for p, c in sorted(self.terms.items(),
                                   key=lambda item: (item[0].word, item[0].range))]

    @classmethod
    def from_records(cls, graph: KGraph, records: Iterable[Mapping]) -> "CylinderFn":
        return cls(graph, {path_of(graph, form): c for form, c in record_terms(graph, records)})

    def term_forms(self) -> list[tuple[Form, float]]:
        """The terms as (normal form, coefficient) pairs, in term order."""
        position, index = self.graph.edge_position, self.graph.vertex_index
        return [((p.degree, tuple([position[e] for e in p.word]), index[p.range], index[p.source]), c)
                for p, c in self.terms.items()]

    def __repr__(self):
        return f"CylinderFn({len(self.terms)} terms, level {self.level()})"


def refine(f: CylinderFn, level: Sequence[int]) -> CylinderFn:
    """Rewrite f so that every term sits at exactly the given degree level.

    Each indicator expands into the indicators of all its extensions to the
    level; the represented function (and hence every integral) is unchanged.
    """
    graph = f.graph
    level = as_degree(level, graph.k)
    acc: dict[Path, float] = {}
    for p, c in f.terms.items():
        if not deg_le(p.degree, level):
            raise DegreeRangeError(f"term at degree {p.degree} above level {level}")
        for q in extensions(p, deg_sub(level, p.degree)):
            acc[q] = acc.get(q, 0.0) + c
    return CylinderFn(graph, acc)


def cylinder_fns_equal(f: CylinderFn, g: CylinderFn, tol: float = 0.0) -> bool:
    """Equality as functions: agree after refinement to a common level."""
    level = deg_join(f.level(), g.level())
    rf, rg = refine(f, level), refine(g, level)
    paths = set(rf.terms) | set(rg.terms)
    return all(abs(rf.terms.get(p, 0.0) - rg.terms.get(p, 0.0)) <= tol for p in paths)


def mce(lam: Path, mu: Path) -> list[Path]:
    """Minimal common extensions: the paths of degree d(lam) v d(mu) whose
    initial segments reproduce both lam and mu, sorted.  Empty means the
    cylinders are disjoint.  They are lam's extensions to the join that
    share a rank there (a vertex index at degree 0) with mu's, by rank."""
    if lam.graph is not mu.graph:
        raise ValueError("paths live on different graphs")
    join = deg_join(lam.degree, mu.degree)
    kernel = lam.graph.word_kernel
    (words, ranges, sources), (theirs, their_ranges, _) = (
        kernel.extend(path, deg_sub(join, path.degree)) for path in (lam, mu))
    mine, theirs = ((kernel.rank(words, join), kernel.rank(theirs, join)) if any(join)
                    else (ranges, their_ranges))
    marks = np.zeros(max(mine.max(initial=-1), theirs.max(initial=-1)) + 1, dtype=bool)
    marks[theirs] = True
    keep = np.flatnonzero(marks[mine])
    keep = keep[np.argsort(mine[keep])]
    return kernel.paths((words[keep], ranges[keep], sources[keep]), join)


def inner_product(spec: MeasureSpec, f: CylinderFn, g: CylinderFn) -> float:
    """<f, g> = sum over term pairs of c_lambda c'_mu M(Z(lambda) n Z(mu))."""
    if f.graph is not g.graph:
        raise ValueError("functions live on different graphs")
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
    return float(sum(c * float(cylinder_measure(spec, p)) for p, c in f.terms.items()))


def check_zero_one(graph: KGraph):
    """Raise NotZeroOne unless every vertex matrix is 0/1-valued."""
    if any(int(m.max()) > 1 for m in vertex_matrices(graph)):
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
