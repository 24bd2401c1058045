"""Measures on the infinite path space and finite cylinder functions.

Two measure kinds are supported.  The Perron-Frobenius measure of a strongly
connected k-graph assigns a cylinder Z(lambda) the mass
prod_i rho_i**(-d_i) * x_{s(lambda)}; the Bernoulli measure lives on the
1-vertex bouquet graph and assigns a word cylinder the product of its letter
weights.  Both have constant Radon-Nikodym derivative under prefixing, which
is what makes every wavelet construction downstream work.

A CylinderFn is a finite real combination of cylinder indicators.  Functions
at mixed degrees are compared and integrated by refining to a common degree
level; Z(lambda) meets Z(mu) in the disjoint union of the cylinders of their
minimal common extensions.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BadWeights, DegreeRangeError, DimensionMismatch, NotStronglyConnected, NotZeroOne
from .kgraph import (
    Degree,
    KGraph,
    Path,
    as_degree,
    compose,
    deg_join,
    deg_le,
    deg_sub,
    enumerate_paths,
    normal_form,
    segment,
    vertex_matrices,
    vertex_path,
)
from .perron import PFData, is_strongly_connected, pf_data, rational_pf_data


class MeasureSpec:
    """A cylinder-set measure: Perron-Frobenius on any strongly connected
    graph, or Bernoulli on a bouquet.  ``exact=True`` switches
    ``cylinder_measure`` to Fraction arithmetic (PF kind requires integer
    spectral radii for that)."""

    PF = "perron-frobenius"
    BERNOULLI = "bernoulli"

    def __init__(self, kind: str, graph: KGraph, pf: PFData | None = None,
                 weights: Sequence[float] | None = None, exact: bool = False):
        self.kind = kind
        self.graph = graph
        self.exact = exact
        self.pf = pf
        self.weights = None
        self._exact_rho = None
        self._exact_x = None
        if kind == self.PF:
            if pf is None:
                raise ValueError("PF measure needs PFData")
            if len(pf.rho) != graph.k or len(pf.x_lambda) != len(graph.vertices):
                raise DimensionMismatch(
                    f"PF data with {len(pf.rho)} radii and {len(pf.x_lambda)} vertex entries "
                    f"does not fit a graph of {graph.k} colors and {len(graph.vertices)} vertices")
            if exact:
                self._exact_rho, self._exact_x = rational_pf_data(graph, pf)
        elif kind == self.BERNOULLI:
            if weights is None:
                raise ValueError("Bernoulli measure needs letter weights")
            self._check_bouquet(graph)
            self.alphabet = tuple(sorted(graph.edges))
            if len(weights) != len(self.alphabet):
                raise BadWeights(f"need {len(self.alphabet)} weights, got {len(weights)}")
            wsum = sum(Fraction(w) if isinstance(w, Rational) else w for w in weights)
            if any(not 0 < float(w) < 1 for w in weights) or abs(float(wsum) - 1.0) > 1e-12:
                raise BadWeights("weights must lie in (0,1) and sum to 1")
            if exact and not all(isinstance(w, Rational) for w in weights):
                raise BadWeights("exact Bernoulli mode needs rational weights")
            self.weights = tuple(weights)
            self._letter_index = {a: i for i, a in enumerate(self.alphabet)}
        else:
            raise ValueError(f"unknown measure kind {kind!r}")

    @staticmethod
    def _check_bouquet(graph: KGraph):
        if len(graph.vertices) != 1 or graph.k != 1:
            raise BadWeights("Bernoulli measure lives on the 1-vertex, 1-color bouquet")

    @classmethod
    def perron_frobenius(cls, graph: KGraph, pf: PFData | None = None,
                         exact: bool = False) -> "MeasureSpec":
        if pf is None:
            pf = pf_data(graph)  # checks strong connectivity itself
        elif not is_strongly_connected(graph):
            raise NotStronglyConnected("PF measure needs a strongly connected graph")
        return cls(cls.PF, graph, pf=pf, exact=exact)

    @classmethod
    def bernoulli(cls, graph: KGraph, weights: Sequence[float],
                  exact: bool = False) -> "MeasureSpec":
        return cls(cls.BERNOULLI, graph, weights=weights, exact=exact)

    def prefix_factor(self, path: Path) -> float:
        """The constant value of (d(M o sigma_path)/dM)^{-1/2} on Z(s(path)):
        the isometry normalization of the prefixing operator."""
        return float(self.prefix_factors(path.degree, self.graph.word_kernel.word(path)[None, :])[0])

    # Word-kernel rows hold edge indices in id order, which on a bouquet is
    # the alphabet order: a row's entries index ``weights`` directly.

    def prefix_factors(self, degree: Degree, words: np.ndarray) -> np.ndarray:
        """`prefix_factor` of each path of one degree, from word-kernel rows:
        rho^{d/2} for PF, the product of the letters' w^{-1/2} for Bernoulli."""
        if self.kind == self.PF:
            factor = float(np.prod(np.asarray(self.pf.rho) ** (np.asarray(degree) / 2.0)))
            return np.full(len(words), factor)
        return _column_product(np.array([float(w) ** -0.5 for w in self.weights]), words)

    def level_weights(self, level: Degree, words: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """float `cylinder_measure` of each path of one level, from word-kernel
        rows and source vertex indices, in float mode: one gather for PF, a
        column-by-column product of letter weights for Bernoulli."""
        if self.kind == self.PF:
            return self.pf.rho_pow(tuple(-d for d in level)) * np.asarray(self.pf.x_lambda)[sources]
        return _column_product(np.array([float(w) for w in self.weights]), words)


def _column_product(letters: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Per row, the product of the letters' values left to right, as a loop
    over the word multiplies them."""
    out = np.ones(len(words))
    for column in words.T:
        out = out * letters[column]
    return out


def cylinder_measure(spec: MeasureSpec, path: Path):
    """Mass of the cylinder Z(path); Fraction in exact mode, float otherwise."""
    if spec.kind == MeasureSpec.PF:
        if spec.exact:
            value = spec._exact_x[spec.graph.vertex_index[path.source]]
            for r, d in zip(spec._exact_rho, path.degree):
                value *= Fraction(1, r) ** d
            return value
        return float(spec.pf.rho_pow(tuple(-d for d in path.degree))
                     * spec.pf.x_lambda[spec.graph.vertex_index[path.source]])
    if spec.exact:
        value = Fraction(1)
        for a in path.word:
            value *= Fraction(spec.weights[spec._letter_index[a]])
        return value
    value = 1.0
    for a in path.word:
        value *= float(spec.weights[spec._letter_index[a]])
    return value


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
        terms = {}
        for rec in records:
            word = rec["path"]
            if len(word) == 1 and word[0].startswith("@"):
                p = vertex_path(graph, word[0][1:])
            else:
                p = normal_form(graph, word)
            terms[p] = terms.get(p, 0.0) + float(rec["coeff"])
        return cls(graph, terms)

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
        step = deg_sub(level, p.degree)
        if sum(step) == 0:
            acc[p] = acc.get(p, 0.0) + c
            continue
        for mu in enumerate_paths(graph, step, range=p.source):
            q = compose(p, mu)
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
    initial segments reproduce both lam and mu.  Empty means the cylinders
    are disjoint."""
    if lam.graph is not mu.graph:
        raise ValueError("paths live on different graphs")
    join = deg_join(lam.degree, mu.degree)
    out = []
    for tau in (compose(lam, ext) for ext in
                enumerate_paths(lam.graph, deg_sub(join, lam.degree), range=lam.source)):
        if segment(tau, lam.graph.zero_degree(), mu.degree) == mu:
            out.append(tau)
    return sorted(out)


def inner_product(spec: MeasureSpec, f: CylinderFn, g: CylinderFn) -> float:
    """<f, g> = sum over term pairs of c_lambda c'_mu M(Z(lambda) n Z(mu))."""
    if f.graph is not g.graph:
        raise ValueError("functions live on different graphs")
    total = 0.0
    for lam, cf in f.terms.items():
        for mu, cg in g.terms.items():
            if lam.degree == mu.degree:
                if lam == mu:
                    total += cf * cg * float(cylinder_measure(spec, lam))
                continue
            for tau in mce(lam, mu):
                total += cf * cg * float(cylinder_measure(spec, tau))
    return total


def norm(spec: MeasureSpec, f: CylinderFn) -> float:
    return float(np.sqrt(max(inner_product(spec, f, f), 0.0)))


def integral(spec: MeasureSpec, f: CylinderFn) -> float:
    """integral of f dM = sum of coefficients weighted by cylinder mass."""
    return float(sum(c * float(cylinder_measure(spec, p)) for p, c in f.terms.items()))


def embed_to_interval(graph: KGraph, path: Path) -> tuple[Fraction, Fraction]:
    """The N-adic interval of Z(path) under the vertex-itinerary embedding.

    Digits are the range vertex followed by the source vertex after each
    unit-degree step of the normal-form word, with vertices numbered by
    graph order; N is the vertex count.  Requires 0/1 vertex matrices so
    that the itinerary determines the path.
    """
    if any(int(m.max()) > 1 for m in vertex_matrices(graph)):
        raise NotZeroOne("embedding requires all vertex matrices to be 0/1-valued")
    n = len(graph.vertices)
    digits = [graph.vertex_index[path.range]]
    digits.extend(graph.vertex_index[graph.edge(eid).source] for eid in path.word)
    lo = Fraction(0)
    scale = Fraction(1)
    for d in digits:
        scale /= n
        lo += d * scale
    return lo, lo + scale
