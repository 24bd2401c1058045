"""Vertex wavelets from preferred paths, for spatial traffic analysis.

Fix a root vertex and one preferred path from each vertex up to the root.
The path degrees weight the vertices (the measure nu-tilde), and within each
class of vertices whose preferred paths share a degree J, the zero-mean
orthonormal vectors of the weighted inner product lift to vertex signals
supported on that class: finitely supported, zero integral, orthonormal.
When every preferred path shares one degree the family plus the constant
signal is a complete orthonormal basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .errors import CompositionError, NoWaveletDegree, NonFiniteResult, ValidationError
from .kgraph import Degree, KGraph, Path, _degree_colors, path_of
from .orthobasis import complement_basis
from .perron import PFData


@dataclass(frozen=True)
class PreferredPaths:
    """One path from every vertex to the root: assignment[w] in root*Lambda*w."""

    root: str
    assignment: Mapping[str, Path]

    def __post_init__(self):
        for w, path in self.assignment.items():
            if path.range != self.root:
                raise ValidationError(
                    "bad_preferred_path", f"path for {w} has range {path.range}, not the root")
            if path.source != w:
                raise ValidationError(
                    "bad_preferred_path", f"path for {w} has source {path.source}, not {w}")

    def degree_of(self, w: str) -> Degree:
        return self.assignment[w].degree


def validate_prefs(graph: KGraph, prefs: PreferredPaths):
    missing = set(graph.vertices) - set(prefs.assignment)
    extra = set(prefs.assignment) - set(graph.vertices)
    if missing or extra:
        raise ValidationError(
            "bad_preferred_path",
            f"assignment must cover every vertex exactly once (missing {sorted(missing)},"
            f" extra {sorted(extra)})")


def default_preferred_paths(graph: KGraph, root: str) -> PreferredPaths:
    """Per vertex, the lexicographically least path of the least degree under
    graded-lex order from the root.  Deterministic; may well give every
    vertex its own degree class.

    `_least_degrees` finds each vertex's degree.  The paths then come from
    one depth-first walk over the trie of normal-order color sequences that
    are prefixes of those degrees' sequences, in lexicographic order.  Words
    of one length compare by prefix first, so the least word to a vertex
    extends the least word of its prefix colors to the edge's range: each
    trie node ranks the least words to the vertices it reaches, and one
    step over the live edges of the next color keys each edge by
    ``rank[range] * E + edge`` and keeps the least key per source.  The walk
    holds the ranks and the chosen parent edges only along its current
    trie path; each vertex reads its row back through the parents at the
    node of its degree.
    """
    if root not in graph.vertex_index:
        raise CompositionError(f"unknown vertex {root!r}")
    least = _least_degrees(graph, root)
    for w in graph.vertices:
        if w not in least:
            raise ValidationError("bad_preferred_path", f"no path from {w} to root {root}")
    kernel, n, size = graph.word_kernel, len(graph.vertices), len(graph.edge_ids)
    by_degree: dict[Degree, list[int]] = {}
    for i, w in enumerate(graph.vertices):
        by_degree.setdefault(least[w], []).append(i)
    top, r = np.iinfo(np.intp).max, graph.vertex_index[root]
    rank = np.full(n, -1, dtype=np.intp)  # -1 where no word of the prefix colors reaches
    rank[r] = 0
    ranks, parents, walked = [rank], [None], ()  # per trie level along the current path
    forms = [None] * n
    for degree in sorted(by_degree, key=_degree_colors):
        colors = _degree_colors(degree)
        keep = next((i for i, (a, b) in enumerate(zip(colors, walked)) if a != b),
                    min(len(colors), len(walked)))
        del ranks[keep + 1:], parents[keep + 1:]
        for c in colors[keep:]:
            edges = kernel.edges_of(c)
            prefix = ranks[-1][kernel.range[edges]]
            live = prefix >= 0
            best = np.full(n, top)
            np.minimum.at(best, kernel.source[edges[live]], prefix[live] * size + edges[live])
            reached = np.flatnonzero(best < top)
            rank = np.full(n, -1, dtype=np.intp)
            rank[reached[np.argsort(best[reached])]] = np.arange(len(reached))
            ranks.append(rank)
            parents.append(best % size)  # read only where reached
        walked = colors
        ends = np.array(by_degree[degree], dtype=np.intp)
        rows, at = np.empty((len(ends), len(colors)), dtype=np.intp), ends
        for pos in range(len(colors), 0, -1):
            rows[:, pos - 1] = parents[pos][at]
            at = kernel.range[rows[:, pos - 1]]
        for w, row in zip(ends.tolist(), rows.tolist()):
            forms[w] = (degree, tuple(row), r, w)
    return PreferredPaths(root, {w: path_of(graph, form) for w, form in zip(graph.vertices, forms)})


def _least_degrees(graph: KGraph, root: str) -> dict[str, Degree]:
    """For each vertex w that reaches the root, the least degree, in
    graded-lex order, of a path from w up to the root.

    Every walk up the skeleton is a path of its color counts, so w's least
    total is its distance to the root, and a shortest walk from w starts
    with an edge e up to a vertex one step nearer.  One breadth-first pass
    over the edge columns settles a layer at a time: a vertex first reached
    at distance t takes the least ``least[r(e)] + e_{c(e)}`` over its edges e
    up to distance t - 1, by one lexsort keyed by source, then by degree.
    """
    source, range_ = graph.edge_source, graph.edge_range
    dist = np.full(len(graph.vertices), -1, dtype=np.intp)
    dist[graph.vertex_index[root]] = 0
    least = np.zeros((len(graph.vertices), graph.k), dtype=np.int64)
    for t in range(1, len(graph.vertices)):
        edges = np.flatnonzero((dist[range_] == t - 1) & (dist[source] < 0))
        if not len(edges):
            break
        steps = least[range_[edges]]
        steps[np.arange(len(edges)), graph.edge_color[edges] - 1] += 1
        sources = source[edges]
        order = np.lexsort((*steps.T[::-1], sources))
        firsts = order[np.concatenate([[True], sources[order][1:] != sources[order][:-1]])]
        least[sources[firsts]] = steps[firsts]
        dist[sources[firsts]] = t
    reached = np.flatnonzero(dist >= 0)
    return {graph.vertices[i]: tuple(d) for i, d in zip(reached.tolist(), least[reached].tolist())}


def traffic_measure(graph: KGraph, pf: PFData, prefs: PreferredPaths) -> np.ndarray:
    """Vertex weights rho^{-d(lambda_w)} x_w, in graph vertex order.  Raises
    NonFiniteResult where a weight underflows to 0 or is not finite: no
    wavelet can be normalized against it."""
    return _weighted_degrees(graph, pf, prefs)[1]


def _weighted_degrees(graph: KGraph, pf: PFData, prefs: PreferredPaths) -> tuple[np.ndarray, np.ndarray]:
    """The (n, k) preferred-path degrees in graph vertex order, and the weights."""
    validate_prefs(graph, prefs)
    degrees = np.array([prefs.degree_of(w) for w in graph.vertices], dtype=np.int64).reshape(-1, graph.k)
    with np.errstate(over="ignore"):  # a weight past the float range raises below
        out = np.prod(pf.rho ** -degrees, axis=1) * pf.x_lambda  # each row's product in color order
    bad = np.flatnonzero(~(np.isfinite(out) & (out > 0)))
    if len(bad):
        raise NonFiniteResult(f"the traffic weight of vertex {graph.vertices[bad[0]]} leaves the float range")
    return degrees, out


@dataclass(frozen=True)
class TrafficWaveletFamily:
    """The lifted wavelet signals, held per degree class: a class J of m >= 2
    vertices gives g^{1,J}, ..., g^{m-1,J}, the rows of `complement_basis`
    on its members and zero elsewhere.  No signal is held as an n-vector."""

    graph: KGraph
    prefs: PreferredPaths
    measure: np.ndarray
    classes: tuple[tuple[Degree, np.ndarray, np.ndarray], ...]  # (J, member indices, rows)
    constant: np.ndarray | None
    complete: bool

    def signals(self) -> Iterator[tuple[tuple[int, Degree], np.ndarray]]:
        """Each ((m, J), g^{m,J}) as an n-vector, built as it is read."""
        for J, members, rows in self.classes:
            for m, row in enumerate(rows, start=1):
                signal = np.zeros(len(self.measure))
                signal[members] = row
                yield (m, J), signal

    def gram(self) -> np.ndarray:
        """The Gram matrix in the measure, the wavelets in listing order, then
        the constant: block diagonal, since the classes are disjoint and the
        constant comes only with one class that holds every vertex."""
        out, at = np.zeros((sum(len(rows) for _, _, rows in self.classes) + self.complete,) * 2), 0
        for _, members, rows in self.classes:
            rows = rows if self.constant is None else np.vstack([rows, self.constant])
            out[at:at + len(rows), at:at + len(rows)] = (rows * self.measure[members]) @ rows.T
            at += len(rows)
        return out

    def to_records(self) -> Iterator[dict]:
        for (m, J), signal in self.signals():
            yield {"kind": "wavelet", "m": m, "shape": list(J), "values": signal.tolist()}
        if self.constant is not None:
            yield {"kind": "constant", "values": self.constant.tolist()}


def traffic_wavelet_family(graph: KGraph, pf: PFData,
                           prefs: PreferredPaths) -> TrafficWaveletFamily:
    """Build the g^{m,J} family; degree classes in graded-lex order, vertices
    within a class in graph order (one stable lexsort by total, then by
    degree).  Raises NoWaveletDegree when every class is a singleton."""
    degrees, nu = _weighted_degrees(graph, pf, prefs)
    order = np.lexsort((*degrees.T[::-1], degrees.sum(axis=1)))
    starts = np.flatnonzero(np.any(np.diff(degrees[order], axis=0), axis=1)) + 1
    classes = tuple((tuple(degrees[members[0]].tolist()), members, complement_basis(nu[members]))
                    for members in np.split(order, starts) if len(members) >= 2)
    if not classes:
        raise NoWaveletDegree("every preferred-path degree class is a singleton")
    complete = not len(starts)  # one class holds every vertex
    constant = np.full(len(graph.vertices), np.sqrt(pf.rho_pow(classes[0][0]))) if complete else None
    return TrafficWaveletFamily(graph, prefs, nu, classes, constant, complete)
