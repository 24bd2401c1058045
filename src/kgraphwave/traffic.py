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
from typing import Mapping

import numpy as np

from .errors import NoWaveletDegree, ValidationError
from .kgraph import Degree, KGraph, Path, enumerate_paths
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

    Any walk rewrites to a normal-form path of the same degree, so the least
    total degree of a path from w up to the root is the any-color BFS
    distance of w from the root, and the degrees of a path from w are those
    of the walks back from the root to w.  One pass over the degrees, total
    by total, finds which of them reach each vertex; each vertex then takes
    its least one and one search for the first path of it.
    """
    dist = _distances_to(graph, root)
    for w in graph.vertices:
        if w not in dist:
            raise ValidationError("bad_preferred_path", f"no path from {w} to root {root}")
    least = _least_degrees(graph, root, max(dist.values()))
    return PreferredPaths(root, {
        w: enumerate_paths(graph, least[w], range=root, source=w, limit=1)[0]
        for w in graph.vertices})


def _distances_to(graph: KGraph, root: str) -> dict[str, int]:
    """Edge count of a shortest path (any colors) from each vertex up to the root."""
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for c in range(1, graph.k + 1):
                for eid in graph.edges_into(v, c):
                    u = graph.edge(eid).source
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
        frontier = nxt
    return dist


def _least_degrees(graph: KGraph, root: str, top: int) -> dict[str, Degree]:
    """For each vertex w within total `top` of the root, the least degree,
    in graded-lex order, of a path from w up to the root.

    ``back[d]`` marks the vertices that walks with the color counts of d lead
    to, going back from the root; it is one step back along the color-c
    edges from ``back[d - e_c]``, for any c with d_c > 0.
    """
    kernel = graph.word_kernel
    marks = np.zeros(len(graph.vertices), dtype=bool)
    marks[graph.vertex_index[root]] = True
    back = {graph.zero_degree(): marks}
    least = {root: graph.zero_degree()}
    for total in range(1, top + 1):
        below, back = back, {}
        for d in _degrees_of_total(total, graph.k):
            c = next(i for i, x in enumerate(d) if x)
            edges = kernel.edges_of(c + 1)
            prev = below[d[:c] + (d[c] - 1,) + d[c + 1:]]
            marks = np.zeros(len(graph.vertices), dtype=bool)
            marks[kernel.source[edges[prev[kernel.range[edges]]]]] = True
            back[d] = marks
            for w in np.flatnonzero(marks).tolist():
                least.setdefault(graph.vertices[w], d)
    return least


def _degrees_of_total(total: int, k: int):
    """All degrees with the given entry sum, in ascending lexicographic order."""
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _degrees_of_total(total - head, k - 1):
            yield (head,) + tail


def _graded_lex_key(degree: Degree):
    return (sum(degree), degree)


def traffic_measure(graph: KGraph, pf: PFData, prefs: PreferredPaths) -> np.ndarray:
    """Vertex weights rho^{-d(lambda_w)} x_w, in graph vertex order."""
    validate_prefs(graph, prefs)
    out = np.empty(len(graph.vertices))
    for i, w in enumerate(graph.vertices):
        d = prefs.degree_of(w)
        out[i] = pf.rho_pow(tuple(-x for x in d)) * pf.x_lambda[i]
    return out


@dataclass(frozen=True)
class TrafficWaveletFamily:
    """The lifted wavelet signals, grouped by degree class."""

    graph: KGraph
    prefs: PreferredPaths
    measure: np.ndarray
    wavelets: tuple[tuple[tuple[int, Degree], np.ndarray], ...]  # ((m, J), signal)
    constant: np.ndarray | None
    complete: bool

    def gram(self) -> np.ndarray:
        signals = [sig for _, sig in self.wavelets]
        if self.constant is not None:
            signals = signals + [self.constant]
        mat = np.array(signals)
        return (mat * self.measure[None, :]) @ mat.T

    def to_records(self) -> list[dict]:
        recs = [{"kind": "wavelet", "m": m, "shape": list(J), "values": sig.tolist()}
                for (m, J), sig in self.wavelets]
        if self.constant is not None:
            recs.append({"kind": "constant", "values": self.constant.tolist()})
        return recs


def traffic_wavelet_family(graph: KGraph, pf: PFData,
                           prefs: PreferredPaths) -> TrafficWaveletFamily:
    """Build the g^{m,J} family; degree classes in graded-lex order, vertices
    within a class in graph order.  Raises NoWaveletDegree when every class
    is a singleton."""
    nu = traffic_measure(graph, pf, prefs)  # validates prefs

    classes: dict[Degree, list[int]] = {}
    for i, w in enumerate(graph.vertices):
        classes.setdefault(prefs.degree_of(w), []).append(i)

    wavelets = []
    for J in sorted(classes, key=_graded_lex_key):
        members = classes[J]
        if len(members) < 2:
            continue
        rows = complement_basis(nu[members])
        for m, row in enumerate(rows, start=1):
            signal = np.zeros(len(graph.vertices))
            signal[members] = row
            wavelets.append(((m, J), signal))
    if not wavelets:
        raise NoWaveletDegree("every preferred-path degree class is a singleton")

    complete = len(classes) == 1
    constant = None
    if complete:
        (J,) = classes
        constant = np.full(len(graph.vertices), np.sqrt(pf.rho_pow(J)))
    return TrafficWaveletFamily(graph, prefs, nu, tuple(wavelets), constant, complete)
