"""Vertex wavelets from preferred paths, for spatial traffic analysis.

Fix a root vertex and one preferred path from each vertex up to the root.
The path degrees weight the vertices (the measure nu-tilde), and within each
class of vertices whose preferred paths share a degree J, the zero-mean
orthonormal vectors of the weighted inner product lift to vertex signals
supported on that class: finitely supported, zero integral, orthonormal.
When every preferred path shares one degree the family plus the constant
signal is a complete orthonormal basis.  A path enters only by its degree,
so the family is built from each vertex's preferred-path degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import CompositionError, NoWaveletDegree, NonFiniteResult, ValidationError
from .kgraph import Degree, KGraph, Path, as_degree
from .orthobasis import HaarNodes, complement_basis
from .perron import PFData


@dataclass(frozen=True)
class PreferredPaths:
    """One path from every vertex to the root: assignment[w] in root*Lambda*w."""

    root: str
    assignment: Mapping[str, Path]

    def __post_init__(self):
        check_preferred_paths(self.root, ((w, p.range, p.source) for w, p in self.assignment.items()))

    @property
    def degrees(self) -> dict[str, Degree]:
        """Each vertex's preferred-path degree: all the wavelets read of a path."""
        return {w: path.degree for w, path in self.assignment.items()}


def check_preferred_paths(root: str, ends: Iterable[tuple[str, str, str]]) -> None:
    """Each (w, range, source) of a path for w, by vertex names, must run from w up to the root."""
    for w, range_, source in ends:
        if range_ != root:
            raise ValidationError("bad_preferred_path", f"path for {w} has range {range_}, not the root")
        if source != w:
            raise ValidationError("bad_preferred_path", f"path for {w} has source {source}, not {w}")


def least_degrees(graph: KGraph, root: str) -> dict[str, Degree]:
    """For each vertex w, the least degree, in graded-lex order, of a path
    from w up to the root: the default preferred-path degrees.  No path is
    built, since the wavelets read a preferred path only by its degree.

    Every walk up the skeleton is a path of its color counts, so w's least
    total is its distance to the root, and a shortest walk from w starts
    with an edge e up to a vertex one step nearer.  One breadth-first pass
    over the edge columns settles a layer at a time: a vertex first reached
    at distance t takes the least ``least[r(e)] + e_{c(e)}`` over its edges e
    up to distance t - 1, by one lexsort keyed by source, then by degree.
    """
    if root not in graph.vertex_index:
        raise CompositionError(f"unknown vertex {root!r}")
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
    unreached = np.flatnonzero(dist < 0)
    if len(unreached):
        raise ValidationError("bad_preferred_path", f"no path from {graph.vertices[unreached[0]]} to root {root}")
    return dict(zip(graph.vertices, map(tuple, least.tolist())))


@dataclass(frozen=True)
class TrafficWaveletFamily:
    """The lifted wavelet signals, held per degree class: a class J of m >= 2
    vertices gives g^{1,J}, ..., g^{m-1,J}, the rows of `complement_basis`
    (split nodes) on its members and zero elsewhere, never as n-vectors."""

    graph: KGraph
    measure: np.ndarray
    classes: tuple[tuple[Degree, np.ndarray, HaarNodes], ...]  # (J, member indices, nodes)
    constant: np.ndarray | None
    complete: bool

    def signals(self) -> Iterator[tuple[tuple[int, Degree], np.ndarray]]:
        """Each ((m, J), g^{m,J}) as an n-vector, built as it is read."""
        for J, members, nodes in self.classes:
            for m, (lo, hi, values) in enumerate(nodes.runs(), start=1):
                signal = np.zeros(len(self.measure))
                signal[members[lo:hi]] = values
                yield (m, J), signal

    def to_records(self) -> Iterator[dict]:
        for (m, J), signal in self.signals():
            yield {"kind": "wavelet", "m": m, "shape": list(J), "values": signal.tolist()}
        if self.constant is not None:
            yield {"kind": "constant", "values": self.constant.tolist()}


def traffic_wavelet_family(graph: KGraph, pf: PFData,
                           degrees: Mapping[str, Degree]) -> TrafficWaveletFamily:
    """Build the g^{m,J} family from each vertex's preferred-path degree, in
    the vertex weights rho^{-d(lambda_w)} x_w (``measure``); degree classes
    in graded-lex order, vertices within a class in graph order (one stable
    lexsort by total, then by degree).  Raises NonFiniteResult where a
    weight underflows to 0 or is not finite (no wavelet can be normalized
    against it), and NoWaveletDegree when every class is a singleton."""
    missing = set(graph.vertices) - set(degrees)
    extra = set(degrees) - set(graph.vertices)
    if missing or extra:
        raise ValidationError(
            "bad_preferred_path",
            f"assignment must cover every vertex exactly once (missing {sorted(missing)},"
            f" extra {sorted(extra)})")
    rows = np.array([as_degree(degrees[w], graph.k) for w in graph.vertices], dtype=np.int64)
    with np.errstate(over="ignore"):  # a weight past the float range raises below
        nu = np.prod(pf.rho ** -rows, axis=1) * pf.x_lambda  # each row's product in color order
    bad = np.flatnonzero(~(np.isfinite(nu) & (nu > 0)))
    if len(bad):
        raise NonFiniteResult(f"the traffic weight of vertex {graph.vertices[bad[0]]} leaves the float range")
    order = np.lexsort((*rows.T[::-1], rows.sum(axis=1)))
    starts = np.flatnonzero(np.any(np.diff(rows[order], axis=0), axis=1)) + 1
    classes = tuple((tuple(rows[members[0]].tolist()), members, complement_basis(nu[members]))
                    for members in np.split(order, starts) if len(members) >= 2)
    if not classes:
        raise NoWaveletDegree("every preferred-path degree class is a singleton")
    complete = not len(starts)  # one class holds every vertex
    constant = np.full(len(graph.vertices), np.sqrt(pf.rho_pow(classes[0][0]))) if complete else None
    return TrafficWaveletFamily(graph, nu, classes, constant, complete)
