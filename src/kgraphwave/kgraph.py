"""Finite higher-rank graphs (k-graphs) and their path arithmetic.

A k-graph is stored as its colored skeleton (vertices plus edges carrying a
color in 1..k) together with the factorization squares: for every composable
pair of edges of distinct colors, the unique color-swapped pair representing
the same length-two morphism.  Every path is kept in a canonical normal form,
the edge word with all color-1 edges first, then color-2, and so on; the
squares act as rewriting rules between equivalent words.

Degrees are plain tuples of non-negative ints of length k.  All structures
are immutable after construction and all enumeration orders are
deterministic: edge ids sort lexicographically, path lists sort by word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path as FilePath
from typing import Iterable, Sequence

import numpy as np

from . import jsonl
from .errors import (
    CompositionError,
    DegreeRangeError,
    ParseError,
    ValidationError,
)

Degree = tuple[int, ...]


def as_degree(value: Sequence[int], k: int) -> Degree:
    deg = tuple(int(x) for x in value)
    if len(deg) != k:
        raise DegreeRangeError(f"degree {deg} has length {len(deg)}, expected {k}")
    if any(x < 0 for x in deg):
        raise DegreeRangeError(f"degree {deg} has negative entries")
    return deg


def deg_add(p: Degree, q: Degree) -> Degree:
    return tuple(a + b for a, b in zip(p, q))


def deg_sub(p: Degree, q: Degree) -> Degree:
    return tuple(a - b for a, b in zip(p, q))


def deg_le(p: Degree, q: Degree) -> bool:
    return all(a <= b for a, b in zip(p, q))


def deg_join(p: Degree, q: Degree) -> Degree:
    return tuple(max(a, b) for a, b in zip(p, q))


def deg_scale(n: int, p: Degree) -> Degree:
    return tuple(n * a for a in p)


@cache
def _swap_schedule(colors: tuple[int, ...], leftmost: bool = True) -> tuple[int, ...]:
    """The positions i at which rewriting a word of these colors swaps
    (w[i], w[i+1]), in order.  The swaps depend on the colors alone.

    Each step swaps the leftmost inversion (the rightmost one with
    ``leftmost=False``).  A swap at i changes only the pairs next to it, and
    the pairs already passed hold no inversion, so the scan resumes one step
    back instead of starting over.
    """
    colors = list(colors)
    steps: list[int] = []
    last = len(colors) - 2
    i, step = (0, 1) if leftmost else (last, -1)
    while 0 <= i <= last:
        if colors[i] > colors[i + 1]:
            steps.append(i)
            colors[i], colors[i + 1] = colors[i + 1], colors[i]
            i = min(max(i - step, 0), last)
        else:
            i += step
    return tuple(steps)


@cache
def _degree_colors(degree: Degree) -> tuple[int, ...]:
    """The color sequence of a normal-form word of this degree."""
    return tuple(c for c, count in enumerate(degree, start=1) for _ in range(count))


@dataclass(frozen=True)
class Edge:
    """A colored edge; ``source``/``range`` name vertices, color is 1-based."""

    id: str
    color: int
    source: str
    range: str


@dataclass(frozen=True)
class FactorizationSquare:
    """The two sides of one commuting square.

    ``left`` is the ascending side (color-i edge then color-j edge, i < j) in
    word order, ``right`` the equivalent descending side.  Word order puts the
    range end first: a word (e, f) denotes the morphism with range r(e) and
    source s(f), composable when s(e) = r(f).
    """

    color_pair: tuple[int, int]
    left: tuple[str, str]
    right: tuple[str, str]


def _lookup(table: dict, keys: list) -> np.ndarray:
    """table[key] for each key, as an intp array with -1 for a missing key."""
    try:
        return np.fromiter(map(table.__getitem__, keys), np.intp, len(keys))
    except KeyError:
        return np.array([table.get(key, -1) for key in keys], dtype=np.intp)


class KGraph:
    """A finite k-graph: validated skeleton plus factorization squares.

    The graph is held as columns.  Edge i is the i-th id in sorted order:
    ``edge_ids``, ``edge_position`` (id to i), and the ``edge_color``,
    ``edge_source`` and ``edge_range`` (vertex index) of each as read-only
    intp arrays.  ``square_edges`` holds one row per square, in document
    order: the edges of its left (ascending) side, then of its right side.
    `edges`, `squares`, the swap table and the range index are views of the
    columns, built on first read.
    """

    def __init__(self, k: int, vertices: Sequence[str], edges: Iterable[Edge],
                 squares: Iterable[FactorizationSquare]):
        edges, squares = list(edges), list(squares)
        self._validate(k, vertices, [e.id for e in edges], [e.color for e in edges],
                       [e.source for e in edges], [e.range for e in edges],
                       [(*sq.left, *sq.right) for sq in squares],
                       [sq.color_pair for sq in squares])

    @classmethod
    def _from_columns(cls, k: int, vertices: Sequence[str], ids: Sequence[str],
                      colors: Sequence[int], sources: Sequence[str], ranges: Sequence[str],
                      squares: Sequence[Sequence[str]]) -> "KGraph":
        """The graph of the edges (ids[i], colors[i], sources[i], ranges[i])
        and the squares (left[0], left[1], right[0], right[1]), each in
        document order, with the checks of the constructor."""
        graph = cls.__new__(cls)
        graph._validate(k, vertices, ids, colors, sources, ranges, squares)
        return graph

    # -- construction-time validation -------------------------------------

    def _validate(self, k, vertices, ids, colors, sources, ranges, squares, color_pairs=None):
        """Fill the columns and check them.  Each check names the first
        offender in document order: duplicate ids, the skeleton (colors and
        vertex references, edge by edge), the squares, their coverage and,
        for k >= 3, the cube condition."""
        self.k = int(k)
        self.vertices = tuple(vertices)
        self.vertex_index = index = {v: i for i, v in enumerate(self.vertices)}
        self.edge_ids = tuple(sorted(ids))
        self.edge_position = position = dict(zip(self.edge_ids, range(len(ids))))
        if len(position) != len(ids):
            raise ValidationError("duplicate_id", "duplicate edge ids")
        if self.k < 1:
            raise ValidationError("color_out_of_range", f"k must be >= 1, got {self.k}")
        if len(index) != len(self.vertices):
            raise ValidationError("duplicate_id", "duplicate vertex names")

        count = len(ids)
        try:
            color = np.array(colors, dtype=np.intp).reshape(count)
        except OverflowError:  # a color beyond the machine integers is out of range
            color = np.array([c if 1 <= c <= self.k else 0 for c in colors], dtype=np.intp)
        source, range_ = _lookup(index, sources), _lookup(index, ranges)
        faults = np.array([(color < 1) | (color > self.k), source < 0, range_ < 0]).T
        if faults.any():
            i = int(np.argmax(faults.any(axis=1)))
            if faults[i, 0]:
                raise ValidationError(
                    "color_out_of_range", f"edge {ids[i]} has color {colors[i]}, k={self.k}")
            v = sources[i] if faults[i, 1] else ranges[i]
            raise ValidationError(
                "dangling_reference", f"edge {ids[i]} references unknown vertex {v}")

        at = _lookup(position, ids)
        self._document_order = at  # the position of each edge, in document order
        for name, column in (("edge_color", color), ("edge_source", source), ("edge_range", range_)):
            ordered = np.empty(count, dtype=np.intp)
            ordered[at] = column
            ordered.flags.writeable = False
            setattr(self, name, ordered)
        at.flags.writeable = False

        self.square_edges = _lookup(position, [e for sq in squares for e in sq]).reshape(-1, 4)
        self.square_edges.flags.writeable = False
        self._check_squares(squares, color_pairs)
        self._check_square_coverage()
        if self.k >= 3:
            self._check_cube_condition()

    def _check_squares(self, squares, color_pairs):
        """Each square pairs an ascending with a descending side: both
        composable, with the same endpoints, and no side in two squares.
        ``squares`` are the edge ids of the rows of ``square_edges``, and
        ``color_pairs`` the color pair each square claims, if any.

        A square's faults are taken in order: an unknown edge, its colors,
        its claimed color pair, composability, endpoints, then its left and
        its right side already seen in an earlier square (every earlier
        square is sound, or it would have raised first)."""
        rows = self.square_edges
        # the color, source and range of each square's edges; an unknown edge
        # (-1) reads the last column, and faults first anyway
        table = np.full((3, len(self.edge_ids) + 1), -1, dtype=np.intp)
        table[:, :-1] = self.edge_color, self.edge_source, self.edge_range
        (low, high, high2, low2), source, range_ = table[:, rows.T]
        claimed = (low, high) if color_pairs is None else np.array(color_pairs, np.intp).reshape(-1, 2).T
        # a stable sort puts the first occurrence of each side first among its equals
        sides = (rows[:, [0, 2]] * len(self.edge_ids) + rows[:, [1, 3]]).ravel()
        order = np.argsort(sides, kind="stable")
        repeated = np.zeros(len(sides), dtype=bool)
        repeated[order[1:]] = sides[order[1:]] == sides[order[:-1]]
        faults = np.array([
            (rows < 0).any(axis=1),
            ~((low < high) & (high2 == high) & (low2 == low)),
            (claimed[0] != low) | (claimed[1] != high),
            (source[0] != range_[1]) | (source[2] != range_[3]),
            (range_[0] != range_[2]) | (source[1] != source[3]),
            repeated[0::2],
            repeated[1::2],
        ]).T
        if not faults.any():
            return
        i = int(np.argmax(faults.any(axis=1)))
        left, right = tuple(squares[i][:2]), tuple(squares[i][2:])
        fault = int(np.argmax(faults[i]))
        if fault == 0:
            eid = next(e for e in squares[i] if e not in self.edge_position)
            raise ValidationError("dangling_reference", f"square references unknown edge {eid}")
        raise ValidationError("non_bijective_squares", [
            f"square {left}/{right} does not pair ascending with descending colors",
            f"square {left} color pair mismatch",
            f"square side {left} or {right} is not composable",
            f"square {left}/{right} sides have different endpoints",
            f"edge pair {left} appears in two squares",
            f"edge pair {right} appears in two squares",
        ][fault - 1])

    @cached_property
    def edges_by_range(self) -> tuple[np.ndarray, np.ndarray]:
        """The edges ordered by range, then color, then id, and for each
        vertex v the run ``starts[v]:starts[v + 1]`` of the edges into it."""
        order = np.lexsort((self.edge_color, self.edge_range))
        starts = np.searchsorted(self.edge_range[order], np.arange(len(self.vertices) + 1))
        return order, starts

    def _mixed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Composable two-color words (a, b): a in document order, and b among
        the edges into s(a) of another color, by color and then id."""
        into, starts = self.edges_by_range
        a = self._document_order
        tail = self.edge_source[a]
        count = starts[tail + 1] - starts[tail]
        a, b = np.repeat(a, count), into[_expand_runs(starts[tail], count)]
        mixed = self.edge_color[a] != self.edge_color[b]
        return a[mixed], b[mixed]

    def _check_square_coverage(self):
        """Every composable two-color word lies in a square.

        ``_check_squares`` has shown that every square side is a composable
        two-color word and that no side repeats, so the sides are a subset of
        those words, and they cover all of them exactly when the two sets
        have the same size.  A word (a, b) takes b among the edges into s(a)
        of a color other than c(a), so there are
        sum_a (indeg(s(a)) - indeg_{c(a)}(s(a))) words: a bincount of the
        edge ranges, then one per color that edges carry, each O(n + E).
        Only when the count falls short are the words listed, by
        ``_mixed_pairs``, to name the first missing one.

        This and ``_check_squares`` force the vertex matrices to commute.
        For i < j, (A_i A_j)[v, w] counts the composable words (e, f) from w
        to v with e of color i and f of color j, and (A_j A_i)[v, w] those
        with the colors swapped.  The squares pair these two sets one to
        one: every word is covered, a square joins an ascending and a
        descending word with the same endpoints, and no word lies in two
        squares.
        """
        n = len(self.vertices)
        sources, ranges, colors = self.edge_source, self.edge_range, self.edge_color
        words = int(np.bincount(ranges, minlength=n)[sources].sum())
        for c in set(colors.tolist()):
            same = colors == c
            words -= int(np.bincount(ranges[same], minlength=n)[sources[same]].sum())
        if 2 * len(self.square_edges) == words:
            return
        size = len(self.edge_ids)
        a, b = self._mixed_pairs()
        sides = self.square_edges[:, [0, 2]] * size + self.square_edges[:, [1, 3]]
        i = int(np.argmax(~np.isin(a * size + b, sides)))
        raise ValidationError(
            "missing_square",
            f"no square covers the composable pair ({self.edge_ids[a[i]]}, {self.edge_ids[b[i]]})")

    def _check_cube_condition(self):
        """Every tri-colored word (x, y, z) has one normal form: its rewrites
        by leftmost and by rightmost swaps agree.  The words come with (x, y)
        in `_mixed_pairs` order and z among the edges into s(y) of the third
        color, by color and then id; the rewrites run per color sequence."""
        x, y = self._mixed_pairs()
        into, starts = self.edges_by_range
        tail = self.edge_source[y]
        count = starts[tail + 1] - starts[tail]
        words = np.column_stack([np.repeat(x, count), np.repeat(y, count),
                                 into[_expand_runs(starts[tail], count)]])
        colors = self.edge_color[words]
        third = (colors[:, 2] != colors[:, 0]) & (colors[:, 2] != colors[:, 1])
        words, colors = words[third], colors[third]
        if not len(words):
            return
        kernel = self.word_kernel
        split = np.zeros(len(words), dtype=bool)
        patterns, group = np.unique(colors, axis=0, return_inverse=True)
        for p, pattern in enumerate(patterns.tolist()):
            rows = np.flatnonzero(group.ravel() == p)
            split[rows] = (kernel.rewrite(words[rows], tuple(pattern), leftmost=True)
                           != kernel.rewrite(words[rows], tuple(pattern), leftmost=False)).any(axis=1)
        if split.any():
            word = tuple(self.edge_ids[i] for i in words[np.argmax(split)].tolist())
            raise ValidationError(
                "cube_condition", f"tri-colored word {word} has order-dependent normal form")

    # -- views of the columns, built on first read -------------------------

    @cached_property
    def edges(self) -> dict[str, Edge]:
        """The edges by id, in document order."""
        ids, vertices = self.edge_ids, self.vertices
        at = self._document_order
        return {ids[i]: Edge(ids[i], c, vertices[s], vertices[r]) for i, c, s, r in zip(
            at.tolist(), self.edge_color[at].tolist(), self.edge_source[at].tolist(),
            self.edge_range[at].tolist())}

    @cached_property
    def squares(self) -> tuple[FactorizationSquare, ...]:
        """The factorization squares, in document order."""
        ids, color = self.edge_ids, self.edge_color.tolist()
        return tuple(FactorizationSquare((color[a], color[b]), (ids[a], ids[b]), (ids[c], ids[d]))
                     for a, b, c, d in self.square_edges.tolist())

    @cached_property
    def _swap(self) -> dict[tuple[str, str], tuple[str, str]]:
        """Each square side to the other side of its square."""
        ids, swap = self.edge_ids, {}
        for a, b, c, d in self.square_edges.tolist():
            left, right = (ids[a], ids[b]), (ids[c], ids[d])
            swap[left], swap[right] = right, left
        return swap

    @cached_property
    def _by_range_color(self) -> dict[tuple[str, int], tuple[str, ...]]:
        """The edge ids by (range, color), sorted by id."""
        into: dict[tuple[str, int], list[str]] = {}
        order, _ = self.edges_by_range
        ids, vertices = self.edge_ids, self.vertices
        for e, r, c in zip(order.tolist(), self.edge_range[order].tolist(),
                           self.edge_color[order].tolist()):
            into.setdefault((vertices[r], c), []).append(ids[e])
        return {key: tuple(run) for key, run in into.items()}

    # -- lookups -----------------------------------------------------------

    def edge(self, eid: str) -> Edge:
        return self.edges[eid]

    def color(self, eid: str) -> int:
        return self.edges[eid].color

    def edges_into(self, vertex: str, color: int) -> tuple[str, ...]:
        """Edge ids with the given range and color, sorted by id."""
        return self._by_range_color.get((vertex, color), ())

    def zero_degree(self) -> Degree:
        return (0,) * self.k

    @cached_property
    def word_kernel(self) -> "WordKernel":
        """The word-array tables of this graph, built on first use."""
        return WordKernel(self)

    # -- word rewriting ----------------------------------------------------

    @cached_property
    def _edge_lists(self) -> tuple[list[int], list[int], list[int]]:
        """The color, source and range columns as lists, for word checks."""
        return self.edge_color.tolist(), self.edge_source.tolist(), self.edge_range.tolist()

    def _check_word(self, word: Sequence[str]) -> tuple[tuple[int, ...], str, str]:
        """The colors of a composable word's edges, and its range and source
        vertex, read off the edge columns.  Raises CompositionError at the
        first unknown edge, else at the first pair that does not compose."""
        position = self.edge_position
        try:
            at = [position[eid] for eid in word]
        except KeyError:
            eid = next(eid for eid in word if eid not in position)
            raise CompositionError(f"unknown edge id {eid!r}") from None
        color, source, range_ = self._edge_lists
        if any(source[a] != range_[b] for a, b in zip(at, at[1:])):
            i = next(i for i in range(len(at) - 1) if source[at[i]] != range_[at[i + 1]])
            raise CompositionError(
                f"edges {word[i]} and {word[i + 1]} are not composable (source "
                f"{self.vertices[source[at[i]]]} != range {self.vertices[range_[at[i + 1]]]})")
        return tuple([color[a] for a in at]), self.vertices[range_[at[0]]], self.vertices[source[at[-1]]]

    def _rewrite(self, word: Sequence[str], leftmost: bool = True,
                 colors: tuple[int, ...] | None = None) -> tuple[str, ...]:
        """Sort a composable word into ascending-color order via square swaps,
        at the positions `_swap_schedule` gives for its colors (read off the
        edges unless given)."""
        w = list(word)
        if colors is None:
            colors = tuple(self.edges[eid].color for eid in w)
        for i in _swap_schedule(colors, leftmost):
            w[i], w[i + 1] = self._swap[(w[i], w[i + 1])]
        return tuple(w)

    def _pull_prefix(self, word: Sequence[str], p: Degree) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Split a composable word as prefix * suffix with the prefix of degree p.

        The prefix comes out in normal form; the suffix is left as rewritten.
        """
        rest = list(word)
        prefix = []
        for color in range(1, self.k + 1):
            for _ in range(p[color - 1]):
                i = next(j for j, eid in enumerate(rest) if self.edges[eid].color == color)
                while i > 0:
                    rest[i - 1], rest[i] = self._swap[(rest[i - 1], rest[i])]
                    i -= 1
                prefix.append(rest.pop(0))
        return tuple(prefix), tuple(rest)

    # -- serialization -----------------------------------------------------

    def to_document(self) -> dict:
        ids = self.edge_ids
        return {
            "k": self.k,
            "vertices": list(self.vertices),
            "edges": [
                {"id": eid, "color": c, "source": self.vertices[s], "range": self.vertices[r]}
                for eid, c, s, r in zip(ids, self.edge_color.tolist(),
                                        self.edge_source.tolist(), self.edge_range.tolist())
            ],
            "squares": [
                {"left": [ids[a], ids[b]], "right": [ids[c], ids[d]]}
                for a, b, c, d in self.square_edges.tolist()
            ],
        }


@dataclass(frozen=True)
class Path:
    """A morphism of a k-graph in canonical normal form.

    A degree-0 path is a vertex: empty word, range = source = the vertex.
    Instances compare by word (and graph identity) and sort by word with the
    range vertex as tie-break, so path lists are reproducible.
    """

    graph: KGraph
    word: tuple[str, ...]
    degree: Degree
    range: str
    source: str

    def __lt__(self, other: "Path") -> bool:
        return (self.word, self.range) < (other.word, other.range)

    def is_vertex(self) -> bool:
        return not self.word

    def __repr__(self):
        body = "".join(self.word) if self.word else f"@{self.range}"
        return f"Path({body})"


def _path_from_normal_word(graph: KGraph, word: tuple[str, ...]) -> Path:
    census = [0] * graph.k
    for eid in word:
        census[graph.color(eid) - 1] += 1
    return Path(graph, word, tuple(census),
                graph.edge(word[0]).range, graph.edge(word[-1]).source)


def vertex_path(graph: KGraph, vertex: str) -> Path:
    if vertex not in graph.vertex_index:
        raise CompositionError(f"unknown vertex {vertex!r}")
    return Path(graph, (), graph.zero_degree(), vertex, vertex)


def normal_form(graph: KGraph, word: Sequence[str]) -> Path:
    """Rewrite a composable edge word to its unique normal-form path."""
    if not word:
        raise CompositionError("empty word has no endpoints; use vertex_path")
    colors, range_, source = graph._check_word(word)
    return Path(graph, graph._rewrite(word, colors=colors),
                tuple(colors.count(c) for c in range(1, graph.k + 1)), range_, source)


def compose(p: Path, q: Path) -> Path:
    """Concatenate two paths (p then q, with s(p) = r(q)) and renormalize."""
    if p.graph is not q.graph:
        raise CompositionError("paths live on different graphs")
    if p.source != q.range:
        raise CompositionError(
            f"cannot compose: source {p.source} != range {q.range}")
    if p.is_vertex():
        return q
    if q.is_vertex():
        return p
    return Path(p.graph, p.graph._rewrite(p.word + q.word),
                deg_add(p.degree, q.degree), p.range, q.source)


def segment(path: Path, p: Sequence[int], q: Sequence[int]) -> Path:
    """The unique middle factor beta with path = alpha * beta * gamma,
    d(alpha) = p and d(beta) = q - p."""
    graph = path.graph
    p = as_degree(p, graph.k)
    q = as_degree(q, graph.k)
    if not (deg_le(p, q) and deg_le(q, path.degree)):
        raise DegreeRangeError(
            f"need 0 <= {p} <= {q} <= {path.degree} componentwise")
    prefix, rest = graph._pull_prefix(path.word, p)
    seg, _ = graph._pull_prefix(rest, deg_sub(q, p))
    if not seg:
        vertex = graph.edge(prefix[-1]).source if prefix else path.range
        return vertex_path(graph, vertex)
    return _path_from_normal_word(graph, seg)


def _reach(graph: KGraph, colors: Sequence[int], source: str) -> list[np.ndarray | None]:
    """reach[pos], for pos >= 1: marks the vertices from which a path with
    the color sequence colors[pos:] ends at the source."""
    kernel = graph.word_kernel
    reach: list[np.ndarray | None] = [None] * (len(colors) + 1)
    reach[-1] = np.zeros(len(graph.vertices), dtype=bool)
    reach[-1][graph.vertex_index[source]] = True
    for pos in range(len(colors) - 1, 0, -1):
        edges = kernel.edges_of(colors[pos])
        reach[pos] = np.zeros(len(graph.vertices), dtype=bool)
        reach[pos][kernel.range[edges[reach[pos + 1][kernel.source[edges]]]]] = True
    return reach


def enumerate_paths(graph: KGraph, degree: Sequence[int], range: str | None = None,
                    source: str | None = None, limit: int | None = None) -> list[Path]:
    """All normal-form paths of the given degree, lexicographic by edge word.

    Degree-0 paths are the vertex paths, listed in graph vertex order.  With
    ``limit`` (>= 1), only the first ``limit`` paths of that list.

    With a source, the search first goes backward from it: ``reach[pos]``
    marks the vertices from which the colors ``colors[pos:]`` can still end
    at the source, one vectorised step per color.  An edge whose source is
    unmarked in ``reach[pos + 1]`` starts a dead branch and is skipped, so
    the search follows the size of the output.
    """
    deg = as_degree(degree, graph.k)
    if range is not None and range not in graph.vertex_index:
        raise CompositionError(f"unknown vertex {range!r}")
    if source is not None and source not in graph.vertex_index:
        raise CompositionError(f"unknown vertex {source!r}")
    if sum(deg) == 0:
        verts = [v for v in graph.vertices
                 if (range is None or v == range) and (source is None or v == source)]
        return [vertex_path(graph, v) for v in verts[:limit]]

    colors = _degree_colors(deg)
    last = len(colors) - 1
    reach = [None] * (last + 2) if source is None else _reach(graph, colors, source)
    edges, into, index = graph.edges, graph._by_range_color, graph.vertex_index
    out: list[Path] = []
    word: list[str] = []

    def extend(pos: int, candidates: Iterable[str]):
        live = reach[pos + 1]
        for eid in candidates:
            tail = edges[eid].source
            if live is not None and not live[index[tail]]:
                continue
            word.append(eid)
            if pos == last:
                out.append(Path(graph, tuple(word), deg, edges[word[0]].range, tail))
            else:
                extend(pos + 1, into.get((tail, colors[pos + 1]), ()))
            word.pop()
            if len(out) == limit:
                return

    if range is not None:
        extend(0, graph.edges_into(range, colors[0]))
    else:
        extend(0, sorted(eid for eid, e in edges.items() if e.color == colors[0]))
    return out


def _expand_runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices first[i], first[i] + 1, ..., first[i] + count[i] - 1,
    for each i in turn."""
    ends = np.cumsum(count)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(first - (ends - count), count)


class WordKernel:
    """Normal-form paths of whole levels as rows of edge indices.

    Edges are numbered in id order, so rows compare as their words do.  A
    level's rows, with the range and source vertex index of each, come in
    `enumerate_paths` order, and ``paths`` turns rows back into `Path`
    objects at the I/O boundary.

    - Every word of one color sequence is rewritten with swaps at the same
      positions (`_swap_schedule`), so `compose` sorts all rows of a level
      at once: one gather per swap through the sorted table of square pairs.
      A pair that no square covers raises, and a lookup that misses never
      reads a neighbouring entry.
    - The position of a normal-form word in its level is a sum of one offset
      per letter (`rank`).  The offset of edge e at position pos counts the
      words that agree before pos and carry a smaller edge there: the
      completions, from the sources of the smaller edges with e's range (any
      range at pos 0), of the colors after pos.

    Built on first use of `KGraph.word_kernel`; tables are cached per degree.
    """

    def __init__(self, graph: KGraph):
        self.graph = graph
        self.ids, self.position = graph.edge_ids, graph.edge_position
        self.color, self.source, self.range = graph.edge_color, graph.edge_source, graph.edge_range
        # rewriting to normal form only ever swaps a descending pair: the
        # right side of a square, for its left side
        squares = graph.square_edges
        key = squares[:, 2] * len(self.ids) + squares[:, 3]
        by_key = np.argsort(key)
        self.pair_key, self.pair_left, self.pair_right = (
            np.append(column[by_key], end) for column, end in (
                (key, np.iinfo(np.intp).max), (squares[:, 0], -1), (squares[:, 1], -1)))
        # per color that an edge carries: its edges by range, then id, and
        # where each range's run starts; a color no edge carries has empty runs
        n = len(graph.vertices)
        order = np.lexsort((self.range, self.color))
        colors = self.color[order]
        cuts = np.append(np.flatnonzero(np.diff(colors, prepend=0)), len(order)).tolist()
        self._empty_runs = np.empty(0, dtype=np.intp), np.zeros(n + 1, dtype=np.intp)
        self._into = {}
        for lo, hi in zip(cuts, cuts[1:]):
            by_range = order[lo:hi]
            self._into[int(colors[lo])] = by_range, np.searchsorted(self.range[by_range], np.arange(n + 1))
        self._levels: dict[Degree, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._offsets: dict[Degree, np.ndarray] = {}

    @cached_property
    def id_texts(self) -> np.ndarray:
        """The JSON text of each edge id (`jsonl.strings`), made once."""
        return jsonl.strings(self.ids)

    def edges_of(self, color: int) -> np.ndarray:
        """The edges of one color, by range."""
        return self._runs(color)[0]

    def _runs(self, color: int) -> tuple[np.ndarray, np.ndarray]:
        """The edges of one color by range, and where each range's run starts."""
        return self._into.get(color, self._empty_runs)

    def word(self, path: Path) -> np.ndarray:
        """The edge indices of a path's word."""
        return np.array([self.position[eid] for eid in path.word], dtype=np.intp)

    def row(self, path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One path as a level of one row: its word, range and source."""
        index = self.graph.vertex_index
        return (self.word(path)[None, :], np.array([index[path.range]]),
                np.array([index[path.source]]))

    def level(self, degree: Degree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows, ranges and sources of all normal-form paths of the
        degree, in `enumerate_paths` order (read-only, shared)."""
        if degree not in self._levels:
            colors = _degree_colors(degree)
            if not colors:
                at = np.arange(len(self.graph.vertices))
                words = np.empty((len(at), 0), dtype=np.intp)
                out = words, at, at
            else:
                words = np.flatnonzero(self.color == colors[0])[:, None]
                for c in colors[1:]:
                    by_range, starts = self._runs(c)
                    tail = self.source[words[:, -1]]
                    count = starts[tail + 1] - starts[tail]
                    words = np.column_stack([np.repeat(words, count, axis=0),
                                             by_range[_expand_runs(starts[tail], count)]])
                out = words, self.range[words[:, 0]], self.source[words[:, -1]]
            for a in out:
                a.flags.writeable = False
            self._levels[degree] = out
        return self._levels[degree]

    def compose(self, heads: np.ndarray, head_degree: Degree,
                tails: np.ndarray, tail_degree: Degree) -> np.ndarray:
        """The normal-form rows of heads[i] * tails[i]; a single head row is
        broadcast.  Each source of a head must be the range of its tail."""
        cut = heads.shape[-1]
        words = np.empty((len(tails), cut + tails.shape[1]), dtype=np.intp)
        words[:, :cut], words[:, cut:] = heads, tails
        return self.rewrite(words, _degree_colors(head_degree) + _degree_colors(tail_degree))

    def rewrite(self, words: np.ndarray, colors: tuple[int, ...], leftmost: bool = True) -> np.ndarray:
        """Rewrite rows of the color sequence `colors` in place to normal
        form, by the swaps `_swap_schedule` gives, and return them."""
        keys, left, right = self.pair_key, self.pair_left, self.pair_right
        for i in _swap_schedule(colors, leftmost):
            key = words[:, i] * len(self.ids) + words[:, i + 1]
            at = keys.searchsorted(key)  # the last key is a sentinel above every pair
            hit = keys[at] == key
            if not hit.all():
                a, b = words[np.argmin(hit), i:i + 2]
                raise ValidationError(
                    "missing_square",
                    f"no square covers the composable pair ({self.ids[a]}, {self.ids[b]})")
            words[:, i], words[:, i + 1] = left[at], right[at]
        return words

    def rank(self, words: np.ndarray, degree: Degree) -> np.ndarray:
        """The position of each normal-form row in the level of `degree`
        (nonzero: a degree-0 path is ranked by its vertex index)."""
        if degree not in self._offsets:
            self._offsets[degree] = self._rank_offsets(_degree_colors(degree))
        offsets = self._offsets[degree]
        return offsets[np.arange(len(offsets)), words].sum(axis=1)

    def _rank_offsets(self, colors: tuple[int, ...]) -> np.ndarray:
        """offsets[pos, e]: the rank added by edge e at position pos."""
        after = np.ones(len(self.graph.vertices), dtype=np.intp)  # completions by range
        offsets = np.zeros((len(colors), len(self.ids)), dtype=np.intp)
        for pos in reversed(range(len(colors))):
            by_range, starts = self._runs(colors[pos])
            if pos == 0:
                by_range = np.sort(by_range)  # any range: the edges in id order
                starts = np.array([0, len(by_range)])
            counts = np.concatenate([[0], np.cumsum(after[self.source[by_range]])])
            group = starts[self.range[by_range]] if pos else 0
            offsets[pos, by_range] = counts[:-1] - counts[group]
            after = counts[starts[1:]] - counts[starts[:-1]]
        return offsets

    def paths(self, rows: tuple[np.ndarray, np.ndarray, np.ndarray], degree: Degree) -> list[Path]:
        """`Path` objects for rows of the degree, given with their ranges and
        sources as `level` gives them."""
        words, ranges, sources = rows
        vertices = self.graph.vertices
        if not any(degree):
            return [vertex_path(self.graph, vertices[v]) for v in ranges.tolist()]
        ids = np.array(self.ids, dtype=object)
        return [Path(self.graph, tuple(word), degree, vertices[r], vertices[s])
                for word, r, s in zip(ids[words].tolist(), ranges.tolist(), sources.tolist())]


def extensions(path: Path, degree: Sequence[int]) -> list[Path]:
    """All paths ``path * mu`` with d(mu) = degree, in lexicographic mu order."""
    return [compose(path, mu)
            for mu in enumerate_paths(path.graph, degree, range=path.source)]


def vertex_matrices(graph: KGraph) -> list[np.ndarray]:
    """Per-color integer matrices A_i with A_i[v, w] = #(color-i edges w -> v).

    Row and column order follow the graph vertex order; entry (v, w) counts
    edges with range v and source w, so A_i x propagates mass from sources to
    ranges.  The matrices commute pairwise: the squares validated at
    construction force it (see ``KGraph._check_square_coverage``).
    """
    n = len(graph.vertices)
    cells = ((graph.edge_color - 1) * n + graph.edge_range) * n + graph.edge_source
    counts = np.bincount(cells, minlength=graph.k * n * n).astype(np.int64, copy=False)
    return list(counts.reshape(graph.k, n, n))


# -- document parsing ------------------------------------------------------

_TOP_FIELDS = {"k", "vertices", "edges", "squares"}
_EDGE_FIELDS = {"id", "color", "source", "range"}
_SQUARE_FIELDS = {"left", "right"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is no integer


def load_kgraph(document) -> KGraph:
    """Build and fully validate a KGraph from a document.

    Accepts a dict, a JSON string, or a filesystem path to a ``.kg`` file
    as a `pathlib.Path` or a string.  A string that starts with ``{`` is a
    document.  Any other string names a file when one can be read there;
    when none can and the string parses as JSON, it is a document (so
    ``"[]"`` is a ParseError, not a missing file), and otherwise the file
    error is raised.  The text of a file is always read as JSON.  Unknown
    fields are rejected at every level.

    The records go straight into the columns of `KGraph._from_columns`,
    which runs every construction check on them as array operations;
    no `Edge` or `FactorizationSquare` is built.
    """
    if isinstance(document, str) and not document.lstrip().startswith("{"):
        try:
            document = FilePath(document).read_text()
        except OSError as missing:
            try:
                json.loads(document)  # no such file, but a JSON document
            except json.JSONDecodeError:
                raise missing from None
    elif isinstance(document, FilePath):
        document = document.read_text()
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError(f"expected a JSON object, got {type(document).__name__}")

    unknown = set(document) - _TOP_FIELDS
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(document)
    if missing:
        raise ParseError(f"missing required fields: {sorted(missing)}")
    if not _is_int(document["k"]):
        raise ParseError("field 'k' must be an integer")
    if not isinstance(document["vertices"], list) or not all(
            isinstance(v, str) for v in document["vertices"]):
        raise ParseError("field 'vertices' must be a list of names")
    for field in ("edges", "squares"):
        if not isinstance(document[field], list):
            raise ParseError(f"field {field!r} must be a list of records")

    # a well-formed record passes the first test; any other gets the checks
    # that name its fault
    edges, squares = document["edges"], document["squares"]
    for rec in edges:
        if not (type(rec) is dict and rec.keys() == _EDGE_FIELDS and type(rec["color"]) is int
                and type(rec["id"]) is type(rec["source"]) is type(rec["range"]) is str):
            if not isinstance(rec, dict):
                raise ParseError("edge records must be objects")
            unknown = set(rec) - _EDGE_FIELDS
            if unknown:
                raise ParseError(f"unknown edge fields: {sorted(unknown)}")
            if set(rec) != _EDGE_FIELDS:
                raise ParseError(f"edge record missing fields: {sorted(_EDGE_FIELDS - set(rec))}")
            if not _is_int(rec["color"]):
                raise ParseError(f"edge {rec['id']!r} color must be an integer")
            for field in ("id", "source", "range"):
                if not isinstance(rec[field], str):
                    raise ParseError(f"edge {rec['id']!r} field {field!r} must be a string")
    for rec in squares:
        if not (type(rec) is dict and rec.keys() == _SQUARE_FIELDS
                and type(left := rec["left"]) is type(right := rec["right"]) is list
                and len(left) == len(right) == 2
                and type(left[0]) is type(left[1]) is type(right[0]) is type(right[1]) is str):
            if not isinstance(rec, dict):
                raise ParseError("square records must be objects")
            unknown = set(rec) - _SQUARE_FIELDS
            if unknown:
                raise ParseError(f"unknown square fields: {sorted(unknown)}")
            if set(rec) != _SQUARE_FIELDS:
                raise ParseError("square record must have 'left' and 'right'")
            if not (isinstance(rec["left"], list) and isinstance(rec["right"], list)
                    and len(rec["left"]) == 2 and len(rec["right"]) == 2):
                raise ParseError("square sides must be two-edge lists")
            if not all(isinstance(e, str) for e in rec["left"] + rec["right"]):
                raise ParseError("square sides must name edges by their string ids")

    return KGraph._from_columns(
        document["k"], document["vertices"], [rec["id"] for rec in edges],
        [rec["color"] for rec in edges], [rec["source"] for rec in edges],
        [rec["range"] for rec in edges], [rec["left"] + rec["right"] for rec in squares])


def load_kgraph_file(path) -> KGraph:
    return load_kgraph(FilePath(path))


def bouquet_graph(n: int) -> KGraph:
    """The 1-vertex 1-graph with loops 0..n-1: the full shift on n letters.

    Letter ids are zero-padded so lexicographic edge order agrees with
    numeric letter order for any alphabet size.
    """
    width = len(str(max(n - 1, 0)))
    edges = [Edge(f"{i:0{width}d}", 1, "v", "v") for i in range(n)]
    return KGraph(1, ["v"], edges, [])


def fixture_path(name: str) -> FilePath:
    """Path to one of the packaged example graphs (``lambda3``, ``ledrappier``,
    ``lambda1-sphere``, ``bouquet-2``, ``bouquet-3``)."""
    p = FilePath(__file__).parent / "data" / f"{name}.kg"
    if not p.exists():
        raise FileNotFoundError(f"no packaged fixture named {name!r}")
    return p
