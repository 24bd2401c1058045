"""Finite higher-rank graphs (k-graphs) and their path arithmetic.

A k-graph is stored as its colored skeleton (vertices plus edges carrying a
color in 1..k) together with the factorization squares: for every composable
pair of edges of distinct colors, the unique color-swapped pair representing
the same length-two morphism.  Every path is kept in a canonical normal form,
the edge word with all color-1 edges first, then color-2, and so on.  One
engine, `WordKernel.rewrite` on rows of edge indices, takes words to normal
form and back by the squares; `Path` is the view of one row at the API.

Degrees are plain tuples of non-negative ints of length k.  All structures
are immutable after construction and all enumeration orders are
deterministic: edge ids sort lexicographically, path lists sort by word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, permutations
from pathlib import Path as FilePath
from typing import Iterable, NamedTuple, Sequence

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
def _swap_schedule(colors: tuple[int, ...]) -> tuple[int, ...]:
    """The positions i at which rewriting a word of these colors swaps
    (w[i], w[i+1]), in order.  The swaps depend on the colors alone.

    Each step swaps the leftmost inversion.  A swap at i changes only the
    pairs next to it, and the pairs already passed hold no inversion, so the
    scan resumes one step back instead of starting over.
    """
    colors = list(colors)
    steps: list[int] = []
    i = 0
    while i < len(colors) - 1:
        if colors[i] > colors[i + 1]:
            steps.append(i)
            colors[i], colors[i + 1] = colors[i + 1], colors[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(steps)


@cache
def _degree_colors(degree: Degree) -> tuple[int, ...]:
    """The color sequence of a normal-form word of this degree."""
    return tuple(c for c, count in enumerate(degree, start=1) for _ in range(count))


class RowSchedules(NamedTuple):
    """A swap schedule per row, for rows of several color sequences: row r
    swaps at swaps[start[r]], ..., swaps[start[r] + length[r] - 1], in order."""

    swaps: np.ndarray
    start: np.ndarray
    length: np.ndarray


def _merge_schedules(heads: np.ndarray, tails: np.ndarray) -> RowSchedules:
    """The `_swap_schedule` of a normal-form word of degree heads[q] followed
    by one of degree tails[q], for each row q of the two degree arrays, in
    closed form.  The scan inserts each tail letter in turn: a letter of
    color c moves left past the head letters of larger colors, one swap per
    letter, from just before its own position down."""
    k = heads.shape[1]
    larger = (np.cumsum(heads[:, ::-1], axis=1)[:, ::-1] - heads).ravel()  # per (q, tail color)
    before = (np.cumsum(tails, axis=1) - tails).ravel()  # tail letters ahead of the color's first
    count = tails.ravel() * larger  # the swaps of each (q, color) block of tail letters
    length = count.reshape(-1, k).sum(axis=1)
    block = np.repeat(np.arange(len(count)), count)
    u = _expand_runs(np.zeros(len(count), dtype=np.intp), count)  # swap u of its block
    g = larger[block]
    swaps = np.repeat(heads.sum(axis=1), k)[block] + before[block] + u // g - 1 - u % g
    return RowSchedules(swaps, np.cumsum(length) - length, length)


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
    `edges` and `squares` are views of the columns, built on first read.
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

    def _mixed_words(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """The composable words of two distinct colors, per color sequence."""
        colors = sorted(set(self.edge_color.tolist()))
        return [(p, self.word_kernel.words(p)) for p in permutations(colors, 2)]

    def _first_named(self, words: np.ndarray) -> tuple[str, ...]:
        """The word the checks name first: its first edge first in document
        order, then each later edge least by color and then id."""
        later = [key for e in words.T[:0:-1] for key in (e, self.edge_color[e])]
        first = np.lexsort((*later, np.argsort(self._document_order)[words[:, 0]]))[0]
        return tuple(self.edge_ids[e] for e in words[first].tolist())

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
        ``_mixed_words``, to name the first missing one.

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
        words = np.concatenate([words for _, words in self._mixed_words()])
        sides = self.square_edges[:, [0, 2]] * size + self.square_edges[:, [1, 3]]
        a, b = self._first_named(words[~np.isin(words[:, 0] * size + words[:, 1], sides)])
        raise ValidationError("missing_square", f"no square covers the composable pair ({a}, {b})")

    def _check_cube_condition(self):
        """Every tri-colored word has one normal form.  Only descending colors
        give a word two swap orders, (0, 1, 0) and (1, 0, 1), so those words
        are rewritten both ways, all of one color sequence at once, and the
        first whose rewrites disagree (`_first_named`) is named."""
        kernel, split = self.word_kernel, [np.empty((0, 3), dtype=np.intp)]
        for p in combinations(sorted(set(self.edge_color.tolist()), reverse=True), 3):
            words = kernel.words(p)
            left, right = (kernel.rewrite(words.copy(), swaps) for swaps in ((0, 1, 0), (1, 0, 1)))
            split.append(words[(left != right).any(axis=1)])
        split = np.concatenate(split)
        if len(split):
            word = self._first_named(split)
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

    # -- lookups -----------------------------------------------------------

    def edge(self, eid: str) -> Edge:
        return self.edges[eid]

    def color(self, eid: str) -> int:
        return self.edges[eid].color

    def zero_degree(self) -> Degree:
        return (0,) * self.k

    @cached_property
    def word_kernel(self) -> "WordKernel":
        """The word-array tables of this graph, built on first use."""
        return WordKernel(self)

    @cached_property
    def _edge_lists(self) -> tuple[list[int], list[int], list[int]]:
        """The color, source and range columns as lists."""
        return self.edge_color.tolist(), self.edge_source.tolist(), self.edge_range.tolist()


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


Form = tuple[Degree, tuple[int, ...], int, int]


def path_of(graph: KGraph, form: Form) -> Path:
    """The `Path` of a normal form (`normal_form_rows`)."""
    degree, row, r, s = form
    ids, vertices = graph.edge_ids, graph.vertices
    return Path(graph, tuple([ids[e] for e in row]), degree, vertices[r], vertices[s])


def form_of(path: Path) -> Form:
    """The normal form (`normal_form_rows`) of a path: the inverse of `path_of`."""
    position, index = path.graph.edge_position, path.graph.vertex_index
    return path.degree, tuple([position[e] for e in path.word]), index[path.range], index[path.source]


def row_forms(rows: tuple[np.ndarray, np.ndarray, np.ndarray], degree: Degree) -> list[Form]:
    """The normal forms of rows of one degree, with ranges and sources as `WordKernel.level` gives them."""
    return [(degree, tuple(word), r, s) for word, r, s in zip(*(a.tolist() for a in rows))]


def _same_graph(what: str, *graphs: KGraph):
    """Raise ValueError unless the graphs are one graph."""
    if any(graph is not graphs[0] for graph in graphs):
        raise ValueError(f"{what} live on different graphs")


def vertex_path(graph: KGraph, vertex: str) -> Path:
    if vertex not in graph.vertex_index:
        raise CompositionError(f"unknown vertex {vertex!r}")
    return Path(graph, (), graph.zero_degree(), vertex, vertex)


def normal_form_rows(graph: KGraph, words: Sequence[Sequence[str]],
                     vertex_marks: bool = False) -> list[Form]:
    """The normal form of each composable edge word: its degree, its row of
    edge indices, and its range and source vertex index; with
    ``vertex_marks``, a one-letter word ``@v`` is the vertex v.  The words are
    checked as arrays, and the first bad one raises CompositionError: an
    unknown vertex, an empty word, else its first unknown edge id, else its
    first pair that does not compose.  The rows are then rewritten together
    by one `WordKernel.rewrite`, each by the schedule of its color pattern."""
    index, vertices, source, range_ = graph.vertex_index, graph.vertices, graph.edge_source, graph.edge_range
    marks = [w[0][1:] if vertex_marks and len(w) == 1 and w[0].startswith("@") else None for w in words]
    letters = [() if v is not None else w for v, w in zip(marks, words)]
    counts = np.fromiter(map(len, letters), np.intp, len(letters))
    ends = np.cumsum(counts)
    starts = ends - counts
    at = _lookup(graph.edge_position, [eid for word in letters for eid in word])
    # a fault at letter j: it is unknown (and reads the last edge), or it does
    # not compose with letter j + 1 of its word
    fault = at < 0
    fault[:-1] |= source[at[:-1]] != range_[at[1:]]
    fault[ends[counts > 0] - 1] &= at[ends[counts > 0] - 1] < 0
    faults = np.cumsum(np.append(0, fault))
    bad = np.array([v not in index if v is not None else not n for v, n in zip(marks, counts.tolist())],
                   dtype=bool) | (faults[ends] > faults[starts])
    if bad.any():
        i = int(np.argmax(bad))
        word, row = letters[i], at[starts[i]:ends[i]]
        if marks[i] is not None:
            raise CompositionError(f"unknown vertex {marks[i]!r}")
        if not len(row):
            raise CompositionError("empty word has no endpoints; use vertex_path")
        if (row < 0).any():
            raise CompositionError(f"unknown edge id {word[int(np.argmax(row < 0))]!r}")
        j = int(np.argmax(source[row[:-1]] != range_[row[1:]]))
        raise CompositionError(f"edges {word[j]} and {word[j + 1]} are not composable (source "
                               f"{vertices[source[row[j]]]} != range {vertices[range_[row[j + 1]]]})")
    # the edge words, padded with edge 0 to one width, each rewritten by the
    # schedule of its color pattern in one `WordKernel.rewrite`
    zero, edge_words = graph.zero_degree(), np.flatnonzero(counts)
    word_of = np.repeat(np.arange(len(edge_words)), counts[edge_words])  # of each letter
    colors = graph.edge_color[at]
    spans = list(zip(starts[edge_words].tolist(), ends[edge_words].tolist()))
    pattern = colors.tolist()
    schedules = [_swap_schedule(tuple(pattern[lo:hi])) for lo, hi in spans]
    length = np.fromiter(map(len, schedules), np.intp, len(schedules))
    if length.any():
        rows = np.zeros((len(edge_words), int(counts.max())), dtype=np.intp)
        letter = np.arange(len(at)) - starts[edge_words][word_of]
        rows[word_of, letter] = at
        graph.word_kernel.rewrite(rows, RowSchedules(np.fromiter(chain.from_iterable(schedules), np.intp),
                                                     np.cumsum(length) - length, length))
        at = rows[word_of, letter]
    census = np.bincount(word_of * graph.k + colors - 1, minlength=len(edge_words) * graph.k)
    _, sources, ranges = graph._edge_lists
    forms = [(zero, (), index[v], index[v]) if v is not None else None for v in marks]
    letters = at.tolist()
    for i, degree, (lo, hi) in zip(edge_words.tolist(), map(tuple, census.reshape(-1, graph.k).tolist()), spans):
        forms[i] = (degree, tuple(letters[lo:hi]), ranges[letters[lo]], sources[letters[hi - 1]])
    return forms


def normal_form(graph: KGraph, word: Sequence[str]) -> Path:
    """Rewrite a composable edge word to its unique normal-form path."""
    return path_of(graph, normal_form_rows(graph, [word])[0])


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
    (_, head, r, _), (_, tail, _, s) = form_of(p), form_of(q)
    row = p.graph.word_kernel.compose(np.array([head], dtype=np.intp), p.degree,
                                      np.array([tail], dtype=np.intp), q.degree)[0]
    return path_of(p.graph, (deg_add(p.degree, q.degree), row.tolist(), r, s))


def segment(path: Path, p: Sequence[int], q: Sequence[int]) -> Path:
    """The unique middle factor beta with path = alpha * beta * gamma,
    d(alpha) = p and d(beta) = q - p: the word alpha beta gamma is the
    path's word with the swaps that rewrite it undone in reverse order."""
    graph = path.graph
    p, q = as_degree(p, graph.k), as_degree(q, graph.k)
    if not (deg_le(p, q) and deg_le(q, path.degree)):
        raise DegreeRangeError(
            f"need 0 <= {p} <= {q} <= {path.degree} componentwise")
    kernel = graph.word_kernel
    colors = _degree_colors(p) + _degree_colors(deg_sub(q, p)) + _degree_colors(deg_sub(path.degree, q))
    word = kernel.rewrite(np.array([form_of(path)[1]], dtype=np.intp), _swap_schedule(colors)[::-1])[0]
    lo, hi = sum(p), sum(q)
    at = [graph.vertex_index[path.range]] + graph.edge_source[word].tolist()  # the vertex after i letters
    return path_of(graph, (deg_sub(q, p), tuple(word[lo:hi].tolist()), at[lo], at[hi]))


def enumerate_paths(graph: KGraph, degree: Sequence[int], range: str | None = None,
                    source: str | None = None) -> list[Path]:
    """All normal-form paths of the given degree, in `WordKernel.level`
    order, with the given range and source where named: a mask over the
    level's rows.  Degree-0 paths are the vertex paths, in graph vertex
    order."""
    deg = as_degree(degree, graph.k)
    kernel = graph.word_kernel
    rows = kernel.level(deg)
    keep = np.ones(len(rows[1]), dtype=bool)
    for name, column in ((range, rows[1]), (source, rows[2])):
        if name is not None:
            if name not in graph.vertex_index:
                raise CompositionError(f"unknown vertex {name!r}")
            keep &= column == graph.vertex_index[name]
    return kernel.paths(tuple(a[keep] for a in rows), deg)


def _expand_runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices first[i], first[i] + 1, ..., first[i] + count[i] - 1,
    for each i in turn."""
    ends = np.cumsum(count)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(first - (ends - count), count)


def _range_index(cells: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions of the cells by cell, each cell's run kept in position
    order; where the run of each cell 0, ..., size - 1 starts, and its length."""
    runs = np.bincount(cells, minlength=size)
    return np.argsort(cells, kind="stable"), np.cumsum(runs) - runs, runs


class LevelStack(NamedTuple):
    """The levels of some degrees laid end to end (`WordKernel.stack`): the
    paths of degrees[g] (``index`` numbers them) are positions base[g], ...,
    base[g] + counts[g] - 1, with their rows (padded with edge 0 to one
    width), ranges and sources.  Cell g * n + v of the range index lists the
    positions in level g of the paths into vertex v; ranks[g] is the rank
    table of degrees[g], 0 past its length."""

    degrees: tuple[Degree, ...]
    index: dict[Degree, int]
    base: np.ndarray
    counts: np.ndarray
    words: np.ndarray
    ranges: np.ndarray
    sources: np.ndarray
    by_range: np.ndarray
    starts: np.ndarray
    runs: np.ndarray
    ranks: np.ndarray


class WordKernel:
    """Normal-form paths as rows of edge indices, and the one engine that
    rewrites, composes and factors them.

    Edges are numbered in id order, so rows compare as their words do.
    `level` lists a level's rows with the range and source vertex index of
    each, and ``paths`` turns rows back into `Path` objects at the I/O
    boundary.

    - Every word of one color sequence is rewritten with swaps at the same
      positions (`_swap_schedule`), so `rewrite` sorts all rows of a color
      sequence at once: one gather per swap through the sorted two-way table
      of square sides.  Undone in reverse order, the swaps factor a normal
      form by degree (`segment`).  A pair that no square covers raises, and
      a lookup that misses never reads a neighbouring entry.  Rows of
      several color sequences are rewritten together, each by its own
      schedule (`RowSchedules`); `compose` of pairs of normal forms of many
      degrees reads their schedules off in closed form (`_merge_schedules`).
    - The position of a normal-form word in its level is a sum of one offset
      per letter (`rank`).  The offset of edge e at position pos counts the
      words that agree before pos and carry a smaller edge there: the
      completions, from the sources of the smaller edges with e's range (any
      range at pos 0), of the colors after pos.
    - A level's range index lists its positions by range, with where each
      range's run starts.  `matching` pairs paths with the level's paths by
      reading it: one sort of the level per call, so each composition against
      a level (`measure.extension_rows`, a cascade level of
      `wavelets.wavelet_basis`) pairs all its paths in one call.
    - `stack` lays the levels of several degrees end to end, with their range
      indexes and rank tables (`LevelStack`): `matching` and `rank` read it
      for one degree per row, as the prefix tables of the CK check do.

    Built on first use of `KGraph.word_kernel`; its one memo is the levels,
    per degree.  A range index or a rank table is built where it is read.
    """

    def __init__(self, graph: KGraph):
        self.graph = graph
        self.ids, self.position = graph.edge_ids, graph.edge_position
        self.color, self.source, self.range = graph.edge_color, graph.edge_source, graph.edge_range
        # each square side (a, b) as the key a * E + b, sorted, and the other
        # side of its square as (pair_first, pair_second)
        sides, others = (graph.square_edges[:, cols].reshape(-1, 2) for cols in ([0, 1, 2, 3], [2, 3, 0, 1]))
        key = sides[:, 0] * len(self.ids) + sides[:, 1]
        by_key = np.argsort(key)
        self.pair_key, self.pair_first, self.pair_second = (
            np.append(column[by_key], end) for column, end in (
                (key, np.iinfo(np.intp).max), (others[:, 0], -1), (others[:, 1], -1)))
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

    @cached_property
    def id_texts(self) -> np.ndarray:
        """The JSON text of each edge id (`jsonl.strings`), made once."""
        return jsonl.strings(self.ids)

    def _runs(self, color: int) -> tuple[np.ndarray, np.ndarray]:
        """The edges of one color by range, and where each range's run starts."""
        return self._into.get(color, self._empty_runs)

    def level(self, degree: Degree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows, ranges and sources of all normal-form paths of the
        degree (read-only, shared).  The rows ascend, that is, they are
        lexicographic by edge word; degree 0 lists the vertices in graph
        vertex order.  Every path listing of the library comes in this
        order."""
        if degree not in self._levels:
            if not any(degree):
                at = np.arange(len(self.graph.vertices))
                out = np.empty((len(at), 0), dtype=np.intp), at, at
            else:
                words = self.words(_degree_colors(degree))
                out = words, self.range[words[:, 0]], self.source[words[:, -1]]
            for a in out:
                a.flags.writeable = False
            self._levels[degree] = out
        return self._levels[degree]

    def stack(self, degrees: Sequence[Degree]) -> LevelStack:
        """The levels of these degrees laid end to end, each read once, with
        their range indexes and their rank tables (`LevelStack`)."""
        degrees, n = tuple(degrees), len(self.graph.vertices)
        rows, ranges, sources = zip(*map(self.level, degrees))
        counts = np.array(list(map(len, ranges)), dtype=np.intp)
        base, width = np.cumsum(counts) - counts, max(map(sum, degrees))
        words = np.zeros((int(counts.sum()), width), dtype=np.intp)
        ranks = np.zeros((len(degrees), width, len(self.ids)), dtype=np.intp)
        for g, (degree, level, lo) in enumerate(zip(degrees, rows, base.tolist())):
            words[lo:lo + len(level), :sum(degree)] = level
            ranks[g, :sum(degree)] = self._rank_offsets(_degree_colors(degree))
        ranges, sources = np.concatenate(ranges), np.concatenate(sources)
        # sorted by cell g * n + range, the positions of level g stay in its block: less base[g], they index it
        by_range, starts, runs = _range_index(np.repeat(np.arange(len(degrees)) * n, counts) + ranges, len(degrees) * n)
        return LevelStack(degrees, {degree: g for g, degree in enumerate(degrees)}, base, counts, words, ranges,
                          sources, by_range - np.repeat(base, counts), starts, runs, ranks)

    def matching(self, sources: np.ndarray, degree: Degree | LevelStack,
                 of: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (i, j) with sources[i] the range of the j-th path of the
        level of `degree`, i-major, j ascending, read off the level's range
        index.  With ``of``, `degree` is a `LevelStack` and source i is
        matched in its level of degree degrees[of[i]], j a position in that
        level, all at once through the stack's range index."""
        n = len(self.graph.vertices)
        if of is None:
            (by_range, starts, runs), at = _range_index(self.level(degree)[1], n), sources
        else:
            (by_range, starts, runs), at = (degree.by_range, degree.starts, degree.runs), of * n + sources
        count = runs[at]
        return np.repeat(np.arange(len(sources)), count), by_range[_expand_runs(starts[at], count)]

    def words(self, colors: tuple[int, ...]) -> np.ndarray:
        """All composable words of a nonempty color sequence, as new rows: each
        letter's edges and the words they extend, gathered once at the end."""
        edges, parents = [np.flatnonzero(self.color == colors[0])], []
        for c in colors[1:]:
            by_range, starts = self._runs(c)
            tail = self.source[edges[-1]]
            count = starts[tail + 1] - starts[tail]
            parents.append(np.repeat(np.arange(len(tail)), count))
            edges.append(by_range[_expand_runs(starts[tail], count)])
        words, at = np.empty((len(edges[-1]), len(colors)), dtype=np.intp), np.arange(len(edges[-1]))
        for i in range(len(colors) - 1, 0, -1):
            words[:, i] = edges[i][at]
            at = parents[i - 1][at]
        words[:, 0] = edges[0][at]
        return words

    def compose(self, heads: np.ndarray, head_degree: Degree | np.ndarray,
                tails: np.ndarray, tail_degree: Degree | np.ndarray,
                of: np.ndarray | None = None) -> np.ndarray:
        """The normal-form rows of heads[i] * tails[i]; a single head row is
        broadcast.  Each source of a head must be the range of its tail.

        With ``of``, the degrees are arrays, one degree per row, and row i is
        the product of a word of degree head_degree[of[i]] and one of
        tail_degree[of[i]]: heads, tails and products are padded past their
        words to one width, and all products are rewritten by one `rewrite`,
        each by the schedule of its pair of degrees (`_merge_schedules`).
        The tails are laid after the heads one block of rows at a time, a
        block for each run of rows whose heads have one length."""
        if of is not None:
            width, cut = heads.shape[1], head_degree.sum(axis=1)[of]
            words = np.array(heads)
            runs = np.flatnonzero(np.diff(cut, prepend=-1, append=-1)).tolist()
            for lo, hi in zip(runs, runs[1:]):
                words[lo:hi, cut[lo]:] = tails[lo:hi, :width - cut[lo]]
            swaps, start, length = _merge_schedules(head_degree, tail_degree)
            return self.rewrite(words, RowSchedules(swaps, start[of], length[of]))
        cut = heads.shape[-1]
        words = np.empty((len(tails), cut + tails.shape[1]), dtype=np.intp)
        words[:, :cut], words[:, cut:] = heads, tails
        return self.rewrite(words, _swap_schedule(_degree_colors(head_degree) + _degree_colors(tail_degree)))

    def rewrite(self, words: np.ndarray, swaps: tuple[int, ...] | RowSchedules) -> np.ndarray:
        """Apply the swaps to the rows in place, in order, and return them:
        a swap at i turns each pair (w[i], w[i+1]) into the other side of its
        square.  The `_swap_schedule` of the rows' colors takes them to normal
        form, and the same swaps reversed take them back.

        With `RowSchedules` for `swaps`, the rows are of several color
        sequences, each rewritten by its own schedule, all at once: one step
        per swap of the longest, in which the rows whose schedule has ended
        sit out.  Letters past a row's word are never read."""
        if isinstance(swaps, RowSchedules):
            flat = words.reshape(-1)  # a view: words is C-contiguous
            swaps, start, length = swaps
            order = np.argsort(-length, kind="stable")  # the live rows of a step lead
            rows, start = order * words.shape[1], start[order]
            live = len(length) - np.cumsum(np.bincount(length))[:-1]  # rows swapping at each step
            for step, n in enumerate(live.tolist()):
                at = rows[:n] + swaps[start[:n] + step]
                flat[at], flat[at + 1] = self._other_sides(flat[at], flat[at + 1])
            return words
        for i in swaps:
            words[:, i], words[:, i + 1] = self._other_sides(words[:, i], words[:, i + 1])
        return words

    def _other_sides(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The other side of the square of each pair (a[i], b[i]): one gather
        through the sorted table of square sides."""
        key = a * len(self.ids) + b
        at = self.pair_key.searchsorted(key)  # the last key is a sentinel above every pair
        hit = self.pair_key[at] == key
        if not hit.all():
            miss = np.argmin(hit)
            raise ValidationError(
                "missing_square",
                f"no square covers the composable pair ({self.ids[a[miss]]}, {self.ids[b[miss]]})")
        return self.pair_first[at], self.pair_second[at]

    def rank(self, words: np.ndarray, degree: Degree | LevelStack,
             of: np.ndarray | None = None) -> np.ndarray:
        """The position of each normal-form row in the level of `degree`
        (nonzero: a degree-0 path is ranked by its vertex index).  With
        ``of``, `degree` is a `LevelStack` at least as wide as the rows, and
        row r is of its degree degrees[of[r]], its letters past its word
        ignored; a zero degree ranks every row 0."""
        if of is None:
            offsets = self._rank_offsets(_degree_colors(degree))
            return offsets[np.arange(len(offsets)), words].sum(axis=1)
        return degree.ranks[of[:, None], np.arange(words.shape[1]), words].sum(axis=1)

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
        return [path_of(self.graph, form) for form in row_forms(rows, degree)]


def vertex_matrices(graph: KGraph) -> list[np.ndarray]:
    """Per-color integer matrices A_i with A_i[v, w] = #(color-i edges w -> v).

    Row and column order follow the graph vertex order; entry (v, w) counts
    edges with range v and source w, so A_i x propagates mass from sources to
    ranges.  The matrices commute pairwise: the squares validated at
    construction force it (see ``KGraph._check_square_coverage``).
    """
    n = len(graph.vertices)
    counts = np.bincount(_vertex_cells(graph), minlength=graph.k * n * n).astype(np.int64, copy=False)
    return list(counts.reshape(graph.k, n, n))


def path_counts(graph: KGraph, upto: Degree) -> np.ndarray:
    """|Lambda^a| at index a, for every degree a <= upto: the entries of
    1^T A_1^{a_1} ... A_k^{a_k} 1 (`vertex_matrices`) as exact Python
    integers in an object array, counted one edge color at a time with no
    path listed."""
    ends = np.zeros((*(t + 1 for t in upto), len(graph.vertices)), dtype=object)  # by degree and source
    ends[graph.zero_degree()] = 1
    for a in np.ndindex(*ends.shape[:-1]):  # a less its last color comes before a
        if any(a):
            c = max(i for i, ai in enumerate(a) if ai)
            edges = graph.edge_color == c + 1
            np.add.at(ends[a], graph.edge_source[edges],
                      ends[a[:c] + (a[c] - 1,) + a[c + 1:]][graph.edge_range[edges]])
    return ends.sum(axis=-1)


def _path_count(graph: KGraph, level: Degree, cap: int) -> int:
    """|Lambda^level| (`path_counts` at one degree) where it is below
    ``cap``, else some count >= cap, with no path built: a count per source
    vertex, stepped back one edge at a time as `path_counts` steps, each
    entry saturated at cap.  The colors whose edges reach every vertex come
    last, as a step of such a color loses no path: the count stops once it
    reaches cap with only such steps left."""
    n, steps = len(graph.vertices), []
    for c, d in enumerate(level, start=1):
        if d:
            edges = graph.edge_color == c
            source, range_ = graph.edge_source[edges], graph.edge_range[edges]
            steps.append((bool(np.bincount(range_, minlength=n).all()), d, source, range_))
    steps.sort(key=lambda step: step[0])
    counts = np.ones(n)  # exact integers: every sum stays far below 2^53
    for keeps, d, source, range_ in steps:
        for _ in range(d):
            if keeps and counts.sum() >= cap:
                break
            counts = np.minimum(np.bincount(source, weights=counts[range_], minlength=n), cap)
    return int(counts.sum())


def is_zero_one(graph: KGraph) -> bool:
    """Whether every vertex matrix is 0/1-valued: no two edges share a
    color, a range and a source (`_vertex_cells`), and no matrix is built."""
    cells = np.sort(_vertex_cells(graph))
    return not (cells[1:] == cells[:-1]).any()


def _vertex_cells(graph: KGraph) -> np.ndarray:
    """The vertex-matrix entry of each edge: (color, range, source) as one index."""
    n = len(graph.vertices)
    return ((graph.edge_color - 1) * n + graph.edge_range) * n + graph.edge_source


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
    try:
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
    except UnicodeDecodeError as exc:
        raise ParseError(f"the document is not UTF-8 text: {exc}") from exc
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
