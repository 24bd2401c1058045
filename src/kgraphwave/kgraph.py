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
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path as FilePath
from typing import Iterable, Sequence

import numpy as np

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


class KGraph:
    """A finite k-graph: validated skeleton plus factorization squares."""

    def __init__(self, k: int, vertices: Sequence[str], edges: Iterable[Edge],
                 squares: Iterable[FactorizationSquare]):
        self.k = int(k)
        self.vertices = tuple(vertices)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        edges = list(edges)
        if len({e.id for e in edges}) != len(edges):
            raise ValidationError("duplicate_id", "duplicate edge ids")
        self.edges = {e.id: e for e in edges}
        self.squares = tuple(squares)
        self._validate_skeleton()
        self._index_edges()
        self._swap = self._build_swap()
        self._check_square_coverage()
        if self.k >= 3:
            self._check_cube_condition()

    # -- construction-time validation -------------------------------------

    def _validate_skeleton(self):
        if self.k < 1:
            raise ValidationError("color_out_of_range", f"k must be >= 1, got {self.k}")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate_id", "duplicate vertex names")
        for e in self.edges.values():
            if not 1 <= e.color <= self.k:
                raise ValidationError(
                    "color_out_of_range", f"edge {e.id} has color {e.color}, k={self.k}")
            for v in (e.source, e.range):
                if v not in self.vertex_index:
                    raise ValidationError(
                        "dangling_reference", f"edge {e.id} references unknown vertex {v}")

    def _index_edges(self):
        """The edge arrays, edge i being the i-th id in sorted order:
        ``edge_ids``, ``edge_position`` (id to i), and the ``edge_color``,
        ``edge_source`` and ``edge_range`` (vertex index) of each as read-only
        intp arrays; and the edge ids by (range, color), sorted by id."""
        self.edge_ids = tuple(sorted(self.edges))
        self.edge_position = {eid: i for i, eid in enumerate(self.edge_ids)}
        ordered = [self.edges[eid] for eid in self.edge_ids]
        index, count = self.vertex_index, len(ordered)
        self.edge_color = np.fromiter((e.color for e in ordered), np.intp, count)
        self.edge_source = np.fromiter((index[e.source] for e in ordered), np.intp, count)
        self.edge_range = np.fromiter((index[e.range] for e in ordered), np.intp, count)
        for a in (self.edge_color, self.edge_source, self.edge_range):
            a.flags.writeable = False
        into: dict[tuple[str, int], list[str]] = defaultdict(list)
        for e in ordered:
            into[e.range, e.color].append(e.id)
        self._by_range_color = {key: tuple(ids) for key, ids in into.items()}

    def _build_swap(self) -> dict[tuple[str, str], tuple[str, str]]:
        edges = self.edges
        swap: dict[tuple[str, str], tuple[str, str]] = {}
        for sq in self.squares:
            left, right = sq.left, sq.right
            try:
                (le, lf), (rf, re) = [edges[i] for i in left], [edges[i] for i in right]
            except KeyError:
                eid = next(i for i in (*left, *right) if i not in edges)
                raise ValidationError(
                    "dangling_reference", f"square references unknown edge {eid}") from None
            low, high = le.color, lf.color
            if not (low < high and rf.color == high and re.color == low):
                raise ValidationError(
                    "non_bijective_squares",
                    f"square {left}/{right} does not pair ascending with descending colors")
            if sq.color_pair != (low, high):
                raise ValidationError(
                    "non_bijective_squares", f"square {left} color pair mismatch")
            if le.source != lf.range or rf.source != re.range:
                raise ValidationError(
                    "non_bijective_squares",
                    f"square side {left} or {right} is not composable")
            if le.range != rf.range or lf.source != re.source:
                raise ValidationError(
                    "non_bijective_squares",
                    f"square {left}/{right} sides have different endpoints")
            # the colors differ, so left != right
            for key in (left, right):
                if key in swap:
                    raise ValidationError(
                        "non_bijective_squares", f"edge pair {key} appears in two squares")
            swap[left], swap[right] = right, left
        return swap

    def _mixed_pairs(self):
        """Composable two-color words (a, b), b taken from the range index."""
        for a in self.edges.values():
            for color in range(1, self.k + 1):
                if color != a.color:
                    for b in self.edges_into(a.source, color):
                        yield a.id, b

    def _check_square_coverage(self):
        """Every composable two-color word lies in a square.

        ``_build_swap`` has shown that every key of ``_swap`` is a composable
        two-color word and that no key repeats, so the keys are a subset of
        those words, and they cover all of them exactly when the two sets
        have the same size.  A word (a, b) takes b among the edges into s(a)
        of a color other than c(a), so there are
        sum_a (indeg(s(a)) - indeg_{c(a)}(s(a))) words: a bincount of the
        edge ranges, then one per color that edges carry, each O(n + E).
        Only when the count falls short does the scan of ``_mixed_pairs``
        run, to name the first missing pair.

        This and ``_build_swap`` force the vertex matrices to commute.  For
        i < j, (A_i A_j)[v, w] counts the composable words (e, f) from w to v
        with e of color i and f of color j, and (A_j A_i)[v, w] those with the
        colors swapped.  The squares pair these two sets one to one: every
        word is covered, a square joins an ascending and a descending word
        with the same endpoints, and no word lies in two squares.
        """
        n = len(self.vertices)
        sources, ranges, colors = self.edge_source, self.edge_range, self.edge_color
        words = int(np.bincount(ranges, minlength=n)[sources].sum())
        for c in set(colors.tolist()):
            same = colors == c
            words -= int(np.bincount(ranges[same], minlength=n)[sources[same]].sum())
        if len(self._swap) == words:
            return
        for a, b in self._mixed_pairs():
            if (a, b) not in self._swap:
                raise ValidationError(
                    "missing_square", f"no square covers the composable pair ({a}, {b})")

    def _check_cube_condition(self):
        for x, y in self._mixed_pairs():
            for color in range(1, self.k + 1):
                if color in (self.color(x), self.color(y)):
                    continue
                for z in self.edges_into(self.edges[y].source, color):
                    word = (x, y, z)
                    if self._rewrite(word, leftmost=True) != self._rewrite(word, leftmost=False):
                        raise ValidationError(
                            "cube_condition",
                            f"tri-colored word {word} has order-dependent normal form")

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

    def _check_word(self, word: Sequence[str]) -> tuple[int, ...]:
        """The colors of a composable word's edges.  Raises CompositionError
        at the first unknown edge, else at the first pair that does not
        compose."""
        try:
            edges = [self.edges[eid] for eid in word]
        except KeyError:
            eid = next(eid for eid in word if eid not in self.edges)
            raise CompositionError(f"unknown edge id {eid!r}") from None
        for a, b in zip(edges, edges[1:]):
            if a.source != b.range:
                raise CompositionError(
                    f"edges {a.id} and {b.id} are not composable "
                    f"(source {a.source} != range {b.range})")
        return tuple([e.color for e in edges])

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
        return {
            "k": self.k,
            "vertices": list(self.vertices),
            "edges": [
                {"id": e.id, "color": e.color, "source": e.source, "range": e.range}
                for e in (self.edges[i] for i in sorted(self.edges))
            ],
            "squares": [
                {"left": list(sq.left), "right": list(sq.right)}
                for sq in self.squares
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
    colors = graph._check_word(word)
    word = graph._rewrite(word, colors=colors)
    return Path(graph, word, tuple(colors.count(c) for c in range(1, graph.k + 1)),
                graph.edges[word[0]].range, graph.edges[word[-1]].source)


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
        # rewriting to normal form only ever swaps a descending pair
        pos, edges = self.position, graph.edges
        pairs = sorted((pos[a] * len(self.ids) + pos[b], pos[c], pos[d])
                       for (a, b), (c, d) in graph._swap.items()
                       if edges[a].color > edges[b].color)
        pairs.append((np.iinfo(np.intp).max, -1, -1))
        self.pair_key, self.pair_left, self.pair_right = (
            np.array(column, dtype=np.intp) for column in zip(*pairs))
        # per color: its edges by range, then id, and where each range's run starts
        self._into = {}
        n = len(graph.vertices)
        for c in range(1, graph.k + 1):
            of_color = np.flatnonzero(self.color == c)
            by_range = of_color[np.argsort(self.range[of_color], kind="stable")]
            self._into[c] = by_range, np.searchsorted(self.range[by_range], np.arange(n + 1))
        self._levels: dict[Degree, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._offsets: dict[Degree, np.ndarray] = {}

    def edges_of(self, color: int) -> np.ndarray:
        """The edges of one color, by range."""
        return self._into[color][0]

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
                    by_range, starts = self._into[c]
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
        keys, left, right = self.pair_key, self.pair_left, self.pair_right
        for i in _swap_schedule(_degree_colors(head_degree) + _degree_colors(tail_degree)):
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
            by_range, starts = self._into[colors[pos]]
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

    Accepts a dict, a JSON string, or a filesystem path to a ``.kg`` file.
    Unknown fields are rejected at every level.
    """
    if isinstance(document, FilePath):
        document = document.read_text()
    if isinstance(document, str):
        stripped = document.lstrip()
        if not stripped.startswith("{"):
            document = FilePath(document).read_text()
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
    edges = []
    for rec in document["edges"]:
        if not (type(rec) is dict and rec.keys() == _EDGE_FIELDS and type(rec["id"]) is str
                and type(rec["color"]) is int and type(rec["source"]) is str
                and type(rec["range"]) is str):
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
        edges.append(Edge(rec["id"], rec["color"], rec["source"], rec["range"]))
    edge_color = {e.id: e.color for e in edges}

    squares = []
    for rec in document["squares"]:
        if not (type(rec) is dict and rec.keys() == _SQUARE_FIELDS
                and type(rec["left"]) is list and type(rec["right"]) is list
                and len(rec["left"]) == 2 and len(rec["right"]) == 2):
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
        left, right = tuple(rec["left"]), tuple(rec["right"])
        # KGraph._build_swap rejects squares that name unknown edges
        pair = (edge_color.get(left[0]), edge_color.get(left[1]))
        squares.append(FactorizationSquare(pair, left, right))

    return KGraph(document["k"], document["vertices"], edges, squares)


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
