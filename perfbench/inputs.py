"""Seeded input generators for the benchmark workloads.

Graph documents are plain ``.kg`` dicts built here, never by the library:

* ``torus(n)`` is the product of two n-cycles, a 2-graph whose squares are
  all forced (one ascending and one descending pair per endpoint pair).
* ``twisted_circulant(n, s1, s2, rng)`` lives on Z_n: color 1 has an edge
  u -> u+a for every shift a in s1, color 2 one u -> u+t for every t in s2.
  For each start u and total shift sigma, the ascending pairs (a then t) and
  the descending pairs (t then a) with a + t = sigma are matched by a seeded
  bijection.  When shift sums repeat the squares are non-trivial.

The other generators write the files the CLI reads: cylinder functions,
measure path lists, Bernoulli weights, vertex signals and preferred paths.
Every choice comes from the ``random.Random`` passed in, so one seed gives
the same inputs on every run.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path


class GraphIndex:
    """Read-only lookups over a ``.kg`` document, for building and checking words."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.k = doc["k"]
        self.vertices = list(doc["vertices"])
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.edges = {e["id"]: e for e in doc["edges"]}
        self.into: dict[tuple[str, int], list[str]] = {}
        for eid in sorted(self.edges):
            e = self.edges[eid]
            self.into.setdefault((e["range"], e["color"]), []).append(eid)
        self.by_color = {c: sorted(i for i, e in self.edges.items() if e["color"] == c)
                         for c in range(1, self.k + 1)}
        self.swap = {}
        for sq in doc["squares"]:
            self.swap[tuple(sq["left"])] = tuple(sq["right"])
            self.swap[tuple(sq["right"])] = tuple(sq["left"])

    def color(self, eid: str) -> int:
        return self.edges[eid]["color"]

    def source(self, eid: str) -> str:
        return self.edges[eid]["source"]

    def range(self, eid: str) -> str:
        return self.edges[eid]["range"]

    def normal_form(self, word) -> tuple[str, ...]:
        """Bubble a composable word into ascending color order by square swaps."""
        w = list(word)
        changed = True
        while changed:
            changed = False
            for i in range(len(w) - 1):
                if self.color(w[i]) > self.color(w[i + 1]):
                    w[i], w[i + 1] = self.swap[(w[i], w[i + 1])]
                    changed = True
        return tuple(w)

    def degree(self, word) -> tuple[int, ...]:
        census = [0] * self.k
        for eid in word:
            census[self.color(eid) - 1] += 1
        return tuple(census)

    def paths(self, degree, range_vertex=None) -> list[tuple[str, ...]]:
        """Every normal-form word of the given degree, optionally into one vertex."""
        colors = [c for c, n in enumerate(degree, start=1) for _ in range(n)]
        out: list[tuple[str, ...]] = []

        def extend(word):
            if len(word) == len(colors):
                out.append(tuple(word))
                return
            color = colors[len(word)]
            if word:
                candidates = self.into.get((self.source(word[-1]), color), [])
            elif range_vertex is not None:
                candidates = self.into.get((range_vertex, color), [])
            else:
                candidates = self.by_color[color]
            for eid in candidates:
                word.append(eid)
                extend(word)
                word.pop()

        extend([])
        return out

    def random_word(self, colors, rng: random.Random) -> list[str]:
        """A random composable word with the given color sequence (range end first)."""
        word: list[str] = []
        for color in colors:
            if word:
                candidates = self.into[(self.source(word[-1]), color)]
            else:
                candidates = self.by_color[color]
            word.append(rng.choice(candidates))
        return word


def _pad(n: int) -> int:
    return len(str(max(n - 1, 0)))


def torus(n: int) -> dict:
    """C_n x C_n: color 1 steps the first coordinate, color 2 the second."""
    w = _pad(n)

    def vertex(i, j):
        return f"t{i % n:0{w}d}_{j % n:0{w}d}"

    def h(i, j):
        return f"h{i % n:0{w}d}_{j % n:0{w}d}"

    def u(i, j):
        return f"u{i % n:0{w}d}_{j % n:0{w}d}"

    vertices = [vertex(i, j) for i in range(n) for j in range(n)]
    edges, squares = [], []
    for i in range(n):
        for j in range(n):
            edges.append({"id": h(i, j), "color": 1, "source": vertex(i, j), "range": vertex(i + 1, j)})
            edges.append({"id": u(i, j), "color": 2, "source": vertex(i, j), "range": vertex(i, j + 1)})
            # (i,j) -> (i+1,j+1) either way round
            squares.append({"left": [h(i, j + 1), u(i, j)], "right": [u(i + 1, j), h(i, j)]})
    return {"k": 2, "vertices": vertices, "edges": edges, "squares": squares}


def twisted_circulant(n: int, s1, s2, rng: random.Random) -> dict:
    w = _pad(n)
    vertices = [f"v{i:0{w}d}" for i in range(n)]

    def eid(color, start, shift):
        return f"{'ab'[color - 1]}{start % n:0{w}d}s{shift}"

    edges = []
    for color, shifts in ((1, s1), (2, s2)):
        for start in range(n):
            for s in shifts:
                edges.append({"id": eid(color, start, s), "color": color,
                              "source": vertices[start], "range": vertices[(start + s) % n]})
    by_sum: dict[int, list[tuple[int, int]]] = {}
    for a in s1:
        for t in s2:
            by_sum.setdefault((a + t) % n, []).append((a, t))
    squares = []
    for start in range(n):
        for total in sorted(by_sum):
            pairs = by_sum[total]
            image = list(pairs)
            rng.shuffle(image)
            for (a, t), (a2, t2) in zip(pairs, image):
                # ascending word: t-step from start, then the a-step; descending: a2 then t2
                squares.append({"left": [eid(1, start + t, a), eid(2, start, t)],
                                "right": [eid(2, start + a2, t2), eid(1, start, a2)]})
    return {"k": 2, "vertices": vertices, "edges": edges, "squares": squares}


def bernoulli_weights(count: int, rng: random.Random, denominator: int = 60) -> list[Fraction]:
    """``count`` rational weights in (0, 1) summing to 1, none below 1/10."""
    floor = denominator // 10
    cuts = sorted(rng.sample(range(1, denominator - floor * count), count - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denominator - floor * count])]
    return [Fraction(p + floor, denominator) for p in parts]


def weights_arg(weights) -> str:
    return ",".join(str(w) for w in weights)


def cylinder_function(graph: GraphIndex, max_degree, terms: int, rng: random.Random) -> list[dict]:
    """Records of a cylinder function with ``terms`` terms of mixed degree <= max_degree,
    including vertex terms.  The degrees follow a fixed pattern, so that every
    seed refines to the same number of terms; paths and coefficients (uniform
    in [-1, 1]) are seeded."""
    records = []
    for i in range(terms):
        degree = [(i * step) % (d + 1) for step, d in zip((3, 5, 7), max_degree)]
        if not any(degree):
            path = ["@" + rng.choice(graph.vertices)]
        else:
            colors = [c for c, n in enumerate(degree, start=1) for _ in range(n)]
            path = graph.random_word(colors, rng)
        records.append({"path": path, "coeff": round(rng.uniform(-1.0, 1.0), 12)})
    return records


def measure_paths(graph: GraphIndex, count: int, max_len: int, rng: random.Random) -> list[str]:
    """``--path`` arguments: random composable words of lengths cycling through
    1..max_len in shuffled color order (so the CLI must rewrite them), plus a
    vertex path every tenth entry."""
    out = []
    for i in range(count):
        if i % 10 == 0:
            out.append("@" + rng.choice(graph.vertices))
            continue
        colors = [rng.randint(1, graph.k) for _ in range(1 + i % max_len)]
        out.append(",".join(graph.random_word(colors, rng)))
    return out


def signal(n: int, rng: random.Random) -> list[float]:
    return [round(rng.gauss(0.0, 1.0), 12) for _ in range(n)]


def circulant_prefs(graph: GraphIndex, n: int, rng: random.Random) -> list[dict]:
    """Preferred paths into v0 on a circulant with 1 in both shift sets and 2 in
    the color-1 set.  Vertices at distances (d, d+1) share one seeded degree
    (a, b), and the last three distances share one, so every degree class but
    the root's has at least two members."""
    root = graph.vertices[0]
    distances = list(range(1, n))
    cut = len(distances) - 3 if len(distances) % 2 else len(distances)
    groups = [distances[i:i + 2] for i in range(0, cut, 2)]
    if cut < len(distances):
        groups.append(distances[cut:])
    records = [{"vertex": root, "path": "@" + root}]
    for group in groups:
        lo, hi = group[0], group[-1]
        b = rng.randint(0, min(2, lo - 1))
        # a color-1 steps of size 1 or 2 must reach lo - b and hi - b
        a_min, a_max = -(-(hi - b) // 2), lo - b
        a = rng.randint(a_min, a_max)
        for dist in group:
            w = (n - dist) % n
            rest = dist - b
            twos = rest - a
            steps1 = [2] * twos + [1] * (a - twos)
            rng.shuffle(steps1)
            # walk backwards from the root: each edge's range is the previous source
            word, pos = [], 0
            for s in steps1:
                src = (pos - s) % n
                word.append(_circ_edge(graph, 1, src, s))
                pos = src
            for _ in range(b):
                src = (pos - 1) % n
                word.append(_circ_edge(graph, 2, src, 1))
                pos = src
            if pos != w:
                raise ValueError(f"preferred path for distance {dist} ends at {pos}, not {w}")
            records.append({"vertex": graph.vertices[w], "path": ",".join(word)})
    return records


def _circ_edge(graph: GraphIndex, color: int, start: int, shift: int) -> str:
    w = len(graph.vertices[0]) - 1
    eid = f"{'ab'[color - 1]}{start:0{w}d}s{shift}"
    if eid not in graph.edges:
        raise KeyError(f"circulant has no edge {eid}")
    return eid


def write_json(path: Path, value) -> Path:
    path.write_text(json.dumps(value))
    return path


def write_jsonl(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path
