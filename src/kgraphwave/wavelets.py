"""Path-space wavelet families, their transforms, and the Markov variant.

For a shape J with positive entries, each vertex v carries the paths D_v^J
of degree J into v.  Under the measure inner product on coefficient vectors,
the constant vector spans the scaling direction and any orthonormal basis of
its complement gives the wavelet functions f^{m,v}.  Shifting the f^{m,v} by
the prefixing isometries S_lambda over paths of degree jJ produces mutually
orthogonal layers whose union with the normalized vertex indicators is an
orthonormal basis of the level-nJ cylinder functions, for every depth n.

The same recipe on the one-vertex bouquet with a Bernoulli measure gives the
word-shift wavelet system for the full shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import jsonl
from .errors import BadShape, BadWeights, EmptyDv, ShapeMismatch, TooLarge
from .kgraph import (
    Degree,
    KGraph,
    _path_count,
    as_degree,
    bouquet_graph,
    deg_scale,
)
from .measure import CylinderFn, MeasureSpec
from .orthobasis import complement_basis, constant_unit_vector
from .perron import PFData, pf_data
from .sbfs import LevelSpace, level_space


# The most word entries (paths times the edges of each) of a level that
# `build_wavelet_family` or `wavelet_basis` builds, and the most entries of
# each dense basis `subspace_compare` forms.  2^24 admits ledrappier (1,1)
# at depth 8 (262,144 paths of 16 edges: 4.2M entries, a listing of about
# 7 s and 1.4 GB) and refuses depth 9 (18.9M entries) and --compare 6
# (two dense 16,384^2 bases).
WAVELET_ENTRY_LIMIT = 2 ** 24


def check_wavelet_level(graph: KGraph, level: Sequence[int]) -> int:
    """The word entries |Lambda^level| * |level| of a level's rows, counted
    before any is built; above `WAVELET_ENTRY_LIMIT` it raises TooLarge."""
    total = sum(level)
    paths = _path_count(graph, level, WAVELET_ENTRY_LIMIT // max(total, 1) + 1)
    if paths * total > WAVELET_ENTRY_LIMIT:
        raise TooLarge(f"the paths of level {tuple(level)} and their {total} edges each hold more than "
                       f"{WAVELET_ENTRY_LIMIT} word entries, the limit")
    return paths * total


@dataclass(frozen=True)
class VertexBlock:
    """Per-vertex wavelet data: D_v^J as the ascending ``positions`` of its
    paths in the family's level-J space, and the orthonormal coefficient
    vectors over them (row 0 constant, rows 1.. zero-mean)."""

    vertex: str
    positions: np.ndarray
    c_vectors: np.ndarray


@dataclass(frozen=True)
class WaveletFamily:
    """Scaling functions and level-zero wavelets for one shape J.

    The family is held as the level-J space and one `VertexBlock` per
    vertex.  ``scaling`` (per vertex, Theta_v / sqrt(x_v)), ``wavelets``
    (((m, v), f^{m,v}) in vertex order, m ascending) and `wavelet` are
    `CylinderFn` views, built on read from the level rows; `listing` writes
    the same records from the rows.
    """

    graph: KGraph
    spec: MeasureSpec
    shape: Degree
    space: LevelSpace = field(repr=False)
    blocks: dict

    @cached_property
    def scaling(self) -> tuple[CylinderFn, ...]:
        # the constant row rebuilds Theta_v / sqrt(M(Z(v))) after coarsening
        vertex_space = level_space(self.spec, self.graph.zero_degree())
        return tuple(vertex_space.function_at(np.array([v]), b.c_vectors[0, :1])
                     for v, b in enumerate(self.blocks.values()))

    @cached_property
    def wavelets(self) -> tuple[tuple[tuple[int, str], CylinderFn], ...]:
        return tuple(((m, v), self.wavelet(m, v))
                     for v, b in self.blocks.items() for m in range(1, len(b.c_vectors)))

    def wavelet(self, m: int, vertex: str) -> CylinderFn:
        block = self.blocks[vertex]
        return self.space.function_at(block.positions, block.c_vectors[m])

    def listing(self) -> str:
        """The JSON lines of the family: per vertex its scaling function,
        then every f^{m,v}, each with the term records of its `CylinderFn`.

        A scaling function is one level-0 term; f^{m,v} sits at the
        positions of D_v^J with the values of row m.
        """
        vertices = jsonl.strings(self.graph.vertices)
        blocks = list(self.blocks.values())
        ms = jsonl.integers(max(len(b.c_vectors) for b in blocks))
        counts = [len(b.c_vectors) - 1 for b in blocks]
        heads = np.concatenate([
            jsonl.cells('{"kind": "scaling", "vertex": ', vertices, ', "m": 0'),
            jsonl.cells('{"kind": "wavelet", "vertex": ', np.repeat(vertices, counts),
                        ', "m": ', np.concatenate([ms[1:count + 1] for count in counts]))])
        n = len(blocks)
        vertex_heads = level_space(self.spec, self.graph.zero_degree()).term_heads
        members = [(np.array([v]), b.c_vectors[0, :1]) for v, b in enumerate(blocks)]
        members += [(n + b.positions, row) for b in blocks for row in b.c_vectors[1:]]
        return jsonl.listing(heads, np.concatenate([vertex_heads, self.space.term_heads]), members)


def build_wavelet_family(graph: KGraph, pf: PFData | None = None,
                         shape: Sequence[int] = None,
                         spec: MeasureSpec | None = None) -> WaveletFamily:
    """Construct the shape-J scaling functions and wavelets f^{m,v}.

    D_v^J is the paths of range v in the level-J space, in its order; the
    coefficient vectors come from their masses."""
    if shape is None:
        raise BadShape("a wavelet shape is required, e.g. shape=(1, 1)")
    if spec is None:
        spec = MeasureSpec.perron_frobenius(graph, pf if pf is not None else pf_data(graph))
    shape = as_degree(shape, graph.k)
    if any(j < 1 for j in shape):
        raise BadShape(f"every shape entry must be >= 1, got {shape}")
    check_wavelet_level(graph, shape)

    space = level_space(spec, shape)
    blocks = {}
    for i, v in enumerate(graph.vertices):
        positions = np.flatnonzero(space.ranges == i)
        if not len(positions):
            raise EmptyDv(f"no paths of shape {shape} reach vertex {v}")
        weights = space.weights[positions]
        c = np.vstack([constant_unit_vector(weights)[None, :], complement_basis(weights)])
        blocks[v] = VertexBlock(v, positions, c)
    return WaveletFamily(graph, spec, shape, space, blocks)


class MemberSet:
    """Functions over one level space ``space``: each member in label order
    as the ascending positions it is nonzero on and its values there
    (``_members``), and its label text in ``heads`` (`jsonl`).  The views
    ``labels`` and ``functions`` are built on first access."""

    @cached_property
    def labels(self) -> tuple[dict, ...]:
        """One record per member: the records of `heads`."""
        return tuple(jsonl.parse(jsonl.text(self.heads, "}\n")))

    @cached_property
    def functions(self) -> tuple[CylinderFn, ...]:
        return tuple(self.space.function_at(at, values) for at, values in self._members())

    def gram(self) -> np.ndarray:
        """The Gram matrix of the members, from dense rows built for the call."""
        mat = np.zeros((len(self.heads), len(self.space.weights)))
        for i, (at, values) in enumerate(self._members()):
            mat[i, at] = values
        return (mat * self.space.weights[None, :]) @ mat.T

    def listing(self) -> str:
        """The JSON lines of the members: per member its label and its term records."""
        return jsonl.listing(self.heads, self.space.term_heads, self._members())

    def to_records(self) -> list[dict]:
        """The records of `listing`."""
        return jsonl.parse(self.listing())


@dataclass(frozen=True)
class _Group:
    """The layer-j wavelets S_lambda f^{m,v} of one vertex v, lambdas by word.

    ``lams`` indexes those lambdas in cascade level jJ; their blocks
    lambda * D_v^J fill ``fine`` of level (j+1)J one after another, and
    their coefficients fill ``coeffs`` of the label order, m fastest.
    """

    lams: np.ndarray
    fine: slice
    coeffs: slice
    factors: np.ndarray  # prefix_factor(lambda)
    c: np.ndarray        # C_v[1:], the zero-mean rows


@dataclass(frozen=True)
class WaveletBasis(MemberSet):
    """The depth-n orthonormal basis at cylinder level nJ, a `MemberSet`.

    The basis is held as the weighted-Haar cascade over the levels jJ,
    j <= n: ``layers[j]`` maps level (j+1)J to the layer-j wavelets and
    level jJ, ``shifts[j]`` holds the word-kernel rows of level jJ, and
    ``order`` places each cascade node of level nJ, one per basis vector,
    among the positions of ``space``.  ``heads``, the label text of each
    basis vector, is built on first access.
    """

    family: WaveletFamily
    depth: int
    space: LevelSpace
    layers: tuple[tuple[_Group, ...], ...] = field(repr=False)
    order: np.ndarray = field(repr=False)
    shifts: tuple[np.ndarray, ...] = field(repr=False)

    @cached_property
    def heads(self) -> np.ndarray:
        """The JSON text of each basis vector's label record, up to its
        closing brace (`jsonl`), from its columns: kind, layer j, vertex, m,
        and the word-kernel row of its shift."""
        graph = self.family.graph
        vertices = jsonl.strings(graph.vertices)
        ms = jsonl.integers(max(len(g.c) for layer in self.layers for g in layer) + 1)
        heads = [jsonl.cells('{"kind": "scaling", "vertex": ', vertices)]
        for j, (layer, words) in enumerate(zip(self.layers, self.shifts)):
            shift = jsonl.word_lists(graph.word_kernel.id_texts, words)
            heads.append(jsonl.cells(
                f'{{"kind": "wavelet", "j": {j}, "vertex": ',
                np.concatenate([np.repeat(vertices[v:v + 1], g.coeffs.stop - g.coeffs.start)
                                for v, g in enumerate(layer)]),
                ', "m": ', np.concatenate([np.tile(ms[1:len(g.c) + 1], len(g.lams)) for g in layer]),
                ', "shift": [', np.concatenate([np.repeat(shift[g.lams], len(g.c)) for g in layer]), "]"))
        return np.concatenate(heads)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense N x N view, one row per basis vector: the synthesis of the identity."""
        out = np.empty((len(self.order),) * 2)
        out[:, self.order] = self._synthesis(np.eye(len(self.order)))
        return out

    def _scaling(self) -> np.ndarray:
        return np.array([self.family.blocks[v].c_vectors[0, 0] for v in self.family.graph.vertices])

    def _analysis(self, a: np.ndarray) -> np.ndarray:
        """Coefficients from a = f * weights over the cascade's level nJ:
        each layer reads its blocks, then sums them into the coarser level."""
        out = np.empty(a.shape)
        for layer in reversed(self.layers):
            coarse = np.empty(sum(len(g.lams) for g in layer))
            for g in layer:
                blocks = a[g.fine].reshape(len(g.lams), g.c.shape[1])
                out[g.coeffs] = (g.factors[:, None] * (blocks @ g.c.T)).ravel()
                coarse[g.lams] = blocks.sum(axis=-1)
            a = coarse
        out[:len(a)] = self._scaling() * a
        return out

    def _synthesis(self, coeffs: np.ndarray) -> np.ndarray:
        """The transpose of `_analysis`: values over the cascade's level nJ."""
        lead = coeffs.shape[:-1]
        s = coeffs[..., :len(self.family.graph.vertices)] * self._scaling()
        for layer in self.layers:
            fine = np.empty(lead + (layer[-1].fine.stop,))
            for g in layer:
                d = coeffs[..., g.coeffs].reshape(lead + (len(g.lams), g.c.shape[0]))
                block = s[..., g.lams, None] + g.factors[:, None] * (d @ g.c)
                fine[..., g.fine] = block.reshape(lead + (-1,))
            s = fine
        return s

    def _members(self):
        """Each basis vector in label order, as the ascending space positions
        it is nonzero on and its values there.

        A member lives on the level-nJ descendants of its cascade node: the
        scaling function of v on the paths from v, S_lambda f^{m,v} on those
        of lambda * p with the value factor(lambda) * C_v[m, p].  Every
        other step of the one-hot synthesis adds a zero, so the values are
        its row of ``matrix`` to the last bit.
        """
        # ancestors[j][i]: the level-jJ node above level-nJ node i; child[j][i]:
        # the index p of level-jJ node i in the block of its parent
        ancestors, child = [np.arange(len(self.order))], []
        for layer in reversed(self.layers):
            parent = np.concatenate([np.repeat(g.lams, g.c.shape[1]) for g in layer])
            child.append(np.concatenate([np.tile(np.arange(g.c.shape[1]), len(g.lams)) for g in layer]))
            ancestors.append(parent[ancestors[-1]])
        ancestors.reverse()
        child.reverse()  # child[j] is for level (j+1)J
        for v, value in enumerate(self._scaling()):  # on the paths from v
            at = np.flatnonzero(self.space.ranges == v)
            yield at, np.full(len(at), value)
        for j, layer in enumerate(self.layers):
            # nodes by level-jJ ancestor, then by space position: each run ascends
            by_node = np.lexsort((self.order, ancestors[j]))
            width = sum(len(g.lams) for g in layer)
            bounds = np.searchsorted(ancestors[j][by_node], np.arange(width + 1))
            block_index = child[j][ancestors[j + 1][by_node]]
            for g in layer:
                for lam, factor in zip(g.lams, g.factors):
                    run = slice(bounds[lam], bounds[lam + 1])
                    for row in g.c:
                        yield self.order[by_node[run]], factor * row[block_index[run]]

    def coefficient_lines(self, coeffs: np.ndarray) -> str:
        """The JSON lines of coefficients: per basis vector its label and
        its coefficient."""
        return jsonl.text(self.heads, ', "coeff": ', jsonl.numbers(coeffs), "}\n")


def wavelet_basis(family: WaveletFamily, depth: int,
                  space: LevelSpace | None = None) -> WaveletBasis:
    """Orthonormal basis of level-nJ cylinder functions: the normalized
    vertex indicators plus all S_lambda f^{m,v} with d(lambda) = jJ, j < n.

    Cascade level 0 is the vertices; level (j+1)J lists lambda * p for the
    lambdas of level jJ, grouped by source vertex v and by word, and p in
    D_v^J.  The levels are word-kernel rows (`KGraph.word_kernel`): each is
    composed as a whole, and sorting by word is sorting by rank.  ``space``
    reuses a level space already built for level nJ; without one, above
    `WAVELET_ENTRY_LIMIT` word entries at level nJ it raises TooLarge
    before it builds a level.
    """
    if depth < 1:
        raise BadShape(f"depth must be >= 1, got {depth}")
    graph, spec, shape = family.graph, family.spec, family.shape
    level = deg_scale(depth, shape)
    if space is None:
        check_wavelet_level(graph, level)
        space = level_space(spec, level)
    elif space.level != level:
        raise ShapeMismatch(f"level space is at {space.level}, the basis needs {level}")

    kernel = graph.word_kernel
    at = np.arange(len(graph.vertices))
    words, sources, ranks = np.empty((len(at), 0), dtype=np.intp), at, at
    layers, shifts = [], []
    n_coeffs = len(at)
    for j in range(depth):
        lam_degree = deg_scale(j, shape)
        factors = spec.prefix_factors(lam_degree, words)
        groups, heads, tails, tail_sources = [], [], [], []
        n_fine = 0
        for v, name in enumerate(graph.vertices):
            block, c = family.blocks[name].positions, family.blocks[name].c_vectors[1:]
            lams = np.flatnonzero(sources == v)
            lams = lams[np.argsort(ranks[lams], kind="stable")]
            groups.append(_Group(lams, slice(n_fine, n_fine + len(lams) * len(block)),
                                 slice(n_coeffs, n_coeffs + len(lams) * len(c)),
                                 factors[lams], c))
            n_fine += len(lams) * len(block)
            n_coeffs += len(lams) * len(c)
            heads.append(np.repeat(words[lams], len(block), axis=0))
            tails.append(np.tile(family.space.words[block], (len(lams), 1)))
            tail_sources.append(np.tile(family.space.sources[block], len(lams)))
        layers.append(tuple(groups))
        shifts.append(words)
        words = kernel.compose(np.concatenate(heads), lam_degree, np.concatenate(tails), shape)
        sources = np.concatenate(tail_sources)
        ranks = kernel.rank(words, deg_scale(j + 1, shape))
    return WaveletBasis(family, depth, space, tuple(layers), ranks, tuple(shifts))


def analyze(basis: WaveletBasis, f: CylinderFn) -> np.ndarray:
    """Coefficients <b_i, f> of f against the basis vectors, by the
    cascade: O(N * max |D_v^J|) time and O(N) memory for N basis vectors."""
    space = basis.space
    return basis._analysis((space.weights * space.vector_of(f))[basis.order])


def synthesize_vector(basis: WaveletBasis, coeffs: Sequence[float]) -> np.ndarray:
    """The values over ``basis.space`` of the combination sum_i coeffs_i b_i,
    by the transpose of the `analyze` cascade."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (len(basis.order),):
        raise ShapeMismatch(f"need {len(basis.order)} coefficients")
    out = np.empty(len(coeffs))
    out[basis.order] = basis._synthesis(coeffs)
    return out


def synthesize(basis: WaveletBasis, coeffs: Sequence[float]) -> CylinderFn:
    """The combination sum_i coeffs_i b_i as a level-nJ cylinder function."""
    return basis.space.function_of(synthesize_vector(basis, coeffs))


# -- Markov (Bernoulli full-shift) wavelets --------------------------------

# The most members `markov_wavelets` builds.  A system of N members lists
# N * (1 + depth * (n_letters - 1)) terms, at most N**1.5; at this limit one
# run peaks near 160 MB.
MARKOV_MEMBER_LIMIT = 2 ** 14


@dataclass(frozen=True)
class MarkovWaveletSystem(MemberSet):
    """Scaling functions and shifted wavelets on words over 0..N-1, a
    `MemberSet`.

    ``level`` is the common word length n+1 every member refines to; the
    system is an orthonormal basis of the level-(n+1) cylinder functions,
    held over ``space``.  Each member covers one run of consecutive
    positions: ``layers`` holds, for the scaling functions and then for each
    wavelet layer, the start of each member's run and, row by row, its
    values there, members in label order.
    """

    graph: KGraph
    spec: MeasureSpec
    depth: int
    level: int
    heads: np.ndarray = field(repr=False)
    space: LevelSpace = field(repr=False)
    layers: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    def _members(self):
        """Each member in label order, as its positions and its values there."""
        for starts, rows in self.layers:
            for start, row in zip(starts.tolist(), rows):
                yield np.arange(start, start + len(row)), row


def markov_wavelets(n_letters: int, weights: Sequence[float], depth: int) -> MarkovWaveletSystem:
    """The word-shift wavelet system for the full shift on n_letters symbols.

    Scaling functions are the normalized letter indicators; base wavelets
    combine two-letter cylinders through the zero-mean vectors of the
    weighted inner product; deeper layers are word shifts.  The combined
    system has n_letters**(depth+1) members; above `MARKOV_MEMBER_LIMIT`
    it raises TooLarge before it builds anything.

    Level positions count words in base n_letters, so the layer-m wavelet
    S_w psi_{j,a} covers the n**(depth-m) positions from (w*n + a) *
    n**(depth-m) on, with the value prefix_factor(w) * C[j-1, b] / sqrt(p_a)
    repeated over the extensions of each w*a*b.
    """
    if n_letters < 2:
        raise BadWeights("need at least two letters")
    if depth < 0:
        raise BadWeights("depth must be >= 0")
    members = 1
    for _ in range(depth + 1):  # n_letters**(depth + 1), up to the first power past the limit
        members *= n_letters
        if members > MARKOV_MEMBER_LIMIT:
            raise TooLarge(f"{n_letters} letters at depth {depth} give {n_letters}^{depth + 1} "
                           f"members, above the limit of {MARKOV_MEMBER_LIMIT}")
    graph = bouquet_graph(n_letters)
    spec = MeasureSpec.bernoulli(graph, weights)
    p = spec.w
    level = depth + 1
    space = level_space(spec, (level,))
    kernel = graph.word_kernel
    letter_texts, ms = kernel.id_texts, jsonl.integers(n_letters)

    run = n_letters ** depth
    heads = [jsonl.cells('{"kind": "scaling", "letter": ', letter_texts)]
    layers = [(np.arange(n_letters) * run, np.repeat((1.0 / np.sqrt(p))[:, None], run, axis=1))]
    psi = complement_basis(p)[None, :, :] / np.sqrt(p)[:, None, None]  # [a, j - 1, b]
    for m in range(depth):
        words = kernel.level((m,))[0]
        run = n_letters ** (depth - m)
        values = spec.prefix_factors((m,), words)[:, None, None, None] * psi[None]
        layers.append((np.repeat(np.arange(len(words) * n_letters) * run, n_letters - 1),
                       np.repeat(values.reshape(-1, n_letters), run // n_letters, axis=1)))
        heads.append(jsonl.cells(
            f'{{"kind": "wavelet", "layer": {m}, "word": [',
            np.repeat(jsonl.word_lists(letter_texts, words), n_letters * (n_letters - 1)),
            '], "letter": ', np.tile(np.repeat(letter_texts, n_letters - 1), len(words)),
            ', "m": ', np.tile(ms[1:], len(words) * n_letters)))
    return MarkovWaveletSystem(graph, spec, depth, level, np.concatenate(heads), space, tuple(layers))


# -- subspace comparison (shape J versus shape lJ) --------------------------

def _principal_angles(u_rows: np.ndarray, v_rows: np.ndarray) -> np.ndarray:
    """Principal angles between the row spans of two orthonormal row sets.

    Small angles come from the singular values of the projection residual
    (their sines), which stays accurate where arccos of a cosine near 1
    cannot resolve below ~1e-8.
    """
    cosines = np.sort(np.linalg.svd(u_rows @ v_rows.T, compute_uv=False))[::-1]
    resid = v_rows - (v_rows @ u_rows.T) @ u_rows
    sines = np.sort(np.linalg.svd(resid, compute_uv=False))
    count = min(u_rows.shape[0], v_rows.shape[0])
    angles = np.empty(count)
    for i in range(count):
        c = min(cosines[i], 1.0) if i < len(cosines) else 0.0
        s = min(sines[i], 1.0) if i < len(sines) else 1.0
        angles[i] = np.arcsin(s) if c * c > 0.5 else np.arccos(c)
    return np.sort(angles)


@dataclass(frozen=True)
class SubspaceComparison:
    equal: bool
    principal_angles: tuple[float, ...]
    dim_fine: int
    dim_coarse: int

    def to_record(self) -> dict:
        return {"equal": self.equal, "principal_angles": list(self.principal_angles),
                "dim_multiscale": self.dim_fine, "dim_single_scale": self.dim_coarse}


def subspace_compare(family: WaveletFamily, coarse_family: WaveletFamily,
                     angle_tol: float = 1e-8) -> SubspaceComparison:
    """Compare the single-scale wavelet space of shape lJ with the direct sum
    of the first l layers of the shape-J decomposition, via principal angles.

    Both spans are refined to level lJ; equality is reported, never assumed.
    Each is a dense N x N basis over the N paths of level lJ: above
    `WAVELET_ENTRY_LIMIT` entries it raises TooLarge before it builds one.
    """
    if family.graph is not coarse_family.graph:
        raise ShapeMismatch("families live on different graphs")
    ratios = {cj // j for cj, j in zip(coarse_family.shape, family.shape)
              if cj % j == 0}
    rem = [cj % j for cj, j in zip(coarse_family.shape, family.shape)]
    if any(rem) or len(ratios) != 1:
        raise ShapeMismatch(
            f"{coarse_family.shape} is not an integer multiple of {family.shape}")
    ell = ratios.pop()
    paths = _path_count(family.graph, coarse_family.shape, math.isqrt(WAVELET_ENTRY_LIMIT) + 1)
    if paths ** 2 > WAVELET_ENTRY_LIMIT:
        raise TooLarge(f"the dense bases over the paths of level {coarse_family.shape} hold more than "
                       f"{WAVELET_ENTRY_LIMIT} entries each, the limit")

    def wavelet_rows(basis: WaveletBasis) -> np.ndarray:
        # the members after the leading scaling functions, in the orthonormal bases
        rows = basis.matrix[len(family.graph.vertices):]
        return rows * np.sqrt(basis.space.weights)[None, :]

    fine = wavelet_basis(family, ell)
    # both bases sit at level lJ, in the same column order
    u_fine = wavelet_rows(fine)
    u_coarse = wavelet_rows(wavelet_basis(coarse_family, 1, space=fine.space))

    angles = _principal_angles(u_fine, u_coarse)
    equal = (u_fine.shape[0] == u_coarse.shape[0]
             and bool(np.all(angles < angle_tol)))
    return SubspaceComparison(equal, tuple(float(a) for a in angles),
                              u_fine.shape[0], u_coarse.shape[0])
