"""Path-space wavelet families, their transforms, and the Markov variant.

For a shape J with positive entries, each vertex v carries the paths D_v^J
of degree J into v.  Under the measure inner product on coefficient vectors,
the constant vector spans the scaling direction and any orthonormal basis of
its complement gives the wavelet functions f^{m,v}.  Shifting the f^{m,v} by
the prefixing isometries S_lambda over paths of degree jJ produces mutually
orthogonal layers whose union with the normalized vertex indicators is an
orthonormal basis of the level-nJ cylinder functions, for every depth n.

The same cascade on the one-vertex bouquet with a Bernoulli measure and
J = (1,) gives the word-shift wavelet system for the full shift: `markov`
lists its members, with the letter indicators in place of the vertex
scaling function and the layer-0 wavelets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from . import jsonl
from .errors import BadShape, BadWeights, EmptyDv, ResidualTooLarge, ShapeMismatch, TooLarge
from .kgraph import Degree, KGraph, _path_count, as_degree, bouquet_graph, deg_scale
from .measure import CylinderFn, MeasureSpec
from .orthobasis import HaarNodes, complement_basis
from .sbfs import LevelSpace, level_space


# The most word entries (paths times the edges of each) of a level that
# `build_wavelet_family` or `wavelet_basis` builds, and the most entries
# sum_v |D_v^J|^2 of the dense coefficient blocks of a basis's cascade.
# 2^24 admits ledrappier (1,1) at depth 8 (262,144 paths of 16 edges: 4.2M
# entries, a listing of about 2.7 s and 271 MB), refuses depth 9 (18.9M), and
# admits the bases of shape (5,5) (blocks of 4 * 1024^2) but not (6,6)
# (4 * 4096^2).  A family holds O(|D_v^J|) numbers per vertex.
WAVELET_ENTRY_LIMIT = 2 ** 24
# The most entries sum_v |D_v^J|^2 of the dense rows `subspace_compare` scatters for
# the coarse family's sines: 2^30 admits ledrappier (1,1) --compare 7 (4 * 16384^2,
# about 4 s), not --compare 8 (2^34, 88 s).
_COMPARE_ENTRY_LIMIT = 2 ** 30
_CHUNK_ENTRIES = 2 ** 20  # the most entries of one chunk of dense rows in `subspace_compare`


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
    vectors over them: the constant ``scale`` = 1 / sqrt(sum of the weights)
    and the zero-mean rows C_v[1:] as split ``nodes``."""

    vertex: str
    positions: np.ndarray
    scale: float
    nodes: HaarNodes


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
        return tuple(vertex_space.function_at(np.array([v]), np.array([b.scale]))
                     for v, b in enumerate(self.blocks.values()))

    @cached_property
    def wavelets(self) -> tuple[tuple[tuple[int, str], CylinderFn], ...]:
        return tuple(((m, v), self.space.function_at(b.positions[lo:hi], values))
                     for v, b in self.blocks.items() for m, (lo, hi, values) in enumerate(b.nodes.runs(), start=1))

    def wavelet(self, m: int, vertex: str) -> CylinderFn:
        return dict(self.wavelets)[m, vertex]

    def listing(self) -> Iterator[str]:
        """The JSON lines of the family in parts (`jsonl.listing`): per vertex
        its scaling function, then every f^{m,v}, each with its term records.

        A scaling function is one level-0 term; f^{m,v} sits at the
        positions of D_v^J with the values of row m, passed as the run of
        D_v^J that the row is zero off (`HaarNodes.runs`).
        """
        vertices = jsonl.strings(self.graph.vertices)
        blocks = list(self.blocks.values())
        counts = [len(b.positions) - 1 for b in blocks]
        ms = jsonl.integers(max(counts) + 1)
        heads = np.concatenate([
            jsonl.cells('{"kind": "scaling", "vertex": ', vertices, ', "m": 0'),
            jsonl.cells('{"kind": "wavelet", "vertex": ', np.repeat(vertices, counts),
                        ', "m": ', np.concatenate([ms[1:count + 1] for count in counts]))])
        n = len(blocks)
        vertex_heads = level_space(self.spec, self.graph.zero_degree()).term_heads
        members = [(np.arange(n)[:, None], np.array([[b.scale] for b in blocks]))]
        members += [(n + b.positions[None, lo:hi], values[None]) for b in blocks for lo, hi, values in b.nodes.runs()]
        return jsonl.listing(heads, np.concatenate([vertex_heads, self.space.term_heads]), members)


def build_wavelet_family(graph: KGraph, shape: Sequence[int],
                         spec: MeasureSpec | None = None) -> WaveletFamily:
    """Construct the shape-J scaling functions and wavelets f^{m,v}, under
    ``spec`` or else the Perron-Frobenius measure of the graph.

    D_v^J is the paths of range v in the level-J space, in its order; the
    coefficient vectors come from their masses.  Above `WAVELET_ENTRY_LIMIT`
    word entries it raises TooLarge before it builds the level."""
    if spec is None:
        spec = MeasureSpec.perron_frobenius(graph)
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
        nodes = complement_basis(weights)  # checks the weights are positive
        blocks[v] = VertexBlock(v, positions, 1.0 / np.sqrt(weights.sum()), nodes)
    return WaveletFamily(graph, spec, shape, space, blocks)


class MemberSet:
    """An orthonormal basis of one level space ``space``, a member per position:
    each in label order as the ascending positions it is nonzero on and its
    values there (``_members``, the rows of the arrays of ``_groups``), its
    label text in ``heads`` (`jsonl`).  ``labels`` and ``functions`` are built on first access."""

    @cached_property
    def labels(self) -> tuple[dict, ...]:
        """One record per member: the records of `heads`."""
        return tuple(jsonl.parse(jsonl.text(self.heads, "}\n")))

    @cached_property
    def functions(self) -> tuple[CylinderFn, ...]:
        return tuple(self.space.function_at(at, values) for at, values in self._members())

    def _members(self):
        for at, values in self._groups():
            yield from zip(at, values)

    def _dense_rows(self) -> np.ndarray:
        """The members in label order, each scattered into a zero row over ``space``."""
        rows = np.zeros((len(self.space.weights),) * 2)
        for row, (at, values) in zip(rows, self._members()):
            row[at] = values
        return rows

    def listing(self) -> Iterator[str]:
        """The JSON lines of the members in parts (`jsonl.listing`): per member its label and its term records."""
        return jsonl.listing(self.heads, self.space.term_heads, self._groups())


@dataclass(frozen=True)
class _Group:
    """The layer-j wavelets S_lambda f^{m,v} of one vertex v, lambdas by word.

    ``lams`` indexes those lambdas in cascade level jJ; their blocks
    lambda * D_v^J fill ``fine`` of level (j+1)J one after another, and
    their coefficients fill ``coeffs`` of the label order, m fastest.  On
    lambda * D_v^J, S_lambda f^{m,v} is ``factors * (c[m - 1] / roots)``.
    """

    lams: np.ndarray
    fine: slice
    coeffs: slice
    factors: np.ndarray  # prefix_factor of lambda less its last edge
    roots: np.ndarray    # sqrt(w) of lambda's last edge; 1 at layer 0
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
        """The dense N x N view, one row per basis vector (`MemberSet._dense_rows`)."""
        return self._dense_rows()

    def _scaling(self) -> np.ndarray:
        return np.array([self.family.blocks[v].scale for v in self.family.graph.vertices])

    def _analysis(self, a: np.ndarray) -> np.ndarray:
        """Coefficients from a = f * weights over the cascade's level nJ:
        each layer reads its blocks, then sums them into the coarser level."""
        out = np.empty(a.shape)
        for layer in reversed(self.layers):
            coarse = np.empty(sum(len(g.lams) for g in layer))
            for g in layer:
                blocks = a[g.fine].reshape(len(g.lams), g.c.shape[1])
                out[g.coeffs] = (g.factors[:, None] * ((blocks @ g.c.T) / g.roots[:, None])).ravel()
                coarse[g.lams] = blocks.sum(axis=-1)
            a = coarse
        out[:len(a)] = self._scaling() * a
        return out

    def _synthesis(self, coeffs: np.ndarray) -> np.ndarray:
        """The transpose of `_analysis`: values over the cascade's level nJ."""
        s = coeffs[:len(self.family.graph.vertices)] * self._scaling()
        for layer in self.layers:
            fine = np.empty(layer[-1].fine.stop)
            for g in layer:
                d = coeffs[g.coeffs].reshape(len(g.lams), g.c.shape[0])
                fine[g.fine] = (s[g.lams, None] + g.factors[:, None] * ((d @ g.c) / g.roots[:, None])).ravel()
            s = fine
        return s

    def _groups(self):
        """The basis vectors in label order, a group per vertex scaling function and per
        cascade `_Group`: a row each of the ascending space positions it is nonzero on and its values there.

        A member lives on the level-nJ descendants of its cascade node: the
        scaling function of v on the paths from v, S_lambda f^{m,v} on those
        of lambda * p with the value factor * (C_v[m, p] / root) of lambda.
        Every other step of the one-hot synthesis adds a zero, so the values
        are the synthesis of a unit coefficient vector to the last bit.
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
            yield at[None], np.full((1, len(at)), value)
        for j, layer in enumerate(self.layers):
            # nodes by level-jJ ancestor, then by space position: each run ascends
            by_node = np.lexsort((self.order, ancestors[j]))
            width = sum(len(g.lams) for g in layer)
            bounds = np.searchsorted(ancestors[j][by_node], np.arange(width + 1))
            block_index = child[j][ancestors[j + 1][by_node]]
            for g in (g for g in layer if len(g.lams)):
                # every lambda of v has as many level-nJ descendants: one run per lambda, as rows
                runs = bounds[g.lams, None] + np.arange(bounds[g.lams[0] + 1] - bounds[g.lams[0]])
                values = g.factors[:, None] * (g.c[:, block_index[runs]] / g.roots[:, None])  # [m, lambda, p]
                yield (np.repeat(self.order[by_node[runs]], len(g.c), axis=0),
                       values.transpose(1, 0, 2).reshape(-1, runs.shape[1]))

    def coefficient_lines(self, coeffs: np.ndarray) -> Iterator[str]:
        """The JSON lines of coefficients in parts (`jsonl.parts`): per
        basis vector its label and its coefficient."""
        return jsonl.parts(self.heads, ', "coeff": ', coeffs, "}\n")


def wavelet_basis(family: WaveletFamily, depth: int) -> WaveletBasis:
    """Orthonormal basis of level-nJ cylinder functions: the normalized
    vertex indicators plus all S_lambda f^{m,v} with d(lambda) = jJ, j < n.

    Cascade level 0 is the vertices; level (j+1)J lists lambda * p for the
    lambdas of level jJ, grouped by source vertex v and by word, and p in
    D_v^J.  The levels are word-kernel rows (`KGraph.word_kernel`): each is
    composed as a whole, and sorting by word is sorting by rank.  Above
    `WAVELET_ENTRY_LIMIT` entries of the family's dense blocks C_v, or
    word entries at level nJ, it raises TooLarge before it builds a level.
    """
    if depth < 1:
        raise BadShape(f"depth must be >= 1, got {depth}")
    graph, spec, shape = family.graph, family.spec, family.shape
    if sum(len(b.positions) ** 2 for b in family.blocks.values()) > WAVELET_ENTRY_LIMIT:
        raise TooLarge(f"the coefficient blocks of shape {shape}, |D_v^J|^2 entries for each vertex v, "
                       f"hold more than {WAVELET_ENTRY_LIMIT} entries, the limit")
    level = deg_scale(depth, shape)
    check_wavelet_level(graph, level)
    space = level_space(spec, level)

    kernel = graph.word_kernel
    at = np.arange(len(graph.vertices))
    words, sources, ranks = np.empty((len(at), 0), dtype=np.intp), at, at
    layers, shifts = [], []
    n_coeffs = len(at)
    for j in range(depth):
        lam_degree = deg_scale(j, shape)
        factors = spec.prefix_factors(lam_degree, words[:, :-1])
        roots = np.sqrt(spec.w[words[:, -1]]) if j else np.ones(len(words))
        order = np.lexsort((ranks, sources))  # the lambdas by source, then by word
        bounds = np.searchsorted(sources[order], np.arange(len(graph.vertices) + 1)).tolist()
        groups, n_fine = [], 0
        for v, name in enumerate(graph.vertices):
            block, c = family.blocks[name].positions, family.blocks[name].nodes.rows()
            lams = order[bounds[v]:bounds[v + 1]]
            groups.append(_Group(lams, slice(n_fine, n_fine + len(lams) * len(block)),
                                 slice(n_coeffs, n_coeffs + len(lams) * len(c)),
                                 factors[lams], roots[lams], c))
            n_fine += len(lams) * len(block)
            n_coeffs += len(lams) * len(c)
        layers.append(tuple(groups))
        shifts.append(words)
        # each lambda times the paths p of D_v^J, v = s(lambda), in position order
        lam, p = kernel.matching(sources[order], shape)
        words = kernel.compose(words[order[lam]], lam_degree, family.space.words[p], shape)
        sources = family.space.sources[p]
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
    held over ``space``.  The scaling functions are the letter indicators;
    every wavelet is a member of ``basis``, the depth-(n+1) cascade on the
    bouquet with J = (1,), after its vertex scaling function and its N - 1
    layer-0 wavelets, which span the same space as the letters.
    """

    graph: KGraph
    spec: MeasureSpec
    depth: int
    level: int
    heads: np.ndarray = field(repr=False)
    space: LevelSpace = field(repr=False)
    basis: WaveletBasis = field(repr=False)

    def _groups(self):
        """The members in label order, as groups of rows of positions and values."""
        for a, value in enumerate(1.0 / np.sqrt(self.spec.w)):  # on the words from letter a
            at = np.flatnonzero(self.space.words[:, 0] == a)
            yield at[None], np.full((1, len(at)), value)
        yield from itertools.islice(self.basis._groups(), 2, None)  # past its vertex and layer-0 groups


def markov_wavelets(n_letters: int, weights: Sequence[float], depth: int) -> MarkovWaveletSystem:
    """The word-shift wavelet system for the full shift on n_letters symbols.

    Scaling functions are the normalized letter indicators 1/sqrt(p_a) on
    Z(a); the wavelet S_w psi_{j,a} of layer m is the cascade member
    S_{wa} f^{j,v} of layer m + 1, with the value prefix_factor(w) *
    (C[j-1, b] / sqrt(p_a)) on the extensions of each w*a*b.  The combined
    system has n_letters**(depth+1) members; above `MARKOV_MEMBER_LIMIT`
    it raises TooLarge before it builds anything.
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
    basis = wavelet_basis(build_wavelet_family(graph, shape=(1,), spec=spec), depth + 1)
    letter_texts, ms = graph.word_kernel.id_texts, jsonl.integers(n_letters)

    heads = [jsonl.cells('{"kind": "scaling", "letter": ', letter_texts)]
    for m, words in enumerate(basis.shifts[:-1]):  # the words of length m, in rank order
        heads.append(jsonl.cells(
            f'{{"kind": "wavelet", "layer": {m}, "word": [',
            np.repeat(jsonl.word_lists(letter_texts, words), n_letters * (n_letters - 1)),
            '], "letter": ', np.tile(np.repeat(letter_texts, n_letters - 1), len(words)),
            ', "m": ', np.tile(ms[1:], len(words) * n_letters)))
    return MarkovWaveletSystem(graph, spec, depth, depth + 1, np.concatenate(heads), basis.space, basis)


# -- subspace comparison (shape J versus shape lJ) --------------------------

@dataclass(frozen=True)
class SubspaceComparison:
    equal: bool
    principal_angles: tuple[float, ...]
    dim_fine: int
    dim_coarse: int

    def to_record(self) -> dict:
        return {"equal": self.equal, "principal_angles": list(self.principal_angles),
                "dim_multiscale": self.dim_fine, "dim_single_scale": self.dim_coarse}


def subspace_compare(family: WaveletFamily, coarse_family: WaveletFamily) -> SubspaceComparison:
    """Compare the single-scale wavelet space of shape lJ with the direct sum
    of the first l layers of the shape-J decomposition, via principal angles.

    With orthonormal C_v (reported, never assumed: s^2 W = 1 for the
    constant s over the total weight W, and the node identities of
    `HaarNodes.residual`, each within 1e-10, else ResidualTooLarge), the
    depth-l basis of J and the depth-1 basis of lJ are orthonormal bases of
    one space that lead with the same scaling functions phi_v.  The residual
    of the coarse wavelets f^{m,v} against the fine wavelet span is then
    their projection onto phi_v: the sines are s_v = ||(<f^{m,v}, phi_v>)_m||,
    one per vertex with a wavelet, by numpy sums over whole dense rows, in
    chunks of at most `_CHUNK_ENTRIES`, whose bits do not depend on the BLAS,
    and every other angle is 0.  The spaces count as equal when every angle
    is below 1e-8.  No level-lJ basis is built.  Above `_COMPARE_ENTRY_LIMIT`
    entries of those dense rows it raises TooLarge before it scatters one.
    """
    if family.graph is not coarse_family.graph:
        raise ShapeMismatch("families live on different graphs")
    ell = coarse_family.shape[0] // family.shape[0]
    if coarse_family.shape != tuple(ell * j for j in family.shape):
        raise ShapeMismatch(f"{coarse_family.shape} is not an integer multiple of {family.shape}")
    if sum(len(b.positions) ** 2 for b in coarse_family.blocks.values()) > _COMPARE_ENTRY_LIMIT:
        raise TooLarge(f"the dense rows of the sines of shape {coarse_family.shape}, |D_v^J|^2 entries for each "
                       f"vertex v, hold more than {_COMPARE_ENTRY_LIMIT} entries, the limit")
    sines = []
    for coarse, fam in enumerate((family, coarse_family)):
        for v, block in fam.blocks.items():
            weights, nodes = fam.space.weights[block.positions], block.nodes
            off = float(np.max([abs(block.scale * block.scale * weights.sum() - 1.0), nodes.residual(weights)]))
            if not off <= 1e-10:
                raise ResidualTooLarge(f"the coefficient rows of vertex {v} at shape {fam.shape} are off "
                                       f"orthonormal by {off:.2e}, above 1e-10")
            if coarse and len(nodes.lo):
                phi, step = block.scale * weights, max(1, _CHUNK_ENTRIES // len(weights))
                products = np.concatenate([np.sum(nodes.rows(i, i + step) * phi, axis=1)
                                           for i in range(0, len(nodes.lo), step)])
                sines.append(np.sqrt(np.sum(products * products)))
    # either basis has a member per path of level lJ, |V| of them scaling functions
    dim = len(coarse_family.space.weights) - len(family.graph.vertices)
    angles = np.zeros(dim)
    angles[:len(sines)] = np.arcsin(np.minimum(sines, 1.0))
    angles.sort()
    return SubspaceComparison(bool(np.all(angles < 1e-8)), tuple(angles.tolist()), dim, dim)
