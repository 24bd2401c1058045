"""The word-array kernel against the path-by-path code it replaces.

Every property asks for exact equality: the kernel reorders no arithmetic,
so level spaces, the cascade, `vector_of`, the prefix maps and the listings
must give the oracles' values to the last bit."""

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgraphwave import (
    MeasureSpec,
    ValidationError,
    analyze,
    bouquet_graph,
    build_wavelet_family,
    compose,
    enumerate_paths,
    fixture_path,
    level_space,
    load_kgraph,
    load_kgraph_file,
    s_matrix,
    synthesize,
    wavelet_basis,
)
from helpers import (
    VALID_SQUARES,
    compose_cascade,
    compose_prefix_map,
    dense_listing,
    double_cover,
    path_row,
    per_kind_masses,
    random_cylinder_fn,
    refine_vector_of,
    torus_document,
    twisted_circulant_document,
)

SHAPES = {1: [(1,), (2,)], 2: [(1, 1), (1, 2), (2, 1)], 3: [(1, 1, 1), (1, 2, 1), (2, 1, 1)]}


@st.composite
def measured_graphs(draw):
    """A generated torus or twisted circulant, the rank-3 lift, or a
    Bernoulli bouquet, with its measure and a wavelet shape."""
    kind = draw(st.sampled_from(["torus", "circulant", "rank3", "bouquet"]))
    if kind == "bouquet":
        graph = bouquet_graph(draw(st.integers(2, 3)))
        parts = draw(st.lists(st.integers(1, 9), min_size=len(graph.edges),
                              max_size=len(graph.edges)))
        spec = MeasureSpec.bernoulli(graph, [Fraction(a, sum(parts)) for a in parts])
    else:
        if kind == "torus":
            doc = torus_document(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        elif kind == "circulant":
            doc = twisted_circulant_document(draw(st.integers(3, 6)), (1, 2), (1, 2),
                                             draw(st.integers(0, 2 ** 16)))
        else:
            doc = double_cover(VALID_SQUARES)
        graph = load_kgraph(doc)
        spec = MeasureSpec.perron_frobenius(graph)
    return spec, draw(st.sampled_from(SHAPES[graph.k]))


def _basis(spec, shape, depth):
    family = build_wavelet_family(spec.graph, shape=shape, spec=spec)
    # keep the dense listing oracle small
    while depth > 1 and len(level_space(spec, tuple(depth * j for j in shape)).weights) > 600:
        depth -= 1
    return wavelet_basis(family, depth)


PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestLevels:
    @PROPERTY
    @given(measured_graphs(), st.integers(0, 3))
    def test_levels_ranks_and_weights(self, case, top):
        spec, _ = case
        graph, kernel = spec.graph, spec.graph.word_kernel
        for degree in product(range(top + 1), repeat=graph.k):
            paths = enumerate_paths(graph, degree)
            rows = kernel.level(degree)
            assert kernel.paths(rows, degree) == paths
            if any(degree):
                assert np.array_equal(kernel.rank(rows[0], degree), np.arange(len(paths)))
            space = level_space(spec, degree)
            assert np.array_equal(space.weights, per_kind_masses(spec, degree)[1])
            assert space.basis == tuple(paths)

    @pytest.mark.parametrize("spec", [
        lambda: MeasureSpec.perron_frobenius(load_kgraph_file(fixture_path("lambda3")), exact=True),
        lambda: MeasureSpec.bernoulli(bouquet_graph(2), (Fraction(1, 4), Fraction(3, 4)), exact=True),
    ], ids=["pf", "bernoulli"])
    def test_exact_weights(self, spec):
        spec = spec()
        for degree in product(range(3), repeat=spec.graph.k):
            assert np.array_equal(level_space(spec, degree).weights, per_kind_masses(spec, degree)[1])

    @PROPERTY
    @given(measured_graphs(), st.integers(0, 2 ** 32 - 1))
    def test_compose_agrees_with_paths(self, case, seed):
        spec, _ = case
        graph, kernel = spec.graph, spec.graph.word_kernel
        rng = np.random.default_rng(seed)
        for _ in range(5):
            d, e = (tuple(int(x) for x in rng.integers(0, 3, graph.k)) for _ in range(2))
            heads = enumerate_paths(graph, d)
            head = heads[int(rng.integers(len(heads)))]
            tails = enumerate_paths(graph, e, range=head.source)
            words = kernel.compose(path_row(head), d, kernel.level(e)[0][
                kernel.level(e)[1] == graph.vertex_index[head.source]], e)
            assert [tuple(kernel.ids[i] for i in row) for row in words] == \
                [compose(head, mu).word for mu in tails]

    @PROPERTY
    @given(measured_graphs(), st.integers(0, 2 ** 32 - 1))
    def test_prefix_maps(self, case, seed):
        spec, _ = case
        graph = spec.graph
        rng = np.random.default_rng(seed)
        for _ in range(3):
            d, level = (tuple(int(x) for x in rng.integers(0, 2, graph.k)) for _ in range(2))
            paths = enumerate_paths(graph, d)
            path = paths[int(rng.integers(len(paths)))]
            op = s_matrix(spec, path, level)
            rows, cols, vals = compose_prefix_map(spec, path, level)
            assert np.array_equal(op.rows, rows) and np.array_equal(op.cols, cols)
            assert np.array_equal(op.vals, vals)


class TestCascade:
    @PROPERTY
    @given(measured_graphs(), st.integers(1, 3))
    def test_order_labels_and_factors(self, case, depth):
        basis = _basis(*case, depth)
        labels, order, factors = compose_cascade(basis.family, basis.depth)
        assert list(basis.labels) == labels
        assert np.array_equal(basis.order, order)
        for layer, expected in zip(basis.layers, factors):
            for group, want in zip(layer, expected):
                assert np.array_equal(group.factors, want)

    @PROPERTY
    @given(measured_graphs(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_vector_of_places_terms_at_their_ranks(self, case, depth, seed):
        basis = _basis(*case, depth)
        space = basis.space
        fn = random_cylinder_fn(space.graph, space.level, 12, np.random.default_rng(seed))
        assert np.array_equal(space.vector_of(fn), refine_vector_of(space, fn))

    @PROPERTY
    @given(measured_graphs(), st.integers(1, 3))
    def test_listing_from_supports(self, case, depth):
        basis = _basis(*case, depth)
        assert basis.to_records() == dense_listing(basis)
        assert "matrix" in basis.__dict__  # the oracle built it, not the listing

    def test_listing_builds_no_dense_matrix(self, ledrappier):
        basis = wavelet_basis(build_wavelet_family(ledrappier, shape=(1, 1)), 3)
        records = basis.to_records()
        assert "matrix" not in basis.__dict__
        assert records == dense_listing(basis)

    def test_depth7_library_round_trip(self, ledrappier):
        family = build_wavelet_family(ledrappier, shape=(1, 1))
        fn = random_cylinder_fn(ledrappier, (7, 7), 40, np.random.default_rng(7))
        start = time.perf_counter()
        basis = wavelet_basis(family, 7)
        coeffs = analyze(basis, fn)
        back = synthesize(basis, coeffs)
        # about 0.7 s on a 2-core host; building the basis by compose took 2.4-3.0 s
        assert time.perf_counter() - start < 2.0
        assert len(basis.labels) == 65536
        vec = basis.space.vector_of(fn)
        assert np.max(np.abs(basis.space.vector_of(back) - vec)) < 1e-12 * max(1.0, np.max(np.abs(vec)))


class TestSquareTable:
    def test_every_missing_square_raises(self):
        doc = twisted_circulant_document(5, (1, 2), (1, 2), 3)
        graph = load_kgraph(doc)
        # the table holds the descending pairs, the right sides of the
        # squares, by edge id: drop the square row of its first key, of its
        # last one, and of one between
        ids = graph.edge_ids
        pairs = sorted((ids[c], ids[d]) for _, _, c, d in graph.square_edges.tolist())
        for pair in (pairs[0], pairs[len(pairs) // 2], pairs[-1]):
            graph = load_kgraph(doc)
            right = [graph.edge_position[eid] for eid in pair]
            row = np.flatnonzero((graph.square_edges[:, 2:] == right).all(axis=1))
            assert len(row) == 1
            graph.square_edges = np.delete(graph.square_edges, row, axis=0)
            kernel = graph.word_kernel
            heads, tails = (kernel.level(d) for d in ((0, 1), (1, 0)))
            at = np.flatnonzero(tails[1][None, :] == heads[2][:, None])
            first, second = np.divmod(at, len(tails[0]))
            with pytest.raises(ValidationError) as exc:
                kernel.compose(heads[0][first], (0, 1), tails[0][second], (1, 0))
            assert exc.value.reason == "missing_square"
            assert str(pair[0]) in str(exc.value) and str(pair[1]) in str(exc.value)


class TestUnusedColors:
    def test_tables_only_for_colors_edges_carry(self):
        """One loop of color k = 10**5: the kernel holds no table per unused
        color, so building it and listing the paths from a source take well
        under a second (1.3 s for the kernel alone with a table per color)."""
        k = 10 ** 5
        graph = load_kgraph({"k": k, "vertices": ["v"],
                             "edges": [{"id": "e", "color": k, "source": "v", "range": "v"}],
                             "squares": []})
        start = time.perf_counter()
        kernel = graph.word_kernel
        degree = [0] * k
        degree[-1] = 3
        paths = enumerate_paths(graph, degree, source="v")
        assert time.perf_counter() - start < 0.5
        assert [p.word for p in paths] == [("e", "e", "e")]
        assert kernel.edges_of(1).tolist() == [] and kernel.edges_of(k // 2).tolist() == []
        assert kernel.edges_of(k).tolist() == [0]
