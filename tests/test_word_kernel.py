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
    jsonl,
    level_space,
    load_kgraph,
    load_kgraph_file,
    path_counts,
    s_matrix,
    synthesize,
    wavelet_basis,
)
from kgraphwave.kgraph import _degree_colors, _merge_schedules, _swap_schedule, deg_add, normal_form_rows
from helpers import (
    VALID_SQUARES,
    column_stack_words,
    compose_cascade,
    compose_prefix_map,
    dense_listing,
    dense_matching,
    double_cover,
    path_row,
    path_count,
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


FIXTURES = ["ledrappier", "lambda3", "lambda1-sphere", "bouquet-2", "bouquet-3"]


class TestWords:
    """`WordKernel.words` gathers each column once at the end; the builder
    that stacked every column onto each letter gives the same rows."""

    @pytest.mark.parametrize("doc", [*FIXTURES, "circulant", "torus"])
    def test_every_color_sequence_up_to_length_5(self, doc):
        graph = (load_kgraph(twisted_circulant_document(7, (1, 2), (1, 3), 5)) if doc == "circulant"
                 else load_kgraph(torus_document(3, 4)) if doc == "torus" else load_kgraph_file(fixture_path(doc)))
        kernel = graph.word_kernel
        for length in range(1, 6):
            for colors in product(range(1, graph.k + 1), repeat=length):
                got, expected = kernel.words(colors), column_stack_words(kernel, colors)
                assert got.dtype == expected.dtype and got.flags.c_contiguous
                assert got.shape == expected.shape and np.array_equal(got, expected)

    def test_a_long_path_in_time_linear_in_its_length(self):
        """One vertex, one loop: the one word of 100,000 letters.  Stacking
        the columns took 18.5 s for it."""
        graph = load_kgraph({"k": 1, "vertices": ["v"], "squares": [],
                             "edges": [{"id": "e", "color": 1, "source": "v", "range": "v"}]})
        start = time.perf_counter()
        words = graph.word_kernel.words((1,) * 100_000)
        assert time.perf_counter() - start < 5.0
        assert words.shape == (1, 100_000) and not words.any()


class TestRangeIndex:
    """`WordKernel.matching` reads each level's range index; the dense table
    of comparisons gives the same pairs in the same order."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_every_level_of_the_fixtures(self, name):
        graph = load_kgraph_file(fixture_path(name))
        kernel = graph.word_kernel
        for degree in product(range(4 if graph.k == 1 else 3), repeat=graph.k):
            ranges = kernel.level(degree)[1]
            for other in product(range(3 if graph.k == 1 else 2), repeat=graph.k):
                sources = kernel.level(other)[2]
                got, expected = kernel.matching(sources, degree), dense_matching(sources, ranges)
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    @PROPERTY
    @given(measured_graphs(), st.integers(0, 2), st.integers(0, 2 ** 32 - 1))
    def test_generated_graphs(self, case, top, seed):
        spec, _ = case
        graph, kernel = spec.graph, spec.graph.word_kernel
        rng = np.random.default_rng(seed)
        for degree in product(range(top + 1), repeat=graph.k):
            sources = rng.integers(0, len(graph.vertices), int(rng.integers(0, 9)))
            got = kernel.matching(sources, degree)
            assert all(np.array_equal(a, b) for a, b in zip(got, dense_matching(sources, kernel.level(degree)[1])))


class TestPathCounts:
    @PROPERTY
    @given(measured_graphs(), st.integers(0, 3))
    def test_counts_are_level_sizes(self, case, top):
        graph = case[0].graph
        counts = path_counts(graph, (top,) * graph.k)
        assert counts.shape == (top + 1,) * graph.k
        for degree in product(range(top + 1), repeat=graph.k):
            assert counts[degree] == len(graph.word_kernel.level(degree)[0]) == path_count(graph, degree)
            assert type(counts[degree]) is int

    def test_exact_past_int64(self):
        # ledrappier has 4 * 2^|a| paths of degree a: 2^64 at (31, 31)
        graph = load_kgraph_file(fixture_path("ledrappier"))
        counts = path_counts(graph, (31, 31))
        assert counts[31, 31] == 2 ** 64 and counts[31, 0] == 2 ** 33
        assert graph.word_kernel._levels == {}  # counted, not listed

    def test_no_vertices(self):
        graph = load_kgraph({"k": 2, "vertices": [], "edges": [], "squares": []})
        assert path_counts(graph, (1, 2)).tolist() == [[0, 0, 0], [0, 0, 0]]


class TestCascade:
    @PROPERTY
    @given(measured_graphs(), st.integers(1, 3))
    def test_order_labels_and_factors(self, case, depth):
        basis = _basis(*case, depth)
        labels, order, factors = compose_cascade(basis.family, basis.depth)
        assert list(basis.labels) == labels
        assert np.array_equal(basis.order, order)
        for layer, expected in zip(basis.layers, factors):
            for group, (want_factors, want_roots) in zip(layer, expected):
                assert np.array_equal(group.factors, want_factors)
                assert np.array_equal(group.roots, want_roots)

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
        assert jsonl.parse(basis.listing()) == dense_listing(basis)
        assert "matrix" in basis.__dict__  # the oracle built it, not the listing

    def test_listing_builds_no_dense_matrix(self, ledrappier):
        basis = wavelet_basis(build_wavelet_family(ledrappier, shape=(1, 1)), 3)
        records = jsonl.parse(basis.listing())
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
        assert kernel._runs(1)[0].tolist() == [] and kernel._runs(k // 2)[0].tolist() == []
        assert kernel._runs(k)[0].tolist() == [0]


class TestRowsOfManyDegrees:
    """The batched modes of the kernel (`RowSchedules`, `stack`, and ``of``
    in `compose`, `matching` and `rank`) against the calls of one degree or
    one color sequence at a time."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.lists(
        st.tuples(*[st.tuples(st.integers(0, 3), st.integers(0, 3))] * k), min_size=1, max_size=8)))
    def test_merge_schedules_are_the_swap_schedules(self, pairs):
        heads = np.array([[a for a, _ in pair] for pair in pairs], dtype=np.intp)
        tails = np.array([[b for _, b in pair] for pair in pairs], dtype=np.intp)
        swaps, start, length = _merge_schedules(heads, tails)
        for q, (head, tail) in enumerate(zip(heads.tolist(), tails.tolist())):
            want = _swap_schedule(_degree_colors(tuple(head)) + _degree_colors(tuple(tail)))
            assert tuple(swaps[start[q]:start[q] + length[q]].tolist()) == want

    @PROPERTY
    @given(measured_graphs(), st.integers(0, 2 ** 32 - 1))
    def test_compose_matching_and_rank_of_many_degrees(self, case, seed):
        spec, _ = case
        graph, kernel, k = spec.graph, spec.graph.word_kernel, spec.graph.k
        rng = np.random.default_rng(seed)
        degrees = [tuple(int(a) for a in rng.integers(0, 3, k)) for _ in range(4)]
        stack = kernel.stack(degrees)
        pairs = [(degrees[i], degrees[j]) for i, j in rng.integers(0, 4, (5, 2))]
        width = max(sum(x) + sum(y) for x, y in pairs)
        heads, tails, of, want, targets, levels, ranks = [], [], [], [], [], [], []
        for q, (x, y) in enumerate(pairs):
            xs, ys = kernel.level(x), kernel.level(y)
            i, j = kernel.matching(xs[2], y)
            got = kernel.matching(xs[2], stack, of=np.full(len(xs[2]), degrees.index(y)))
            assert np.array_equal(got[0], i) and np.array_equal(got[1], j)
            pad = np.zeros((len(i), width), dtype=np.intp)
            heads.append(pad.copy()), tails.append(pad.copy())
            heads[-1][:, :sum(x)], tails[-1][:, :sum(y)] = xs[0][i], ys[0][j]
            of.append(np.full(len(i), q))
            if any(x) and any(y):
                product_rows = kernel.compose(xs[0][i], x, ys[0][j], y)
            else:
                product_rows = np.concatenate([xs[0][i], ys[0][j]], axis=1)
            want.append(product_rows)
            if any(deg_add(x, y)):
                ranks.append(kernel.rank(product_rows, deg_add(x, y)))
                levels.append(np.full(len(i), len(targets)))
                targets.append(deg_add(x, y))
        of = np.concatenate(of)
        got = kernel.compose(np.concatenate(heads), np.array([x for x, _ in pairs]).reshape(-1, k),
                             np.concatenate(tails), np.array([y for _, y in pairs]).reshape(-1, k), of=of)
        lengths = np.array([sum(x) + sum(y) for x, y in pairs])[of]
        for row, size, expected in zip(got, lengths, (r for rows in want for r in rows)):
            assert np.array_equal(row[:size], expected)
        rows = got[np.array([any(deg_add(x, y)) for x, y in pairs])[of]]
        if targets:
            assert np.array_equal(kernel.rank(rows, kernel.stack(targets), of=np.concatenate(levels)),
                                  np.concatenate(ranks))

    @PROPERTY
    @given(measured_graphs(), st.integers(0, 2 ** 32 - 1))
    def test_stack_lays_the_levels_end_to_end(self, case, seed):
        graph = case[0].graph
        kernel, n = graph.word_kernel, len(graph.vertices)
        rng = np.random.default_rng(seed)
        degrees = [tuple(int(a) for a in rng.integers(0, 3, graph.k)) for _ in range(int(rng.integers(1, 5)))]
        stack, levels = kernel.stack(degrees), [kernel.level(d) for d in degrees]
        counts = [len(ranges) for _, ranges, _ in levels]
        assert stack.degrees == tuple(degrees) and stack.index == {d: g for g, d in enumerate(degrees)}
        assert stack.counts.tolist() == counts and stack.base.tolist() == (np.cumsum(counts) - counts).tolist()
        assert stack.words.shape == (sum(counts), max(map(sum, degrees)))
        for g, (d, (rows, ranges, sources)) in enumerate(zip(degrees, levels)):
            at = slice(int(stack.base[g]), int(stack.base[g]) + counts[g])
            assert np.array_equal(stack.words[at, :sum(d)], rows) and not stack.words[at, sum(d):].any()
            assert np.array_equal(stack.ranges[at], ranges) and np.array_equal(stack.sources[at], sources)
            # the level's range index and rank table, read through the stack
            vertices = np.arange(n)
            got, want = kernel.matching(vertices, stack, of=np.full(n, g)), kernel.matching(vertices, d)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            ranked = kernel.rank(stack.words[at], stack, of=np.full(counts[g], g))
            assert np.array_equal(ranked, np.arange(counts[g]) if any(d) else np.zeros(counts[g]))

    def test_a_missing_square_raises_in_a_batch(self):
        doc = twisted_circulant_document(5, (1, 2), (1, 2), 3)
        graph = load_kgraph(doc)
        graph.square_edges = graph.square_edges[1:]
        kernel = graph.word_kernel
        heads, tails = (kernel.level(d) for d in ((0, 1), (1, 0)))
        first, second = kernel.matching(heads[2], (1, 0))
        with pytest.raises(ValidationError) as exc:
            kernel.compose(np.column_stack([heads[0][first], heads[0][first]]), np.array([[0, 1]]),
                           np.column_stack([tails[0][second], tails[0][second]]), np.array([[1, 0]]),
                           of=np.zeros(len(first), dtype=np.intp))
        assert exc.value.reason == "missing_square"

    def test_normal_forms_take_one_rewrite(self, monkeypatch):
        graph = load_kgraph_file(fixture_path("lambda3"))
        calls, rewrite = [], graph.word_kernel.rewrite
        monkeypatch.setattr(graph.word_kernel, "rewrite", lambda *a, **k: calls.append(1) or rewrite(*a, **k))
        words = [["f1", "e"], ["e"], ["f2", "f1", "e", "e"], ["e", "f1"], ["f2", "e", "f2"]]
        forms = normal_form_rows(graph, words)
        assert len(calls) == 1
        assert forms == [normal_form_rows(graph, [word])[0] for word in words]
