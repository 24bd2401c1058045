import contextlib
import io
import json
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import kgraphwave.wavelets
from kgraphwave import (
    WAVELET_ENTRY_LIMIT,
    BadShape,
    BadWeights,
    CylinderFn,
    MeasureSpec,
    ResidualTooLarge,
    TooLarge,
    analyze,
    build_wavelet_family,
    bouquet_graph,
    ShapeMismatch,
    check_wavelet_level,
    fixture_path,
    inner_product,
    integral,
    is_strongly_connected,
    jsonl,
    level_space,
    load_kgraph,
    markov_wavelets,
    normal_form,
    path_counts,
    subspace_compare,
    synthesize,
    vertex_matrices,
    vertex_path,
    wavelet_basis,
)
from kgraphwave.cli import main
from kgraphwave.wavelets import MemberSet, _path_count
from helpers import (
    graph_document,
    block_paths,
    block_rows,
    count_path_objects,
    cylinder_fns_equal,
    cylinder_listing,
    cylinder_synthesis_records,
    dense_subspace_compare,
    dense_wavelet_basis,
    eager_family_records,
    eager_wavelet_family,
    family_documents,
    forbid_path_building,
    identity_synthesis,
    markov_member_records,
    markov_run_listing,
    path_count,
    principal_angles,
    random_cylinder_fn,
    row_loop_gram,
    torus_document,
    twisted_circulant_document,
    two_svd_principal_angles,
)

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def fam3(lambda3):
    return build_wavelet_family(lambda3, shape=(1, 1))


@pytest.fixture(scope="module")
def famL(ledrappier):
    return build_wavelet_family(ledrappier, shape=(1, 2))


class TestFamilyConstruction:
    def test_lambda3_single_wavelet(self, lambda3, fam3):
        assert len(fam3.wavelets) == 1
        (label, psi), = fam3.wavelets
        assert label == (1, "v")
        expected = CylinderFn.combination([
            (normal_form(lambda3, ["e", "f1"]), 1.0),
            (normal_form(lambda3, ["e", "f2"]), -1.0)])
        assert cylinder_fns_equal(psi, expected, tol=1e-14)

    def test_ledrappier_reference_vectors(self, ledrappier, famL):
        assert len(famL.wavelets) == 28
        block = famL.blocks["v1"]
        assert ["".join(p.word) for p in block_paths(famL, "v1")] == [
            "acc", "ace", "aeh", "aej", "dhm", "dho", "djb", "dji"]
        expected = np.array([
            [2, 2, 2, 2, 2, 2, 2, 2],
            [4, -4, 0, 0, 0, 0, 0, 0],
            [0, 0, 4, -4, 0, 0, 0, 0],
            [0, 0, 0, 0, 4, -4, 0, 0],
            [0, 0, 0, 0, 0, 0, 4, -4],
            [2 * SQRT2, 2 * SQRT2, -2 * SQRT2, -2 * SQRT2, 0, 0, 0, 0],
            [0, 0, 0, 0, 2 * SQRT2, 2 * SQRT2, -2 * SQRT2, -2 * SQRT2],
            [2, 2, 2, 2, -2, -2, -2, -2],
        ], dtype=float)
        assert np.max(np.abs(block_rows(block) - expected)) < 1e-12
        # every vertex shares the same coefficient pattern here
        for v in ledrappier.vertices:
            assert np.max(np.abs(block_rows(famL.blocks[v]) - expected)) < 1e-12
        # each zero-mean row is one node: a value on [lo, mid), one on [mid, hi)
        nodes = block.nodes
        assert (nodes.lo.tolist(), nodes.mid.tolist(), nodes.hi.tolist()) == (
            [0, 2, 4, 6, 0, 4, 0], [1, 3, 5, 7, 2, 6, 4], [2, 4, 6, 8, 4, 8, 8])
        assert np.max(np.abs(nodes.left - [4, 4, 4, 4, 2 * SQRT2, 2 * SQRT2, 2])) < 1e-12
        assert np.max(np.abs(nodes.right + nodes.left)) < 1e-12

    def test_scaling_functions_are_normalized_indicators(self, ledrappier, famL):
        spec = famL.spec
        for v, fn in zip(ledrappier.vertices, famL.scaling):
            (path, coeff), = fn.terms.items()
            assert path == vertex_path(ledrappier, v)
            assert coeff == pytest.approx(2.0, abs=1e-14)  # 1/sqrt(1/4)
            assert inner_product(spec, fn, fn) == pytest.approx(1.0, abs=1e-13)

    def test_zero_mean_wavelets_all_shapes(self, lambda3, ledrappier):
        for graph in (lambda3, ledrappier):
            for shape in ((1, 1), (1, 2), (2, 1), (2, 2)):
                fam = build_wavelet_family(graph, shape=shape)
                for _, fn in fam.wavelets:
                    assert abs(integral(fam.spec, fn)) < 1e-12

    def test_orthonormal_within_vertex(self, famL):
        spec = famL.spec
        fns = [famL.scaling[2]] + [famL.wavelet(m, "v3") for m in range(1, 8)]
        gram = np.array([[inner_product(spec, a, b) for b in fns] for a in fns])
        assert np.max(np.abs(gram - np.eye(8))) < 1e-12
        for m in (0, 8):
            with pytest.raises(KeyError):
                famL.wavelet(m, "v3")

    def test_degenerate_single_path_vertex(self):
        fam = build_wavelet_family(bouquet_graph(1), shape=(1,))
        assert fam.wavelets == ()
        assert len(fam.scaling) == 1

    def test_bad_shape(self, lambda3):
        with pytest.raises(BadShape):
            build_wavelet_family(lambda3, shape=(0, 1))

    def test_seeding_inequality(self, lambda3, ledrappier):
        # d_v^J >= d_v^{(1,...,1)} whenever J >= (1,...,1)
        for graph in (lambda3, ledrappier):
            base = build_wavelet_family(graph, shape=(1, 1))
            for shape in ((1, 2), (2, 1), (2, 2)):
                fam = build_wavelet_family(graph, shape=shape)
                for v in graph.vertices:
                    assert len(fam.blocks[v].positions) >= len(base.blocks[v].positions)


class TestRowFamily:
    """The family held as level rows against `eager_wavelet_family`, which
    lists D_v^J by `enumerate_paths` and builds every `CylinderFn` up front."""

    @staticmethod
    def draw_family(data):
        graph = load_kgraph(data.draw(family_documents()))
        assume(is_strongly_connected(graph))  # the PF measure needs it
        shape = tuple(data.draw(st.lists(st.integers(1, 2), min_size=graph.k, max_size=graph.k)))
        return graph, shape, eager_wavelet_family(graph, shape)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_blocks_and_views_match_the_eager_family(self, data):
        graph, shape, (blocks, scaling, wavelets) = self.draw_family(data)
        family = build_wavelet_family(graph, shape=shape)
        assert list(family.blocks) == list(blocks)
        for v, (paths, c) in blocks.items():
            got = block_rows(family.blocks[v])
            assert got.shape == c.shape and got.tobytes() == c.tobytes()
            assert block_paths(family, v) == paths
        assert [fn.terms for fn in family.scaling] == [fn.terms for fn in scaling]
        assert [(label, fn.terms) for label, fn in family.wavelets] \
            == [(label, fn.terms) for label, fn in wavelets]

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_list_family_stdout_is_the_eager_records(self, data):
        graph, shape, (_, scaling, wavelets) = self.draw_family(data)
        expected = "".join(json.dumps(r) + "\n" for r in eager_family_records(graph, scaling, wavelets))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "graph.kg")
            path.write_text(json.dumps(graph_document(graph)))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["wavelets", str(path), "--shape", ",".join(map(str, shape)),
                             "--list-family"]) == 0
        assert out.getvalue() == expected

    def test_views_are_built_on_read(self, ledrappier, monkeypatch):
        """Building the family lists no paths and builds no function; the
        function views, read later, are built from the level rows."""
        forbid_path_building(monkeypatch)
        built = count_path_objects(monkeypatch)
        family = build_wavelet_family(ledrappier, shape=(2, 2))
        assert [len(b.positions) for b in family.blocks.values()] == [16] * 4
        assert "wavelets" not in family.__dict__ and "scaling" not in family.__dict__
        assert len(family.scaling) == 4 and len(family.wavelets) == 4 * 15
        assert built == {"Path": 0}


class TestBasis:
    def test_lambda3_depths(self, fam3):
        for depth in (1, 2, 3):
            basis = wavelet_basis(fam3, depth)
            assert len(basis.labels) == 2 ** depth
            assert np.max(np.abs(row_loop_gram(basis) - np.eye(2 ** depth))) < 1e-12

    def test_lambda3_depth1_members(self, lambda3, fam3):
        basis = wavelet_basis(fam3, 1)
        fns = basis.functions
        assert cylinder_fns_equal(
            fns[0], CylinderFn.indicator(vertex_path(lambda3, "v")), tol=1e-14)
        expected = CylinderFn.combination([
            (normal_form(lambda3, ["e", "f1"]), 1.0),
            (normal_form(lambda3, ["e", "f2"]), -1.0)])
        assert cylinder_fns_equal(fns[1], expected, tol=1e-14)

    def test_ledrappier_depth1_cardinality(self, famL):
        basis = wavelet_basis(famL, 1)
        assert len(basis.labels) == 4 + 4 * 7 == 32
        assert np.max(np.abs(row_loop_gram(basis) - np.eye(32))) < 1e-12

    def test_layer_orthogonality_blocks(self, fam3):
        basis = wavelet_basis(fam3, 4)
        gram = row_loop_gram(basis)
        assert np.max(np.abs(gram - np.eye(len(basis.labels)))) < 1e-12
        layers = {}
        for i, lab in enumerate(basis.labels):
            if lab["kind"] == "wavelet":
                layers.setdefault(lab["j"], []).append(i)
        assert sorted(layers) == [0, 1, 2, 3]
        for j in layers:
            for jp in layers:
                if j != jp:
                    block = gram[np.ix_(layers[j], layers[jp])]
                    assert np.max(np.abs(block)) < 1e-12

    def test_scaling_orthogonal_to_wavelets(self, famL):
        basis = wavelet_basis(famL, 1)
        gram = row_loop_gram(basis)
        scaling = [i for i, lab in enumerate(basis.labels) if lab["kind"] == "scaling"]
        wav = [i for i, lab in enumerate(basis.labels) if lab["kind"] == "wavelet"]
        assert np.max(np.abs(gram[np.ix_(scaling, wav)])) < 1e-12

    def test_cardinality_matches_path_count(self, lambda3, ledrappier):
        for graph, depths in ((lambda3, (1, 2, 3)), (ledrappier, (1, 2))):
            for shape in ((1, 1), (1, 2), (2, 1)):
                fam = build_wavelet_family(graph, shape=shape)
                for depth in depths:
                    basis = wavelet_basis(fam, depth)
                    level = tuple(depth * j for j in shape)
                    assert len(basis.labels) == path_count(graph, level)

    def test_ledrappier_depth3_complete(self, ledrappier):
        fam = build_wavelet_family(ledrappier, shape=(1, 1))
        basis = wavelet_basis(fam, 3)
        assert len(basis.labels) == path_count(ledrappier, (3, 3)) == 256
        assert np.max(np.abs(row_loop_gram(basis) - np.eye(256))) < 1e-12


class TestTransforms:
    def test_vertex_indicator_coefficients(self, famL):
        basis = wavelet_basis(famL, 1)
        fn = CylinderFn.indicator(vertex_path(famL.graph, "v2"))
        coeffs = analyze(basis, fn)
        x_v = famL.spec.pf.x_lambda[1]
        for lab, c in zip(basis.labels, coeffs):
            if lab["kind"] == "scaling" and lab["vertex"] == "v2":
                assert c == pytest.approx(np.sqrt(x_v), abs=1e-12)
            else:
                assert abs(c) < 1e-12

    def test_lambda3_indicator_coefficients(self, lambda3, fam3):
        basis = wavelet_basis(fam3, 1)
        fn = CylinderFn.indicator(normal_form(lambda3, ["e", "f1"]))
        coeffs = analyze(basis, fn)
        assert coeffs == pytest.approx([0.5, 0.5], abs=1e-12)
        assert cylinder_fns_equal(synthesize(basis, coeffs), fn, tol=1e-12)

    def test_random_round_trip(self, famL):
        basis = wavelet_basis(famL, 1)
        rng = np.random.default_rng(7)
        space = basis.space
        for _ in range(20):
            vec = rng.standard_normal(len(space.basis))
            fn = space.function_of(vec)
            back = synthesize(basis, analyze(basis, fn))
            assert np.max(np.abs(space.vector_of(back) - vec)) < 1e-10

    def test_analyze_rejects_deeper_functions(self, famL):
        from kgraphwave import DegreeRangeError, enumerate_paths

        basis = wavelet_basis(famL, 1)  # level (1, 2)
        deep = CylinderFn.indicator(enumerate_paths(famL.graph, (2, 2))[0])
        with pytest.raises(DegreeRangeError):
            analyze(basis, deep)


def check_cascade(basis, fn, tol=1e-12):
    """analyze against the dense oracle, in the same label order; the round
    trip and Parseval; and no dense N x N array on the way."""
    labels, dense = dense_wavelet_basis(basis.family, basis.depth)
    assert list(basis.labels) == labels
    space = basis.space
    vec = space.vector_of(fn)
    scale = max(1.0, float(np.max(np.abs(vec))))
    coeffs = analyze(basis, fn)
    assert np.max(np.abs(coeffs - dense @ (space.weights * vec))) <= tol * scale
    back = space.vector_of(synthesize(basis, coeffs))
    assert np.max(np.abs(back - vec)) <= tol * scale
    energy = float(np.sum(space.weights * vec ** 2))
    assert abs(float(np.sum(coeffs ** 2)) - energy) <= tol * max(1.0, energy)
    assert "matrix" not in basis.__dict__
    return dense


def check_dense_rows(basis):
    """``matrix``, the members scattered into zero rows, against the synthesis
    of the identity, to the last bit."""
    assert basis.matrix.tobytes() == identity_synthesis(basis).tobytes()


FIXTURE_CASES = [("lambda3", (1, 1), 4), ("ledrappier", (1, 1), 3), ("ledrappier", (1, 2), 2),
                 ("ledrappier", (2, 1), 1), ("bouquet-3", (2,), 2)]


@st.composite
def generated_cases(draw):
    """A seeded generated graph or a fixture, a shape, a depth small enough
    for the dense oracle, and a seed for the analyzed function."""
    kind = draw(st.sampled_from(["torus", "circulant", "lambda3", "ledrappier"]))
    if kind == "torus":
        doc = torus_document(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    elif kind == "circulant":
        doc = twisted_circulant_document(draw(st.integers(3, 6)), (1, 2), (1, 2),
                                         draw(st.integers(0, 2 ** 16)))
    else:
        doc = fixture_path(kind)
    shape = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    depth = draw(st.integers(1, 2 if shape == (1, 1) else 1))
    return doc, shape, depth, draw(st.integers(0, 2 ** 32 - 1))


class TestCascade:
    @pytest.mark.parametrize("name,shape,depth", FIXTURE_CASES)
    def test_fixtures_against_dense_oracle(self, name, shape, depth):
        graph = load_kgraph(fixture_path(name))
        basis = wavelet_basis(build_wavelet_family(graph, shape=shape), depth)
        level = tuple(depth * j for j in shape)
        assert basis.space.basis == level_space(basis.family.spec, level).basis
        fn = random_cylinder_fn(graph, level, 12, np.random.default_rng(depth))
        dense = check_cascade(basis, fn)
        # the scattered members are the oracle to the last bit, so listings
        # print the same bytes
        assert np.array_equal(basis.matrix, dense)
        check_dense_rows(basis)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(generated_cases())
    def test_generated_against_dense_oracle(self, case):
        doc, shape, depth, seed = case
        graph = load_kgraph(doc)
        basis = wavelet_basis(build_wavelet_family(graph, shape=shape), depth)
        fn = random_cylinder_fn(graph, tuple(depth * j for j in shape), 8,
                                np.random.default_rng(seed))
        check_cascade(basis, fn)
        check_dense_rows(basis)

    @pytest.mark.parametrize("shape,depth,coarse", [((1, 1), 3, (3, 3)), ((1, 2), 2, (2, 4))])
    def test_compare_bases_dense_rows(self, ledrappier, shape, depth, coarse):
        # the two bases the dense --compare oracle forms: the depth-l basis
        # of J and the depth-1 basis of lJ, at the same level
        check_dense_rows(wavelet_basis(build_wavelet_family(ledrappier, shape=shape), depth))
        check_dense_rows(wavelet_basis(build_wavelet_family(ledrappier, shape=coarse), 1))

    def test_depth6_round_trip_without_dense_basis(self, ledrappier):
        family = build_wavelet_family(ledrappier, shape=(1, 1))
        fn = random_cylinder_fn(ledrappier, (6, 6), 40, np.random.default_rng(6))
        tracemalloc.start()
        try:
            basis = wavelet_basis(family, 6)
            coeffs = analyze(basis, fn)
            back = synthesize(basis, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(basis.labels)
        assert n == path_count(ledrappier, (6, 6)) == 16384
        # a dense basis alone is n * n * 8 bytes = 2 GiB
        assert peak < 200 * 2 ** 20
        assert "matrix" not in basis.__dict__
        space = basis.space
        vec = space.vector_of(fn)
        assert np.max(np.abs(space.vector_of(back) - vec)) < 1e-12 * max(1.0, np.max(np.abs(vec)))
        energy = float(np.sum(space.weights * vec ** 2))
        assert abs(float(np.sum(coeffs ** 2)) - energy) < 1e-12 * max(1.0, energy)

    def test_synthesize_rejects_wrong_length(self, fam3):
        basis = wavelet_basis(fam3, 2)
        with pytest.raises(ShapeMismatch):
            synthesize(basis, np.zeros(len(basis.labels) + 1))


@st.composite
def generated_bases(draw):
    """A generated torus or twisted circulant, a shape, a depth, and a seed
    for the synthesized coefficients."""
    if draw(st.booleans()):
        doc = torus_document(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    else:
        shifts = st.sampled_from([(1,), (1, 2), (2, 3)])
        doc = twisted_circulant_document(draw(st.integers(3, 7)), draw(shifts), draw(shifts),
                                         draw(st.integers(0, 2 ** 16)))
    shape = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    return doc, shape, draw(st.integers(1, 2)), draw(st.integers(0, 2 ** 32 - 1))


class TestRecords:
    """Listings and --synthesize records, written from level coordinates,
    against the same records written from Path-keyed `CylinderFn` terms."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(generated_bases())
    def test_listing_and_synthesis_against_cylinder_oracle(self, case):
        doc, shape, depth, seed = case
        basis = wavelet_basis(build_wavelet_family(load_kgraph(doc), shape=shape), depth)
        assert jsonl.parse(basis.listing()) == cylinder_listing(basis)
        rng = np.random.default_rng(seed)
        # sparse coefficients leave whole subtrees at exactly zero
        coeffs = rng.standard_normal(len(basis.labels)) * (rng.random(len(basis.labels)) < rng.random())
        with tempfile.TemporaryDirectory() as tmp:
            graph, coeff_file = Path(tmp) / "graph.kg", Path(tmp) / "coeffs.jsonl"
            graph.write_text(json.dumps(doc))
            coeff_file.write_text("".join(json.dumps({"coeff": float(c)}) + "\n" for c in coeffs))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["wavelets", str(graph), "--shape", ",".join(map(str, shape)),
                      "--depth", str(depth), "--synthesize", str(coeff_file)])
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert records == cylinder_synthesis_records(basis, coeffs)


@st.composite
def letter_weights(draw):
    """An alphabet of 2-5 letters and positive weights summing to 1, as
    Fractions or as floats."""
    counts = draw(st.lists(st.integers(1, 20), min_size=2, max_size=5))
    total = sum(counts)
    if draw(st.booleans()):
        return len(counts), tuple(Fraction(c, total) for c in counts)
    return len(counts), tuple(c / total for c in counts)


@st.composite
def markov_cases(draw):
    """An alphabet of 2-8 letters, positive weights as Fractions or floats,
    and a depth whose system holds at most `MARKOV_MEMBER_LIMIT` members."""
    counts = draw(st.lists(st.integers(1, 20), min_size=2, max_size=8))
    total, n_letters = sum(counts), len(counts)
    exact = draw(st.booleans())
    weights = tuple(Fraction(c, total) if exact else c / total for c in counts)
    top = 0
    while n_letters ** (top + 2) <= kgraphwave.wavelets.MARKOV_MEMBER_LIMIT:
        top += 1
    return n_letters, weights, draw(st.integers(0, top))


class TestMarkov:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(markov_cases())
    @example((2, (0.3, 0.7), 13))  # at the member limit
    @example((8, tuple(Fraction(c, 36) for c in range(1, 9)), 3))
    def test_listing_bit_for_bit_against_run_engine(self, case):
        # the cascade members equal the per-layer runs of C / sqrt(p_a) times
        # the prefix factor of the word, to the last bit
        assert markov_wavelets(*case).listing() == markov_run_listing(*case)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(letter_weights(), st.integers(0, 4))
    def test_records_against_member_oracle(self, letters, depth):
        n_letters, weights = letters
        assert jsonl.parse(markov_wavelets(n_letters, weights, depth).listing()) \
            == markov_member_records(n_letters, weights, depth)

    def test_haar_system(self):
        system = markov_wavelets(2, (0.5, 0.5), 1)
        assert len(system.functions) == 4
        # phi_k = sqrt(2) * indicator(k); psi_k = sqrt(2)(Z(k0) - Z(k1))
        g = system.graph
        spec = system.spec
        phi0 = system.functions[0]
        assert cylinder_fns_equal(
            phi0, SQRT2 * CylinderFn.indicator(normal_form(g, ["0"])), tol=1e-12)
        psi0 = system.functions[2]
        expected = CylinderFn.combination([
            (normal_form(g, ["0", "0"]), SQRT2),
            (normal_form(g, ["0", "1"]), -SQRT2)])
        assert cylinder_fns_equal(psi0, expected, tol=1e-12)
        assert np.max(np.abs(row_loop_gram(system) - np.eye(4))) < 1e-12

    def test_skewed_weights_hand_vector(self):
        # complement of the constant vector under <x,y> = sum x y p for
        # p = (1/4, 3/4): a(1/4) = b(3/4), a^2/4 + b^2 3/4 = 1
        system = markov_wavelets(2, (Fraction(1, 4), Fraction(3, 4)), 2)
        assert len(system.functions) == 8
        assert np.max(np.abs(row_loop_gram(system) - np.eye(8))) < 1e-12
        a, b = np.sqrt(3.0), 1 / np.sqrt(3.0)
        g, spec = system.graph, system.spec
        psi = next(fn for lab, fn in zip(system.labels, system.functions)
                   if lab["kind"] == "wavelet" and lab["layer"] == 0 and lab["letter"] == "0")
        expected = CylinderFn.combination([
            (normal_form(g, ["0", "0"]), a / np.sqrt(0.25)),
            (normal_form(g, ["0", "1"]), -b / np.sqrt(0.25))])
        assert cylinder_fns_equal(psi, expected, tol=1e-12)

    def test_depth_zero_scaling_only(self):
        system = markov_wavelets(3, (0.2, 0.5, 0.3), 0)
        assert len(system.functions) == 3
        assert all(lab["kind"] == "scaling" for lab in system.labels)
        assert np.max(np.abs(row_loop_gram(system) - np.eye(3))) < 1e-12

    def test_vanishing_integral_chain(self):
        # the displayed orthogonality integrals: wavelets have zero mean,
        # are orthogonal to the scaling block, and shifted layers stay
        # orthogonal to everything below
        system = markov_wavelets(2, (0.25, 0.75), 2)
        spec = system.spec
        by_kind = {}
        for lab, fn in zip(system.labels, system.functions):
            key = ("scaling", None) if lab["kind"] == "scaling" else ("wavelet", lab["layer"])
            by_kind.setdefault(key, []).append(fn)
        for layer in (0, 1):
            for psi in by_kind[("wavelet", layer)]:
                assert abs(integral(spec, psi)) < 1e-12
                for phi in by_kind[("scaling", None)]:
                    assert abs(inner_product(spec, phi, psi)) < 1e-12
        for a in by_kind[("wavelet", 0)]:
            for b in by_kind[("wavelet", 1)]:
                assert abs(inner_product(spec, a, b)) < 1e-12

    def test_bad_weights(self):
        with pytest.raises(BadWeights):
            markov_wavelets(2, (0.7, 0.7), 1)
        with pytest.raises(BadWeights):
            markov_wavelets(1, (1.0,), 1)


@st.composite
def orthonormal_row_pairs(draw):
    """Two row sets orthonormalised by QR, of ru and rv rows, whose spans
    coincide (or nest, when ru != rv), lie a small perturbation apart, or
    are tilted by drawn angles, about half of them at or past pi/4."""
    ru, rv = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    n = max(1, ru + rv + draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = np.linalg.qr(rng.standard_normal((n, n)))[0].T
    kind = draw(st.sampled_from(["coincide", "perturbed", "tilted"]))
    if kind == "coincide":
        v = rows[:rv]
    elif kind == "perturbed":
        v = rows[:rv] + 10.0 ** -draw(st.integers(2, 12)) * rng.standard_normal((rv, n))
    else:
        theta = np.array(draw(st.lists(st.floats(0, np.pi / 2), min_size=rv, max_size=rv)))
        k = min(ru, rv)
        v = rows[ru:ru + rv].copy()
        v[:k] = np.cos(theta[:k, None]) * rows[:k] + np.sin(theta[:k, None]) * v[:k]
    # each set rotated within its span, through QR
    u = np.linalg.qr(rows[:ru].T @ rng.standard_normal((ru, ru)))[0].T
    return u, np.linalg.qr(v.T @ rng.standard_normal((rv, rv)))[0].T


class TestSubspaceCompare:
    @settings(max_examples=300, deadline=None)
    @given(orthonormal_row_pairs())
    @example((np.eye(3)[:2], np.eye(3)[:0]))
    @example((np.eye(2)[:1], np.array([[np.sqrt(0.5), np.sqrt(0.5)]])))
    def test_principal_angles_against_two_svd_oracle(self, pair):
        # bit for bit, so arcsin over the whole array gives the per-element bits
        u, v = pair
        got, want = principal_angles(u, v), two_svd_principal_angles(u, v)
        assert got.shape == want.shape == (min(len(u), len(v)),)
        assert got.tobytes() == want.tobytes()

    def test_compare_takes_no_svd_and_no_dense_rows(self, ledrappier, monkeypatch):
        # the sines are read off the coefficient blocks: no basis of level lJ
        def forbidden(*args, **kwargs):
            raise AssertionError("an SVD or a dense basis was formed")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(MemberSet, "_dense_rows", forbidden)
        fam = build_wavelet_family(ledrappier, shape=(1, 1))
        cmp = subspace_compare(fam, build_wavelet_family(ledrappier, shape=(3, 3)))
        assert cmp.equal and cmp.dim_fine == cmp.dim_coarse == len(cmp.principal_angles) == 252

    @pytest.mark.parametrize("name,shape,ell", FIXTURE_CASES)
    def test_fixtures_against_dense_bases(self, name, shape, ell):
        graph = load_kgraph(fixture_path(name))
        check_compare_against_dense(build_wavelet_family(graph, shape=shape),
                                    build_wavelet_family(graph, shape=tuple(ell * j for j in shape)))

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(generated_cases())
    def test_generated_against_dense_bases(self, case):
        doc, shape, ell, _ = case
        graph = load_kgraph(doc)
        check_compare_against_dense(build_wavelet_family(graph, shape=shape),
                                    build_wavelet_family(graph, shape=tuple(ell * j for j in shape)))

    @pytest.mark.parametrize("which", ["fine", "coarse"])
    def test_perturbed_block_raises(self, ledrappier, which):
        # a node value, on either side, off by 1e-6 breaks the orthonormality
        # the sines rest on; in the fine family it would not even move them
        for side in ("left", "right"):
            fam = build_wavelet_family(ledrappier, shape=(1, 1))
            coarse = build_wavelet_family(ledrappier, shape=(2, 2))
            assert subspace_compare(fam, coarse).equal
            getattr((fam if which == "fine" else coarse).blocks["v1"].nodes, side)[0] += 1e-6
            with pytest.raises(ResidualTooLarge, match="vertex v1 "):
                subspace_compare(fam, coarse)

    def test_perturbed_scaling_value_raises(self, ledrappier):
        fam = build_wavelet_family(ledrappier, shape=(1, 1))
        blocks = dict(fam.blocks)
        block = blocks["v2"]
        blocks["v2"] = type(block)(block.vertex, block.positions, block.scale * (1 + 1e-6), block.nodes)
        off = type(fam)(fam.graph, fam.spec, fam.shape, fam.space, blocks)
        with pytest.raises(ResidualTooLarge, match="vertex v2 "):
            subspace_compare(fam, off)

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_sines_read_whole_rows_in_chunks(self, monkeypatch, rows):
        """Chunks of a few rows give the bits of one chunk per block: each
        sum runs over one whole dense row.  Bernoulli weights leave a
        round-off sine of about 1e-16."""
        graph = bouquet_graph(3)
        spec = MeasureSpec.bernoulli(graph, [0.2, 0.3, 0.5])
        fam = build_wavelet_family(graph, shape=(1,), spec=spec)
        coarse = build_wavelet_family(graph, shape=(4,), spec=spec)
        whole = subspace_compare(fam, coarse).principal_angles
        assert max(whole) > 0.0
        monkeypatch.setattr(kgraphwave.wavelets, "_CHUNK_ENTRIES", rows * 81)
        assert subspace_compare(fam, coarse).principal_angles == whole

    def test_family_against_itself(self, fam3):
        cmp = subspace_compare(fam3, fam3)
        assert cmp.equal
        assert all(a < 1e-10 for a in cmp.principal_angles)

    def test_lambda3_double_shape_report(self, lambda3, fam3):
        coarse = build_wavelet_family(lambda3, shape=(2, 2))
        cmp = subspace_compare(fam3, coarse)
        assert cmp.dim_fine == cmp.dim_coarse == 3
        assert len(cmp.principal_angles) == 3
        # reported outcome, not asserted as an identity in general: the
        # spaces coincide on this fixture
        assert cmp.equal

    def test_ledrappier_double_shape_report(self, ledrappier, famL):
        coarse = build_wavelet_family(ledrappier, shape=(2, 4))
        cmp = subspace_compare(famL, coarse)
        assert cmp.dim_fine == cmp.dim_coarse
        assert cmp.equal  # computed, matches the dimension-count heuristic

    def test_shape_mismatch(self, lambda3, fam3):
        from kgraphwave import ShapeMismatch

        other = build_wavelet_family(lambda3, shape=(1, 2))
        with pytest.raises(ShapeMismatch):
            subspace_compare(fam3, other)

    def test_orthogonal_spans_give_right_angle(self):
        # direct check of the angle computation on 1-dim orthonormal spans
        u = np.array([[1.0, 0.0]])
        v = np.array([[0.0, 1.0]])
        angles = principal_angles(u, v)
        assert angles == pytest.approx([np.pi / 2], abs=1e-12)
        assert principal_angles(u, u) == pytest.approx([0.0], abs=1e-12)


def check_compare_against_dense(family, coarse):
    """`subspace_compare` against the principal angles of the two dense
    bases: within 1e-15 each, with the same ``equal`` and dimensions."""
    cmp = subspace_compare(family, coarse)
    equal, angles, dim_fine, dim_coarse = dense_subspace_compare(family, coarse)
    assert (cmp.equal, cmp.dim_fine, cmp.dim_coarse) == (equal, dim_fine, dim_coarse)
    assert len(cmp.principal_angles) == len(angles)
    assert np.max(np.abs(np.array(cmp.principal_angles) - angles), initial=0.0) <= 1e-15


class TestWaveletLimit:
    """Levels are counted before they are built: the sizes are computed here,
    and no admitted size near the limit is run."""

    @settings(max_examples=60, deadline=None)
    @given(family_documents(), st.data())
    def test_count_agrees_with_path_counts(self, doc, data):
        graph = load_kgraph(doc)
        level = tuple(data.draw(st.integers(0, 4)) for _ in range(graph.k))
        cap = data.draw(st.integers(1, 2 ** 20))
        exact = int(path_counts(graph, level)[level])
        got = _path_count(graph, level, cap)
        assert got == exact if exact < cap else got >= cap

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.data())
    def test_count_on_graphs_with_sources(self, n, data):
        """On 1-graphs whose edges miss some vertices, paths can die out
        after the count passes the cap."""
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
        graph = load_kgraph({"k": 1, "vertices": [f"v{i}" for i in range(n)], "squares": [], "edges": [
            {"id": f"e{i}", "color": 1, "source": f"v{s}", "range": f"v{r}"} for i, (s, r) in enumerate(pairs)]})
        level, cap = (data.draw(st.integers(0, 6)),), data.draw(st.integers(1, 8))
        exact = int(path_counts(graph, level)[level])
        got = _path_count(graph, level, cap)
        assert got == exact if exact < cap else got >= cap

    def test_a_color_that_loses_paths_is_counted_first(self):
        # two color-1 loops at u and at w; one color-2 edge w -> u: no path of
        # degree (0, 2), and four of degree (2, 1) from two of degree (2, 0)
        graph = load_kgraph({"k": 2, "vertices": ["u", "w"], "edges": [
            *({"id": f"l{v}{i}", "color": 1, "source": v, "range": v} for v in "uw" for i in (1, 2)),
            {"id": "f", "color": 2, "source": "w", "range": "u"}],
            "squares": [{"left": [f"lu{i}", "f"], "right": ["f", f"lw{i}"]} for i in (1, 2)]})
        counts = path_counts(graph, (2, 2))
        assert counts[2, 2] == 0 == _path_count(graph, (2, 2), 1)
        assert counts[2, 1] == 4 and _path_count(graph, (2, 1), 2) >= 2 and _path_count(graph, (2, 1), 8) == 4

    def test_ledrappier_sizes(self, ledrappier):
        """Depth 8 of shape (1,1) is admitted: 262,144 paths of 16 edges;
        depth 9 holds 1,048,576 paths of 18 edges."""
        assert check_wavelet_level(ledrappier, (8, 8)) == 4 ** 9 * 16 <= WAVELET_ENTRY_LIMIT
        assert 4 ** 10 * 18 > WAVELET_ENTRY_LIMIT
        for level in [(9, 9), (12, 12), (30, 30), (40, 40), (10 ** 9, 10 ** 9)]:
            with pytest.raises(TooLarge, match=re.escape(f"level {level} ")):
                check_wavelet_level(ledrappier, level)
        # a basis holds a dense |D_v^J|^2 block per vertex: 4 * 1024^2 at
        # shape (5, 5), and 4 * 4096^2 at (6, 6); |D_v^J| = (A_1^J1 A_2^J2 1)_v
        a1, a2 = vertex_matrices(ledrappier)
        blocks = {ell: np.sum((np.linalg.matrix_power(a1 @ a2, ell) @ np.ones(4)) ** 2) for ell in (5, 6)}
        assert blocks[5] == 4 * 1024 ** 2 <= WAVELET_ENTRY_LIMIT < blocks[6] == 4 * 4096 ** 2

    def test_refusals_build_no_level(self, ledrappier, monkeypatch):
        fam, fam6, fam7 = (build_wavelet_family(ledrappier, shape=(ell, ell)) for ell in (1, 6, 7))

        def no_levels(*args):
            raise AssertionError("a level space was built")

        monkeypatch.setattr(kgraphwave.wavelets, "level_space", no_levels)
        # the families of (6, 6) and (7, 7) pass the word-entry count; the
        # dense blocks of their bases do not
        for build in (lambda: build_wavelet_family(ledrappier, shape=(30, 30)),
                      lambda: wavelet_basis(fam6, 1), lambda: wavelet_basis(fam7, 1),
                      lambda: wavelet_basis(fam, 9), lambda: wavelet_basis(fam, 40)):
            with pytest.raises(TooLarge):
                build()

    def test_patched_limit(self, ledrappier, monkeypatch):
        """At the limit a level is built, one entry below it is refused:
        shape (1,1) has 16 paths of 2 edges, and its basis blocks of 4 x 4
        per vertex; depth 2 has 64 paths of 4, as has the coarse family of
        --compare 2."""
        fam = build_wavelet_family(ledrappier, shape=(1, 1))
        cases = [(16 * 2, lambda: build_wavelet_family(ledrappier, shape=(1, 1))),
                 (4 * 4 ** 2, lambda: wavelet_basis(fam, 1)),
                 (256, lambda: wavelet_basis(fam, 2)),
                 (256, lambda: subspace_compare(fam, build_wavelet_family(ledrappier, shape=(2, 2))))]
        for limit, build in cases:
            monkeypatch.setattr(kgraphwave.wavelets, "WAVELET_ENTRY_LIMIT", limit)
            build()
            monkeypatch.setattr(kgraphwave.wavelets, "WAVELET_ENTRY_LIMIT", limit - 1)
            with pytest.raises(TooLarge, match=f"more than {limit - 1} "):
                build()

    @pytest.mark.parametrize("args", [["6,6"], ["7,7", "--depth", "1"]], ids=["6,6", "7,7 depth 1"])
    def test_cli_basis_blocks_size_limit(self, capsys, args):
        # the family is within the word-entry count, its basis's dense blocks are not
        with pytest.raises(SystemExit) as exc:
            main(["wavelets", str(fixture_path("ledrappier")), "--shape", *args])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        rec = json.loads(captured.err)
        assert rec["reason"] == "size_limit"
        assert rec["message"] == (f"the coefficient blocks of shape ({args[0][0]}, {args[0][0]}), |D_v^J|^2 entries "
                                  f"for each vertex v, hold more than {WAVELET_ENTRY_LIMIT} entries, the limit")

    @pytest.mark.parametrize("shape,lines", [("5,5", 4096), ("6,6", 16384)])
    def test_cli_family_listing_admits_shapes_5_and_6(self, capsys, shape, lines):
        main(["wavelets", str(fixture_path("ledrappier")), "--shape", shape, "--list-family"])
        out = capsys.readouterr().out
        assert out.count("\n") == lines  # 4 scaling functions and 4 * (|D_v^J| - 1) wavelets

    def test_cli_compare_6_is_admitted(self, capsys):
        # the coarse family's blocks of 4096 coordinates, read in chunks of rows
        main(["wavelets", str(fixture_path("ledrappier")), "--shape", "1,1", "--compare", "6"])
        (rec,) = jsonl.parse(capsys.readouterr().out)
        assert rec["equal"] and rec["dim_multiscale"] == rec["dim_single_scale"] == 4 ** 7 - 4

    @pytest.mark.parametrize("args", [["--depth", "40"], ["--list-family"], ["--compare", "40"],
                                      ["--depth", "12"]])
    def test_cli_size_limit(self, capsys, args):
        shape = "30,30" if "--list-family" in args else "1,1"
        with pytest.raises(SystemExit) as exc:
            main(["wavelets", str(fixture_path("ledrappier")), "--shape", shape, *args])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        (line,) = captured.err.splitlines()
        rec = json.loads(line)
        assert rec["error"] == "usage" and rec["reason"] == "size_limit"
        assert str(WAVELET_ENTRY_LIMIT) in rec["message"]
