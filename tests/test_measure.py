import random
import struct
import tracemalloc
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgraphwave
from kgraphwave import (
    BadWeights,
    CylinderFn,
    analyze,
    build_wavelet_family,
    DegreeRangeError,
    DimensionMismatch,
    MeasureSpec,
    NotStronglyConnected,
    NotZeroOne,
    PFData,
    bouquet_graph,
    cylinder_measure,
    embed_to_interval,
    enumerate_paths,
    extensions,
    fixture_path,
    hausdorff_dimension,
    inner_product,
    integral,
    level_space,
    load_kgraph,
    load_kgraph_file,
    mce,
    normal_form,
    pf_data,
    refine,
    s_apply,
    vertex_matrices,
    vertex_path,
    wavelet_basis,
)
from kgraphwave.kgraph import form_of, is_zero_one, normal_form_rows
from kgraphwave.measure import check_zero_one, embed_interval
from helpers import (
    check_ip_refinement_invariance,
    check_measure_additivity,
    composed_refine,
    cylinder_fns_equal,
    digit_interval,
    family_documents,
    generated_documents,
    mce_inner_product,
    per_kind_masses,
    random_word,
    record_terms,
    refine_vector_of,
    restart_compose,
    segment_mce,
    torus_document,
    twisted_circulant_document,
)


@pytest.fixture(scope="module")
def spec3(lambda3):
    return MeasureSpec.perron_frobenius(lambda3)


@pytest.fixture(scope="module")
def spec3x(lambda3):
    return MeasureSpec.perron_frobenius(lambda3, exact=True)


@pytest.fixture(scope="module")
def specL(ledrappier):
    return MeasureSpec.perron_frobenius(ledrappier)


class TestPerronFrobeniusSpec:
    def test_connectivity_checked_once(self, monkeypatch, ledrappier):
        calls = []
        real = kgraphwave.perron.is_strongly_connected

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(kgraphwave.perron, "is_strongly_connected", counting)
        monkeypatch.setattr(kgraphwave.measure, "is_strongly_connected", counting)
        MeasureSpec.perron_frobenius(ledrappier)  # inside pf_data only
        assert len(calls) == 1
        pf = pf_data(ledrappier)
        MeasureSpec.perron_frobenius(ledrappier, pf)  # a given pf is checked against the graph
        assert len(calls) == 3

    def test_pf_data_of_another_graph_rejected(self, lambda3, ledrappier):
        with pytest.raises(DimensionMismatch):
            MeasureSpec.perron_frobenius(lambda3, pf=pf_data(ledrappier))
        with pytest.raises(DimensionMismatch):
            MeasureSpec.perron_frobenius(ledrappier, pf=pf_data(lambda3))
        rho_only = PFData(rho=np.array([2.0, 2.0, 2.0]), x_lambda=np.full(4, 0.25))
        with pytest.raises(DimensionMismatch):
            MeasureSpec.perron_frobenius(ledrappier, pf=rho_only)

    def test_disconnected_graph_rejected(self, sphere):
        with pytest.raises(NotStronglyConnected):
            MeasureSpec.perron_frobenius(sphere)
        n = len(sphere.vertices)
        pf = PFData(rho=np.ones(sphere.k), x_lambda=np.full(n, 1.0 / n))
        with pytest.raises(NotStronglyConnected):
            MeasureSpec.perron_frobenius(sphere, pf)


class TestCylinderMeasure:
    def test_lambda3_exact_values(self, lambda3, spec3x):
        e = normal_form(lambda3, ["e"])
        assert cylinder_measure(spec3x, e) == Fraction(1)
        for i in ("f1", "f2"):
            assert cylinder_measure(spec3x, normal_form(lambda3, ["e", i])) == Fraction(1, 2)
            assert cylinder_measure(spec3x, normal_form(lambda3, ["e", i, "e"])) == Fraction(1, 2)
            for j in ("f1", "f2"):
                assert cylinder_measure(
                    spec3x, normal_form(lambda3, ["e", i, "e", j])) == Fraction(1, 4)

    def test_ledrappier_12_mass(self, ledrappier, specL):
        for lam in enumerate_paths(ledrappier, (1, 2)):
            assert cylinder_measure(specL, lam) == pytest.approx(1 / 32, abs=1e-15)

    def test_vertex_mass_is_eigenvector(self, ledrappier, specL):
        for i, v in enumerate(ledrappier.vertices):
            assert cylinder_measure(specL, vertex_path(ledrappier, v)) == pytest.approx(
                specL.pf.x_lambda[i], abs=1e-15)

    def test_bernoulli(self, bouquet2):
        spec = MeasureSpec.bernoulli(bouquet2, (Fraction(1, 4), Fraction(3, 4)), exact=True)
        w = normal_form(bouquet2, ["0", "1", "1"])
        assert cylinder_measure(spec, w) == Fraction(9, 64)

    def test_bernoulli_validation(self, bouquet2, lambda3):
        with pytest.raises(BadWeights):
            MeasureSpec.bernoulli(bouquet2, (0.3, 0.3))
        with pytest.raises(BadWeights):
            MeasureSpec.bernoulli(bouquet2, (1.2, -0.2))
        with pytest.raises(BadWeights):
            MeasureSpec.bernoulli(lambda3, (0.5, 0.5))


@st.composite
def measures(draw):
    """A float or exact measure: PF on a generated torus, on a twisted
    circulant (rho = 2, or rho = 3 with three shifts per color) or on
    bouquet-3, or Bernoulli on a bouquet with float or Fraction weights."""
    kind = draw(st.sampled_from(["torus", "circulant", "circulant-3", "bouquet-3", "bernoulli"]))
    exact = draw(st.booleans())
    if kind == "bernoulli":
        graph = bouquet_graph(draw(st.integers(2, 4)))
        size = len(graph.edges)
        if exact or draw(st.booleans()):
            parts = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
            weights = [Fraction(a, sum(parts)) for a in parts]
        else:
            parts = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
            weights = [a / sum(parts) for a in parts]
        return MeasureSpec.bernoulli(graph, weights, exact=exact)
    seed = draw(st.integers(0, 2 ** 16))
    if kind == "torus":
        graph = load_kgraph(torus_document(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    elif kind == "circulant":
        graph = load_kgraph(twisted_circulant_document(draw(st.integers(3, 6)), (1, 2), (1, 2), seed))
    elif kind == "circulant-3":
        graph = load_kgraph(twisted_circulant_document(7, (1, 2, 3), (1, 2, 4), seed))
    else:
        graph = load_kgraph_file(fixture_path("bouquet-3"))
    return MeasureSpec.perron_frobenius(graph, exact=exact)


class TestOneModel:
    """The (rho, x, w) model gives the per-kind formulas' values to the last
    bit: prefix factors, level-space weights and masses, float and exact."""

    @settings(max_examples=40, deadline=None)
    @given(measures())
    def test_against_per_kind_formulas(self, spec):
        graph = spec.graph
        # words of up to four letters on a bouquet, where their order matters
        for level in product(range(5 if graph.k == 1 else 3), repeat=graph.k):
            factors, weights, masses = per_kind_masses(spec, level)
            words, _, sources = graph.word_kernel.level(level)
            assert np.array_equal(spec.prefix_factors(level, words), factors)
            assert np.array_equal(level_space(spec, level).weights, weights)
            assert np.array_equal(spec.level_weights(level, words, sources), masses)
            got = [cylinder_measure(spec, p) for p in enumerate_paths(graph, level)]
            assert got == masses and list(map(type, got)) == list(map(type, masses))


class TestRefine:
    def test_theta_e_to_level_11(self, lambda3, spec3):
        e = normal_form(lambda3, ["e"])
        refined = refine(CylinderFn.indicator(e), (1, 1))
        expected = CylinderFn.combination(
            [(normal_form(lambda3, ["e", "f1"]), 1.0),
             (normal_form(lambda3, ["e", "f2"]), 1.0)])
        assert cylinder_fns_equal(refined, expected)
        assert {p.word for p in refined.terms} == {("e", "f1"), ("e", "f2")}

    def test_noop_at_level(self, lambda3):
        ef1 = CylinderFn.indicator(normal_form(lambda3, ["e", "f1"]))
        assert refine(ef1, (1, 1)).terms == ef1.terms

    def test_ledrappier_vertex_indicator(self, ledrappier):
        fn = refine(CylinderFn.indicator(vertex_path(ledrappier, "v1")), (1, 2))
        assert sorted("".join(p.word) for p in fn.terms) == [
            "acc", "ace", "aeh", "aej", "dhm", "dho", "djb", "dji"]
        assert all(c == 1.0 for c in fn.terms.values())

    def test_refine_below_degree_rejected(self, lambda3):
        ef1 = CylinderFn.indicator(normal_form(lambda3, ["e", "f1"]))
        with pytest.raises(DegreeRangeError):
            refine(ef1, (0, 1))

    def test_total_measure_preserved(self, ledrappier, specL):
        fn = CylinderFn.indicator(vertex_path(ledrappier, "v2"))
        for level in ((1, 0), (1, 1), (2, 2)):
            refined = refine(fn, level)
            mass = sum(c * cylinder_measure(specL, p) for p, c in refined.terms.items())
            assert mass == pytest.approx(specL.pf.x_lambda[1], abs=1e-14)


class TestMCE:
    def test_self(self, lambda3):
        e = normal_form(lambda3, ["e"])
        assert mce(e, e) == [e]

    def test_mixed_colors(self, lambda3):
        e = normal_form(lambda3, ["e"])
        f1 = normal_form(lambda3, ["f1"])
        assert [p.word for p in mce(e, f1)] == [("e", "f2")]

    def test_disjoint(self, lambda3):
        ef1 = normal_form(lambda3, ["e", "f1"])
        ef2 = normal_form(lambda3, ["e", "f2"])
        assert mce(ef1, ef2) == []

    def test_nested_prefix(self, bouquet2):
        zero = normal_form(bouquet2, ["0"])
        zero_one = normal_form(bouquet2, ["0", "1"])
        assert mce(zero, zero_one) == [zero_one]
        assert mce(zero_one, zero) == [zero_one]
        one = normal_form(bouquet2, ["1"])
        assert mce(one, zero_one) == []


class TestInnerProduct:
    def test_vertex_orthogonality(self, ledrappier, specL):
        for i, v in enumerate(ledrappier.vertices):
            for j, w in enumerate(ledrappier.vertices):
                ip = inner_product(specL, CylinderFn.indicator(vertex_path(ledrappier, v)),
                                   CylinderFn.indicator(vertex_path(ledrappier, w)))
                expected = specL.pf.x_lambda[i] if i == j else 0.0
                assert ip == pytest.approx(expected, abs=1e-14)

    def test_mixed_degree_with_refinement_oracle(self, lambda3, spec3):
        e = CylinderFn.indicator(normal_form(lambda3, ["e"]))
        f1 = CylinderFn.indicator(normal_form(lambda3, ["f1"]))
        got = inner_product(spec3, e, f1)
        # oracle: refine both to (1,1) by hand and sum the overlap masses
        re, rf = refine(e, (1, 1)), refine(f1, (1, 1))
        oracle = sum(ce * rf.terms.get(p, 0.0) * cylinder_measure(spec3, p)
                     for p, ce in re.terms.items())
        assert got == pytest.approx(oracle, abs=1e-15)
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_positive_semidefinite_and_kernel(self, lambda3, spec3):
        e = normal_form(lambda3, ["e"])
        ef1 = normal_form(lambda3, ["e", "f1"])
        ef2 = normal_form(lambda3, ["e", "f2"])
        zero = CylinderFn.combination([(e, 1.0), (ef1, -1.0), (ef2, -1.0)])
        assert inner_product(spec3, zero, zero) == pytest.approx(0.0, abs=1e-15)
        assert cylinder_fns_equal(zero, CylinderFn(lambda3, {}), tol=1e-15)
        nonzero = CylinderFn.combination([(ef1, 1.0), (ef2, -1.0)])
        assert inner_product(spec3, nonzero, nonzero) > 0

    def test_symmetry_bilinearity(self, ledrappier, specL):
        a = CylinderFn.indicator(normal_form(ledrappier, ["a"]))
        cc = CylinderFn.indicator(normal_form(ledrappier, ["c", "c"]))
        dv = CylinderFn.indicator(vertex_path(ledrappier, "v1"))
        assert inner_product(specL, a, cc) == pytest.approx(
            inner_product(specL, cc, a), abs=1e-15)
        lhs = inner_product(specL, a + 2.0 * dv, cc)
        rhs = inner_product(specL, a, cc) + 2.0 * inner_product(specL, dv, cc)
        assert lhs == pytest.approx(rhs, abs=1e-14)


class TestPropertySuites:
    def test_measure_additivity(self, spec3, specL):
        assert check_measure_additivity(spec3, (2, 2)) < 1e-12
        assert check_measure_additivity(specL, (1, 1)) < 1e-12

    def test_probability_partitions(self, lambda3, ledrappier, spec3, specL):
        for graph, spec, top in ((lambda3, spec3, (3, 3)), (ledrappier, specL, (2, 2))):
            for level in product(*(range(c + 1) for c in top)):
                total = sum(float(cylinder_measure(spec, p))
                            for p in enumerate_paths(graph, level))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_inner_product_refinement_invariance(self, lambda3, spec3):
        e = CylinderFn.indicator(normal_form(lambda3, ["e"]))
        f1 = CylinderFn.indicator(normal_form(lambda3, ["f1"]))
        psi = CylinderFn.combination([
            (normal_form(lambda3, ["e", "f1"]), 1.0),
            (normal_form(lambda3, ["e", "f2"]), -1.0)])
        assert check_ip_refinement_invariance(
            spec3, [e, f1, psi], [(1, 1), (2, 1), (2, 2)]) < 1e-12

    def test_bernoulli_additivity(self, bouquet2):
        spec = MeasureSpec.bernoulli(bouquet2, (0.25, 0.75))
        for word in ([], ["0"], ["1", "0"]):
            base = cylinder_measure(spec, normal_form(bouquet2, word)) if word \
                else cylinder_measure(spec, vertex_path(bouquet2, "v"))
            split = sum(cylinder_measure(spec, normal_form(bouquet2, word + [i]))
                        for i in ("0", "1"))
            assert split == pytest.approx(base, abs=1e-15)


class TestEmbedding:
    def test_full_shift_digits(self):
        doc = {"k": 1, "vertices": ["0", "1"],
               "edges": [{"id": f"e{i}{j}", "color": 1, "source": j, "range": i}
                         for i in "01" for j in "01"],
               "squares": []}
        g = load_kgraph(doc)
        assert embed_to_interval(g, vertex_path(g, "0")) == (Fraction(0), Fraction(1, 2))
        # itinerary (1, 0): the edge with range 1 and source 0
        p = normal_form(g, ["e10"])
        assert embed_to_interval(g, p) == (Fraction(1, 2), Fraction(3, 4))

    def test_ledrappier_itinerary(self, ledrappier):
        acc = normal_form(ledrappier, ["a", "c", "c"])
        # oracle itinerary: range v1 then sources v1, v1, v1 -> digits 0,0,0,0
        assert embed_to_interval(ledrappier, acc) == (Fraction(0), Fraction(1, 256))
        dhm = normal_form(ledrappier, ["d", "h", "m"])
        # digits: r(d)=v1 -> 0, s(d)=v2 -> 1, s(h)=v4 -> 3, s(m)=v3 -> 2
        lo = Fraction(0, 4) + Fraction(1, 16) + Fraction(3, 64) + Fraction(2, 256)
        assert embed_to_interval(ledrappier, dhm) == (lo, lo + Fraction(1, 256))

    def test_rejects_multiplicity(self, lambda3):
        with pytest.raises(NotZeroOne):
            embed_to_interval(lambda3, vertex_path(lambda3, "v"))


# two color-1 edges from v to w: the vertex matrix holds a 2
REPEATED_EDGES = {"k": 1, "vertices": ["v", "w"],
                  "edges": [{"id": "a", "color": 1, "source": "v", "range": "w"},
                            {"id": "b", "color": 1, "source": "v", "range": "w"},
                            {"id": "c", "color": 1, "source": "w", "range": "v"}],
                  "squares": []}


class TestZeroOne:
    """`is_zero_one` reads repeated (color, range, source) triples off the
    edge columns; the embedding raises and the dimension warns on them."""

    @settings(max_examples=60, deadline=None)
    @given(generated_documents())
    def test_matches_the_vertex_matrices(self, doc):
        graph = load_kgraph(doc)
        assert is_zero_one(graph) == all(int(m.max()) <= 1 for m in vertex_matrices(graph))

    def test_fixtures_and_repeated_edges(self, lambda3, ledrappier):
        assert is_zero_one(ledrappier) and not is_zero_one(lambda3)
        assert not is_zero_one(load_kgraph(REPEATED_EDGES))

    def test_raise_and_warning_build_no_matrix(self, monkeypatch, ledrappier):
        graph = load_kgraph(REPEATED_EDGES)
        pf, pf_led = pf_data(graph), pf_data(ledrappier)

        def boom(*args):
            raise AssertionError("a vertex matrix was built")
        for module in (kgraphwave.kgraph, kgraphwave.measure, kgraphwave.perron):
            monkeypatch.setattr(module, "vertex_matrices", boom, raising=False)
        with pytest.raises(NotZeroOne):
            check_zero_one(graph)
        with pytest.raises(NotZeroOne):
            embed_to_interval(graph, normal_form(graph, ["a"]))
        with pytest.warns(UserWarning, match="entry > 1"):
            assert hausdorff_dimension(graph, pf) == pytest.approx(np.log(pf.rho[0]) / np.log(2))
        check_zero_one(ledrappier)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hausdorff_dimension(ledrappier, pf_led)


def random_paths(graph, data, count, top=2):
    """`count` paths drawn at random degrees up to `top` per color (vertex
    paths included)."""
    out = []
    while len(out) < count:
        paths = enumerate_paths(graph, tuple(data.draw(st.integers(0, top)) for _ in range(graph.k)))
        if paths:
            out.append(data.draw(st.sampled_from(paths)))
    return out


def random_fn(graph, data, terms):
    coeffs = data.draw(st.lists(st.floats(-4, 4, allow_nan=False), min_size=terms, max_size=terms))
    return CylinderFn.combination(list(zip(random_paths(graph, data, terms), coeffs)))


def random_spec(graph, data):
    """A (rho, x, w) spec with random positive entries: the formulas hold
    for any triple, a measure or not."""
    def draw(n):
        return data.draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    return MeasureSpec(MeasureSpec.PF, graph, (draw(graph.k), draw(len(graph.vertices)), draw(len(graph.edge_ids))))


def keyed(fn):
    """The terms of a function with each path's fields, in term order."""
    return [((p, p.degree, p.range, p.source), c) for p, c in fn.terms.items()]


class TestRowEngine:
    """`mce`, `refine`, `inner_product` and `s_apply` on word-kernel rows,
    against the one-path-at-a-time oracles of `helpers`, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(family_documents(), st.data())
    def test_mce_matches_segment_oracle(self, doc, data):
        graph = load_kgraph(doc)
        paths = [p for d in product(range(3), repeat=graph.k) for p in enumerate_paths(graph, d)]
        for lam in [data.draw(st.sampled_from(paths)) for _ in range(3)]:
            for mu in (mu for degree in product(range(2), repeat=graph.k)
                       for mu in enumerate_paths(graph, degree, range=lam.range)):  # each mu that may meet lam
                assert [(p, p.degree, p.source) for p in mce(lam, mu)] == \
                    [(p, p.degree, p.source) for p in segment_mce(lam, mu)]

    def test_mce_exhaustive_on_fixtures(self, lambda3, ledrappier):
        # composing puts the extensions of a path out of level order on
        # ledrappier and this circulant
        circulant = load_kgraph(twisted_circulant_document(5, (1, 2), (0, 1), 0))
        for graph in (lambda3, ledrappier, circulant):
            paths = [p for d in product(range(3), repeat=2) if sum(d) <= 2 for p in enumerate_paths(graph, d)]
            for lam in paths:
                for mu in paths:
                    assert mce(lam, mu) == segment_mce(lam, mu)

    @settings(max_examples=60, deadline=None)
    @given(generated_documents(), st.data())
    def test_refine_and_inner_product_bit_for_bit(self, doc, data):
        graph = load_kgraph(doc)
        spec = random_spec(graph, data)
        f, g = random_fn(graph, data, 4), random_fn(graph, data, 3)
        level = tuple(max(a, b) for a, b in zip(f.level(), g.level()))
        assert keyed(refine(f, level)) == keyed(composed_refine(f, level))
        assert inner_product(spec, f, g) == mce_inner_product(spec, f, g)

    def test_inner_product_bit_for_bit_on_fixtures(self, lambda3, ledrappier, spec3, spec3x, specL):
        rng = np.random.default_rng(5)
        for graph, specs in ((lambda3, (spec3, spec3x)), (ledrappier, (specL,))):
            fns = []
            for _ in range(4):
                pairs = []
                for _ in range(5):
                    paths = enumerate_paths(graph, tuple(int(x) for x in rng.integers(0, 3, graph.k)))
                    pairs.append((paths[int(rng.integers(len(paths)))], float(rng.standard_normal())))
                fns.append(CylinderFn.combination(pairs))
            for f in fns:
                assert keyed(refine(f, (3, 3))) == keyed(composed_refine(f, (3, 3)))
                for g in fns:
                    for spec in specs:
                        assert inner_product(spec, f, g) == mce_inner_product(spec, f, g)

    @settings(max_examples=40, deadline=None)
    @given(generated_documents(), st.data())
    def test_s_apply_matches_restarting_oracle(self, doc, data):
        graph = load_kgraph(doc)
        spec = random_spec(graph, data)
        (path,) = random_paths(graph, data, 1)
        f = random_fn(graph, data, 5)
        factor = spec.prefix_factor(path)
        want = CylinderFn(graph, {restart_compose(path, mu): factor * c
                                  for mu, c in f.terms.items() if mu.range == path.source})
        assert keyed(s_apply(spec, path, f)) == keyed(want)


class TestBatchMasses:
    @settings(max_examples=40, deadline=None)
    @given(generated_documents(), st.data())
    def test_intervals_match_digit_loop(self, doc, data):
        graph = load_kgraph(doc)
        paths = random_paths(graph, data, 5, top=3)
        if any(int(m.max()) > 1 for m in vertex_matrices(graph)):
            with pytest.raises(NotZeroOne):
                embed_to_interval(graph, paths[0])
            return
        want = [digit_interval(graph, p) for p in paths]
        assert [embed_to_interval(graph, p) for p in paths] == want
        got = [embed_interval(graph, graph.vertex_index[p.range], [graph.edge_position[e] for e in p.word])
               for p in paths]
        assert [(str(lo), str(hi)) for lo, hi in got] == [(str(lo), str(hi)) for lo, hi in want]

    def test_ledrappier_intervals_match_digit_loop(self, ledrappier):
        for degree in product(range(3), repeat=2):
            for p in enumerate_paths(ledrappier, degree):
                assert embed_to_interval(ledrappier, p) == digit_interval(ledrappier, p)

    def test_per_degree_masses_are_the_one_path_masses(self, lambda3, ledrappier, spec3, spec3x, specL):
        from kgraphwave.measure import cylinder_measures
        for graph, specs in ((lambda3, (spec3, spec3x)), (ledrappier, (specL,))):
            paths = [p for d in product(range(3), repeat=2) for p in enumerate_paths(graph, d)]
            forms = normal_form_rows(graph, [list(p.word) or ["@" + p.range] for p in paths], vertex_marks=True)
            for spec in specs:
                got = cylinder_measures(spec, forms)
                want = [cylinder_measure(spec, p) for p in paths]
                assert [(type(x), x) for x in got] == [(type(x), x) for x in want]


def test_cylinder_fn_records_round_trip(ledrappier):
    fn = CylinderFn.combination([
        (normal_form(ledrappier, ["a", "c", "c"]), 4.0),
        (normal_form(ledrappier, ["a", "c", "e"]), -4.0),
        (vertex_path(ledrappier, "v2"), 0.5)])
    back = CylinderFn.from_records(ledrappier, fn.to_records())
    assert back.terms == fn.terms


def bits(pairs):
    """(key, coefficient) pairs with each coefficient as its 8 bytes."""
    return [(key, struct.pack("<d", c)) for key, c in pairs]


class TestOneRepresentation:
    """`CylinderFn` holds normal forms; its record reader and the one
    refinement engine against the oracles of `helpers`, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(generated_documents(), st.data())
    def test_from_records_matches_the_record_oracle(self, doc, data):
        graph = load_kgraph(doc)
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        # words in any color order, vertex marks and normal forms, drawn with repeats
        words = [random_word(graph, data.draw(st.integers(1, 4)), rng) for _ in range(3)]
        words += [["@" + data.draw(st.sampled_from(graph.vertices))]]
        words += [list(p.word) or ["@" + p.range] for p in random_paths(graph, data, 2)]
        records = []
        for _ in range(data.draw(st.integers(0, 12))):
            word = data.draw(st.sampled_from(words))
            c = data.draw(st.floats(-4, 4, allow_nan=False))
            records.append({"path": word, "coeff": c})
            if data.draw(st.booleans()):  # a record that cancels the last one
                records.append({"path": word, "coeff": -c})
        fn = CylinderFn.from_records(graph, records)
        assert bits(fn.forms.items()) == bits(record_terms(graph, records))

    @settings(max_examples=60, deadline=None)
    @given(generated_documents(), st.data())
    def test_vector_of_is_the_dense_refinement(self, doc, data):
        graph = load_kgraph(doc)
        f = random_fn(graph, data, 6)
        space = level_space(random_spec(graph, data), f.level())
        assert space.vector_of(f).tobytes() == refine_vector_of(space, f).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(generated_documents(), st.data())
    def test_equality_matches_the_refined_terms(self, doc, data):
        graph = load_kgraph(doc)
        f = random_fn(graph, data, 4)
        g = data.draw(st.sampled_from([
            random_fn(graph, data, 3),
            refine(f, tuple(d + 1 for d in f.level())),
            f + random_fn(graph, data, 1) * data.draw(st.sampled_from([0.0, 1e-14, 1.0]))]))
        level = tuple(max(a, b) for a, b in zip(f.level(), g.level()))
        rf, rg = composed_refine(f, level).terms, composed_refine(g, level).terms
        for tol in (0.0, 1e-12):
            want = all(abs(rf.get(p, 0.0) - rg.get(p, 0.0)) <= tol for p in set(rf) | set(rg))
            assert cylinder_fns_equal(f, g, tol) == want


def deep_path(graph, colors):
    """A path of these colors from the last vertex, each step the last edge
    into the last source: near the end of its level's order."""
    word, v = [], graph.vertices[-1]
    for c in colors:
        word.append(graph.edges_into(v, c)[-1])
        v = graph.edge(word[-1]).source
    return normal_form(graph, word)


class TestDeepTerms:
    """A term at degree (15, 15) on ledrappier, whose level holds 4 * 4^15
    paths: refining, comparing and extending it cost its extensions, not
    its level (numpy's allocations are traced)."""

    def test_refine_extensions_and_mce_stay_small(self, ledrappier):
        p = deep_path(ledrappier, (1, 2) * 15)
        f = CylinderFn.indicator(p)
        assert ledrappier.word_kernel.rank(np.array([form_of(p)[1]]), p.degree)[0] > 4 ** 15
        tracemalloc.start()
        try:
            refined = refine(f, p.degree)
            ext = extensions(p, (1, 1))
            wider = refine(f, (16, 16))
            same = cylinder_fns_equal(f, wider), cylinder_fns_equal(f, wider - CylinderFn.indicator(ext[0]))
            meets = [mce(p, q) for q in ext[:2]], mce(ext[0], ext[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert list(refined.forms.items()) == list(f.forms.items())
        assert ext == list(wider.terms)
        assert len(ext) == len(enumerate_paths(ledrappier, (1, 1), range=p.source)) > 1
        assert same == (True, False)
        assert meets == ([[ext[0]], [ext[1]]], [])


@pytest.fixture(params=["twin", "lambda3"])
def elsewhere(request, lambda3):
    """A graph that is not the session's ledrappier: a second load of it, or lambda3."""
    return load_kgraph_file(fixture_path("ledrappier")) if request.param == "twin" else lambda3


MIXES = {
    "add": lambda f, g, spec, basis: f + g,
    "subtract": lambda f, g, spec, basis: g - f,
    "combination": lambda f, g, spec, basis: CylinderFn.combination([*f.terms.items(), *g.terms.items()]),
    "equal": lambda f, g, spec, basis: cylinder_fns_equal(f, g),
    "vector_of": lambda f, g, spec, basis: basis.space.vector_of(g),
    "analyze": lambda f, g, spec, basis: analyze(basis, g),
    "integral": lambda f, g, spec, basis: integral(spec, g),
    "cylinder_measure": lambda f, g, spec, basis: cylinder_measure(spec, next(iter(g.terms))),
    "inner_product": lambda f, g, spec, basis: inner_product(spec, f, g),
}


@pytest.mark.parametrize("mix", sorted(MIXES))
def test_graphs_do_not_mix(mix, ledrappier, elsewhere):
    """A function or path of one graph with a spec, level space, basis or
    function of another raises, on a twin load and on another graph."""
    spec = MeasureSpec.perron_frobenius(ledrappier)
    basis = wavelet_basis(build_wavelet_family(ledrappier, shape=(1, 1)), 1)
    f = CylinderFn.indicator(vertex_path(ledrappier, "v1"))
    g = CylinderFn.combination([(vertex_path(elsewhere, elsewhere.vertices[0]), 1.0),
                                (enumerate_paths(elsewhere, (1, 0))[0], 2.0)])
    with pytest.raises(ValueError, match="live on different graphs"):
        MIXES[mix](f, g, spec, basis)
