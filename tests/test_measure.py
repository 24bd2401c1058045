from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import kgraphwave
from kgraphwave import (
    BadWeights,
    CylinderFn,
    DegreeRangeError,
    DimensionMismatch,
    MeasureSpec,
    NotStronglyConnected,
    NotZeroOne,
    PFData,
    cylinder_fns_equal,
    cylinder_measure,
    embed_to_interval,
    enumerate_paths,
    inner_product,
    load_kgraph,
    mce,
    normal_form,
    pf_data,
    refine,
    vertex_path,
)
from helpers import check_ip_refinement_invariance, check_measure_additivity


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


def test_cylinder_fn_records_round_trip(ledrappier):
    fn = CylinderFn.combination([
        (normal_form(ledrappier, ["a", "c", "c"]), 4.0),
        (normal_form(ledrappier, ["a", "c", "e"]), -4.0),
        (vertex_path(ledrappier, "v2"), 0.5)])
    back = CylinderFn.from_records(ledrappier, fn.to_records())
    assert back.terms == fn.terms
