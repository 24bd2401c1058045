import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgraphwave import (
    CylinderFn,
    DegreeRangeError,
    CK_ENTRY_LIMIT,
    LevelTooSmall,
    MeasureSpec,
    NonConstantDerivative,
    bouquet_graph,
    TooLarge,
    check_ck_relations,
    ck_table_entries,
    cylinder_fns_equal,
    cylinder_measure,
    enumerate_paths,
    fixture_path,
    is_strongly_connected,
    load_kgraph_file,
    level_space,
    load_kgraph,
    normal_form,
    pf_data,
    refine,
    s_apply,
    s_matrix,
    s_star_matrix,
    segment,
    vertex_path,
)
import kgraphwave.sbfs
from kgraphwave.cli import main
from kgraphwave.kgraph import deg_add, deg_le
import helpers
from helpers import (
    case_ck_report,
    check_isometry_columns,
    dense_ck_deviations,
    family_documents,
    generated_documents,
    path_row,
    pointwise_s_matrix,
    torus_document,
    twisted_circulant_document,
)


@pytest.fixture(scope="module")
def spec3(lambda3):
    return MeasureSpec.perron_frobenius(lambda3)


@pytest.fixture(scope="module")
def specL(ledrappier):
    return MeasureSpec.perron_frobenius(ledrappier)


@pytest.fixture(scope="module")
def bern2(bouquet2):
    return MeasureSpec.bernoulli(bouquet2, (0.5, 0.5))


class TestSMatrix:
    def test_lambda3_prefixing_isometry(self, lambda3, spec3):
        e = normal_form(lambda3, ["e"])
        op = s_matrix(spec3, e, (0, 1))
        assert op.codomain_level == (1, 1)
        # maps Theta_{f_i} to Theta_{e f_i}; an isometry
        assert np.allclose(op.matrix, np.eye(2))
        assert np.allclose(op.matrix.T @ op.matrix, np.eye(2))
        # as functions, Theta_{f1} IS Theta_{e f2}: the branch swap
        f1 = CylinderFn.indicator(normal_form(lambda3, ["f1"]))
        assert cylinder_fns_equal(
            refine(f1, (1, 1)),
            CylinderFn.indicator(normal_form(lambda3, ["e", "f2"])))

    def test_against_pointwise_oracle(self, lambda3, spec3, specL, bern2):
        cases = [
            (spec3, normal_form(lambda3, ["e"]), (0, 1)),
            (spec3, normal_form(lambda3, ["f2"]), (1, 0)),
            (spec3, normal_form(lambda3, ["e", "f1"]), (1, 1)),
            (specL, normal_form(specL.graph, ["a"]), (0, 1)),
            (specL, normal_form(specL.graph, ["d", "h"]), (0, 1)),
            (bern2, normal_form(bern2.graph, ["0"]), (2,)),
            (bern2, normal_form(bern2.graph, ["1", "0"]), (1,)),
        ]
        for spec, path, level in cases:
            got = s_matrix(spec, path, level).matrix
            oracle = pointwise_s_matrix(spec, path, level)
            assert np.max(np.abs(got - oracle)) < 1e-12

    def test_bouquet_columns(self, bern2):
        g = bern2.graph
        zero = normal_form(g, ["0"])
        op = s_matrix(bern2, zero, (1,))
        dom = level_space(bern2, (1,))
        cod = level_space(bern2, (2,))
        for j, w in enumerate(dom.basis):
            col = op.matrix[:, j]
            assert np.linalg.norm(col) == pytest.approx(1.0, abs=1e-14)
            target = g.word_kernel.rank(path_row(normal_form(g, ["0", *w.word]))[None, :], cod.level)[0]
            assert col[target] == pytest.approx(1.0, abs=1e-14)

    def test_vertex_projection(self, specL):
        g = specL.graph
        op = s_matrix(specL, vertex_path(g, "v2"), (1, 1))
        space = level_space(specL, (1, 1))
        diag = np.diag(op.matrix)
        assert np.allclose(op.matrix, np.diag(diag))
        for j, mu in enumerate(space.basis):
            assert diag[j] == (1.0 if mu.range == "v2" else 0.0)

    def test_isometry_column_property(self, spec3, specL):
        assert check_isometry_columns(
            spec3, [(1, 0), (0, 1), (1, 1)], (1, 1)) < 1e-12
        assert check_isometry_columns(
            specL, [(1, 0), (0, 1)], (0, 1)) < 1e-12

    def test_intertwines_refinement(self, spec3, specL):
        for spec, word, level in ((spec3, ["e", "f1"], (1, 1)),
                                  (specL, ["a", "c"], (1, 1))):
            g = spec.graph
            lam = normal_form(g, word)
            f = CylinderFn.indicator(vertex_path(g, lam.source)) \
                - 2.0 * CylinderFn.indicator(
                    enumerate_paths(g, (0, 1), range=lam.source)[0])
            lhs = refine(s_apply(spec, lam, f), deg_add(lam.degree, level))
            rhs = s_apply(spec, lam, refine(f, level))
            assert cylinder_fns_equal(lhs, rhs, tol=1e-12)

    def test_constant_radon_nikodym(self, spec3, specL):
        for spec in (spec3, specL):
            g = spec.graph
            for dlam in ((1, 0), (0, 1), (1, 1)):
                for lam in enumerate_paths(g, dlam):
                    for mu in enumerate_paths(g, (1, 1), range=lam.source):
                        from kgraphwave import compose

                        ratio = float(cylinder_measure(spec, compose(lam, mu))) \
                            * spec.pf.rho_pow(lam.degree) \
                            / float(cylinder_measure(spec, mu))
                        assert ratio == pytest.approx(1.0, abs=1e-12)


class TestSStar:
    def test_adjoint_is_transpose(self, spec3):
        e = normal_form(spec3.graph, ["e"])
        fwd = s_matrix(spec3, e, (1, 1))
        back = s_star_matrix(spec3, e, (2, 1))
        assert np.array_equal(back.matrix, fwd.matrix.T)
        assert back.codomain_level == (1, 1)

    def test_projection_identity(self, spec3, specL):
        for spec, degrees in ((spec3, [(1, 0), (0, 1), (1, 1), (2, 2)]),
                              (specL, [(1, 0), (0, 1), (1, 1)])):
            g = spec.graph
            for d in degrees:
                for lam in enumerate_paths(g, d):
                    base = tuple(2 - x if 2 - x >= 0 else 0 for x in d)
                    if not deg_le(d, deg_add(base, d)):
                        continue
                    fwd = s_matrix(spec, lam, base)
                    proj = s_matrix(spec, vertex_path(g, lam.source), base)
                    prod = fwd.matrix.T @ fwd.matrix
                    assert np.max(np.abs(prod - proj.matrix)) < 1e-12

    def test_disjoint_ranges_annihilate(self, bern2):
        g = bern2.graph
        s0 = s_matrix(bern2, normal_form(g, ["0"]), (1,))
        s1 = s_matrix(bern2, normal_form(g, ["1"]), (1,))
        assert np.max(np.abs(s0.matrix.T @ s1.matrix)) == 0.0

    def test_lambda3_f1_star_pointwise(self, spec3):
        g = spec3.graph
        f1 = normal_form(g, ["f1"])
        op = s_star_matrix(spec3, f1, (1, 1))
        dom = level_space(spec3, (1, 1))
        cod = level_space(spec3, (1, 0))
        # S_{f1}* xi (x) = 2^{-1/2} xi(f1 x): evaluate on normalized indicators
        from kgraphwave import compose

        oracle = np.zeros((len(cod.basis), len(dom.basis)))
        for i, tau in enumerate(cod.basis):           # x runs over Z(tau)
            prefixed = compose(f1, tau)               # f1 x lives in Z(f1 tau)
            for j, mu in enumerate(dom.basis):
                overlap = segment(prefixed, g.zero_degree(), mu.degree) == mu
                if overlap:
                    oracle[i, j] = (2 ** -0.5
                                    / np.sqrt(float(cylinder_measure(spec3, mu)))
                                    * np.sqrt(float(cylinder_measure(spec3, tau))))
        assert np.max(np.abs(op.matrix - oracle)) < 1e-12

    def test_level_too_low_rejected(self, spec3):
        ef1 = normal_form(spec3.graph, ["e", "f1"])
        with pytest.raises(DegreeRangeError):
            s_star_matrix(spec3, ef1, (1, 0))


class TestCKRelations:
    def test_lambda3(self, spec3, lambda3):
        report = check_ck_relations(spec3, lambda3, (2, 2))
        assert report.max_deviation < 1e-12
        assert {c.relation for c in report.checks} == {"CK1", "CK2", "CK3", "CK4"}

    def test_ledrappier(self, specL, ledrappier):
        assert check_ck_relations(specL, ledrappier, (1, 2)).max_deviation < 1e-12

    def test_bouquet_bernoulli(self, bouquet2):
        spec = MeasureSpec.bernoulli(bouquet2, (Fraction(1, 4), Fraction(3, 4)))
        assert check_ck_relations(spec, bouquet2, (3,)).max_deviation < 1e-12

    def test_exact_specs_build_no_paths(self, monkeypatch, lambda3, bouquet2):
        # exact masses come from word-kernel rows, as float ones do
        cases = [(MeasureSpec.perron_frobenius(lambda3, exact=True), (2, 2)),
                 (MeasureSpec.bernoulli(bouquet2, (Fraction(1, 4), Fraction(3, 4)), exact=True), (3,))]
        expected = [check_ck_relations(spec, spec.graph, level).to_records() for spec, level in cases]
        helpers.forbid_path_building(monkeypatch)
        assert [check_ck_relations(spec, spec.graph, level).to_records() for spec, level in cases] == expected

    def test_level_too_small(self, spec3, lambda3):
        with pytest.raises(LevelTooSmall):
            check_ck_relations(spec3, lambda3, (0, 2))

    def test_non_constant_derivative_is_a_typed_error(self, lambda3):
        class Skewed(MeasureSpec):
            def prefix_factors(self, degree, words):
                return super().prefix_factors(degree, words) * (1 + 1e-6)

        spec = Skewed.perron_frobenius(lambda3, pf=pf_data(lambda3))
        with pytest.raises(NonConstantDerivative):
            s_matrix(spec, normal_form(lambda3, ["e"]), (0, 1))
        with pytest.raises(NonConstantDerivative):
            check_ck_relations(spec, lambda3, (1, 1))

    def test_non_constant_derivative_exits_numeric(self, monkeypatch, capsys):
        skewed = MeasureSpec.prefix_factors
        monkeypatch.setattr(MeasureSpec, "prefix_factors",
                            lambda self, degree, words: skewed(self, degree, words) * (1 + 1e-6))
        with pytest.raises(SystemExit) as exc:
            main(["ck-check", str(fixture_path("lambda3")), "--level", "1,1"])
        err = capsys.readouterr().err.splitlines()
        assert exc.value.code == 4
        assert len(err) == 1 and json.loads(err[0])["error"] == "numeric"


def _lines(*records):
    return "".join(json.dumps(r) + "\n" for r in records)


def _ck_records(witnesses, devs):
    return _lines(*({"relation": f"CK{i}", "max_deviation": d, "witness": w}
                    for i, (d, w) in enumerate(zip(devs, witnesses), start=1)))


EPS2, EPS4 = 4.440892098500626e-16, 8.881784197001252e-16
LEDRAPPIER_CK = _ck_records(
    [{}, {"mu": "b", "lambda": "c"}, {"mu": "b"}, {"n": [0, 1], "vertex": "v1"}], [0.0, EPS2, EPS2, EPS2])

# stdout of ck-check before S_lambda became an index map; it must not change
GOLDEN_CK = [
    (["ledrappier", "--level", "1,2"], LEDRAPPIER_CK),
    (["ledrappier", "--level", "2,2"], LEDRAPPIER_CK),
    (["lambda3", "--level", "3,3"], _ck_records(
        [{}, {"mu": "f1", "lambda": "f1"}, {"mu": "f1"}, {"n": [0, 1], "vertex": "v"}],
        [0.0, EPS2, EPS2, EPS2])),
    (["bouquet-3", "--weights", "0.2,0.3,0.5", "--level", "3"], _ck_records(
        [{}, {"mu": "0", "lambda": "2"}, {"mu": "000"}, {"n": [3], "vertex": "v"}],
        [0.0, EPS2, EPS4, EPS4])),
    (["circulant", "--level", "1,2"], _ck_records(
        [{}, {"mu": "b0s1", "lambda": "b3s2"}, {"mu": "b0s1"}, {"n": [0, 1], "vertex": "v0"}],
        [0.0, EPS2, EPS2, EPS2])),
]


# seeded 2-graphs beyond the fixtures, with the level each is checked at
GENERATED = [
    pytest.param(torus_document(3, 3), (1, 1), id="torus-3x3"),
    pytest.param(torus_document(2, 3), (1, 2), id="torus-2x3"),
    *(pytest.param(twisted_circulant_document(n, (1, 2), (1, 2), seed), (1, 1),
                   id=f"circulant-{n}-seed{seed}") for seed, n in ((0, 4), (1, 5), (2, 5))),
]


def _as_dense(spec, path, level):
    return s_matrix(spec, path, level).matrix


class TestCKAsIndexMaps:
    @pytest.mark.parametrize("argv,expected", GOLDEN_CK, ids=[" ".join(a) for a, _ in GOLDEN_CK])
    def test_golden_stdout(self, argv, expected, tmp_path, capsys):
        if argv[0] == "circulant":
            graph = tmp_path / "circulant.kg"
            graph.write_text(json.dumps(twisted_circulant_document(5, (1, 2), (1, 2), 7)))
        else:
            graph = fixture_path(argv[0])
        assert main(["ck-check", str(graph), *argv[1:]]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("doc,level", GENERATED)
    def test_against_dense_reference(self, doc, level):
        graph = load_kgraph(doc)
        spec = MeasureSpec.perron_frobenius(graph)
        got = [c.max_deviation for c in check_ck_relations(spec, graph, level).checks]
        reference = dense_ck_deviations(spec, level)
        assert max(got) < 1e-12 and max(reference) < 1e-12
        assert np.allclose(got, reference, rtol=0, atol=1e-12)
        # the dense products of the same operators give the same floats
        assert got == dense_ck_deviations(spec, level, _as_dense)

    def test_wrong_composite_is_caught(self, monkeypatch, spec3, lambda3):
        # f1 f1 composes to f2 f2: in the word-kernel rows, which the prefix
        # tables and CK2 compose, and in the paths of the dense reference
        f1, f2f2 = normal_form(lambda3, ["f1"]), normal_form(lambda3, ["f2", "f2"])
        right = helpers.compose

        def wrong(p, q):
            return f2f2 if p == q == f1 else right(p, q)

        kernel = lambda3.word_kernel
        right_rows = kernel.compose
        f1_row, f2f2_row = path_row(f1), path_row(f2f2)

        def wrong_rows(heads, head_degree, tails, tail_degree):
            words = right_rows(heads, head_degree, tails, tail_degree)
            if head_degree == tail_degree == f1.degree:
                heads = np.broadcast_to(heads, (len(tails), heads.shape[-1]))
                words[np.all(heads == f1_row, axis=1) & np.all(tails == f1_row, axis=1)] = f2f2_row
            return words

        monkeypatch.setattr(helpers, "compose", wrong)
        monkeypatch.setattr(kernel, "compose", wrong_rows)
        report = check_ck_relations(spec3, lambda3, (2, 2))
        ck2 = report.checks[1]
        assert ck2.max_deviation >= 1.0
        assert ck2.witness == {"mu": "f1", "lambda": "f1"}
        assert [c.max_deviation for c in report.checks] == \
            dense_ck_deviations(spec3, (2, 2), _as_dense)

    def test_non_injective_map_is_caught(self, monkeypatch, spec3, lambda3):
        # e q2 and e q3 land on e q1: S_e* S_e gains off-diagonal ones and
        # S_e S_e* the entry 3 where S_v has 1
        e = normal_form(lambda3, ["e"])
        q1, q2, q3 = enumerate_paths(lambda3, (1, 2))[:3]
        right = helpers.compose

        def merging(p, q):
            return right(p, q1 if p == e and q in (q2, q3) else q)

        # the prefix maps compose whole levels of rows in the word kernel
        kernel = lambda3.word_kernel
        right_rows = kernel.compose
        e_row, (q1_row, q2_row, q3_row) = path_row(e), (path_row(q) for q in (q1, q2, q3))

        def merging_rows(heads, head_degree, tails, tail_degree):
            if head_degree == e.degree and tail_degree == q1.degree:
                heads = np.broadcast_to(heads, (len(tails), heads.shape[-1]))
                merge = np.all(heads == e_row, axis=1) & (
                    np.all(tails == q2_row, axis=1) | np.all(tails == q3_row, axis=1))
                tails = np.where(merge[:, None], q1_row, tails)
            return right_rows(heads, head_degree, tails, tail_degree)

        monkeypatch.setattr(helpers, "compose", merging)
        monkeypatch.setattr(kernel, "compose", merging_rows)
        report = check_ck_relations(spec3, lambda3, (2, 2))
        assert report.checks[2].max_deviation >= 1.0
        assert report.checks[3].max_deviation >= 2.0
        assert [c.max_deviation for c in report.checks] == \
            dense_ck_deviations(spec3, (2, 2), _as_dense)

    def test_spec_on_another_graph_is_refused(self, specL, lambda3):
        with pytest.raises(ValueError, match="different graphs"):
            check_ck_relations(specL, lambda3, (1, 1))

    # the table arithmetic against the dense products of the same operators
    @settings(max_examples=10, deadline=None)
    @given(generated_documents(), st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    def test_generated_graphs_match_dense_products(self, doc, level):
        graph = load_kgraph(doc)
        assume(is_strongly_connected(graph))
        spec = MeasureSpec.perron_frobenius(graph)
        assert [c.max_deviation for c in check_ck_relations(spec, graph, level).checks] == \
            dense_ck_deviations(spec, level, _as_dense)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 3), st.data())
    def test_bernoulli_bouquets_match_dense_products(self, letters, level, data):
        graph = bouquet_graph(letters)
        parts = data.draw(st.lists(st.integers(1, 9), min_size=letters, max_size=letters))
        spec = MeasureSpec.bernoulli(graph, [a / sum(parts) for a in parts])
        assert [c.max_deviation for c in check_ck_relations(spec, graph, (level,)).checks] == \
            dense_ck_deviations(spec, (level,), _as_dense)


class TestTableReadCheck:
    """The check reads CK2's cases and composites off its prefix tables and
    runs CK1 in one pass; `case_ck_report` composes and ranks every CK2 case
    and loops CK1 over the vertices.  Reports must agree bit for bit, witnesses
    included."""

    @settings(max_examples=30, deadline=None)
    @given(family_documents(), st.data())
    def test_generated_graphs_match_the_case_by_case_report(self, doc, data):
        graph = load_kgraph(doc)
        assume(is_strongly_connected(graph))
        level = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)] if graph.k == 2 else [(1, 1, 1)]))
        spec = MeasureSpec.perron_frobenius(graph)
        assert check_ck_relations(spec, graph, level).to_records() == \
            case_ck_report(spec, graph, level).to_records()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 4), st.data())
    def test_bernoulli_bouquets_match_the_case_by_case_report(self, letters, level, data):
        graph = bouquet_graph(letters)
        parts = data.draw(st.lists(st.integers(1, 9), min_size=letters, max_size=letters))
        spec = MeasureSpec.bernoulli(graph, [a / sum(parts) for a in parts])
        assert check_ck_relations(spec, graph, (level,)).to_records() == \
            case_ck_report(spec, graph, (level,)).to_records()

    @pytest.mark.parametrize("name,level,skewed", [
        (name, level, skewed) for name, level in [("lambda3", (2, 2)), ("ledrappier", (2, 2)), ("ledrappier", (1, 2))]
        for skewed in [(1, 0), (0, 1), (1, 1), (0, 2), (2, 1)] if deg_le(skewed, level)])
    def test_skew_at_one_degree_raises_the_case_by_case_error(self, name, level, skewed):
        class Skewed(MeasureSpec):
            def prefix_factors(self, degree, words):
                factors = super().prefix_factors(degree, words)
                return factors * (1 + 1e-6) if degree == skewed else factors

        graph = load_kgraph_file(fixture_path(name))
        spec = Skewed.perron_frobenius(graph, pf=pf_data(graph))
        with pytest.raises(NonConstantDerivative) as expected:
            case_ck_report(spec, graph, level)
        with pytest.raises(NonConstantDerivative) as got:
            check_ck_relations(spec, graph, level)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("doc,level", [
        pytest.param(load_kgraph_file(fixture_path("lambda3")).to_document(), (2, 2), id="lambda3"),
        pytest.param(load_kgraph_file(fixture_path("ledrappier")).to_document(), (1, 2), id="ledrappier"),
        pytest.param(twisted_circulant_document(5, (1, 2), (1, 2), 7), (1, 1), id="circulant-5"),
        pytest.param(torus_document(3, 2), (1, 1), id="torus-3x2"),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_projections_match_the_case_by_case_report(self, monkeypatch, doc, level, seed):
        # the vertex projections get wrong rows and entries, in the same
        # columns: CK1, CK3 and CK4 then deviate, in both reports alike
        def perturbed(table, degree, cod):
            if any(degree):
                return table
            rows, vals = (a.copy() for a in table)
            rng = np.random.default_rng([seed, *cod.level])
            hit = (rows >= 0) & (rng.random(rows.shape) < 0.4)
            rows[hit] = rng.integers(0, rows.shape[1], int(hit.sum()))
            vals[rows >= 0] *= rng.choice([1.0, 1 + 1e-3, 1 - 2e-3, -1.0], int((rows >= 0).sum()))
            return rows, vals

        table, case_table = kgraphwave.sbfs._prefix_table, helpers.case_prefix_table
        monkeypatch.setattr(kgraphwave.sbfs, "_prefix_table", lambda spec, lams, factors, degree, dom, cod:
                            perturbed(table(spec, lams, factors, degree, dom, cod), degree, cod))
        monkeypatch.setattr(helpers, "case_prefix_table", lambda spec, lams, degree, dom, cod:
                            perturbed(case_table(spec, lams, degree, dom, cod), degree, cod))
        graph = load_kgraph(doc)
        spec = MeasureSpec.perron_frobenius(graph)
        report = check_ck_relations(spec, graph, level)
        assert report.checks[0].max_deviation > 0
        assert report.to_records() == case_ck_report(spec, graph, level).to_records()


def _ledrappier_entries(level):
    """The table entries of the CK check on ledrappier, in closed form: it has
    4 * 2^|x| paths of degree x, and a table of every x at every L with x + L <= T."""
    below = [[4 * (2 ** (a + 1) - 1) * (2 ** (b + 1) - 1) for b in range(level[1] + 1)] for a in range(level[0] + 1)]
    return sum(4 * 2 ** (a + b) * below[level[0] - a][level[1] - b]
               for a in range(level[0] + 1) for b in range(level[1] + 1))


class TestSizeLimit:
    @pytest.mark.parametrize("level", [(1, 1), (2, 3), (30, 30), (31, 31)])
    def test_ledrappier_entries_are_counted_exactly(self, level):
        graph = load_kgraph_file(fixture_path("ledrappier"))
        assert ck_table_entries(graph, level) == _ledrappier_entries(level)
        assert graph.word_kernel._levels == {}  # counted, no level listed

    def test_entries_past_int64(self):
        graph = load_kgraph_file(fixture_path("ledrappier"))
        assert ck_table_entries(graph, (30, 30)) > CK_ENTRY_LIMIT
        assert ck_table_entries(graph, (31, 31)) > 2 ** 63

    @pytest.mark.parametrize("level", [(30, 30), (31, 31)])
    def test_large_levels_raise_before_any_level_is_built(self, monkeypatch, specL, ledrappier, level):
        def no_levels(self, degree):
            raise AssertionError(f"level {degree} built")

        monkeypatch.setattr(type(ledrappier.word_kernel), "level", no_levels)
        with pytest.raises(TooLarge, match="above the limit"):
            check_ck_relations(specL, ledrappier, level)

    def test_counts_match_the_tables_built(self, monkeypatch, spec3, lambda3):
        built = {}
        table = kgraphwave.sbfs._prefix_table

        def counted(spec, lams, factors, degree, dom, cod):
            built[degree, dom.level] = table(spec, lams, factors, degree, dom, cod)[0].size
            return table(spec, lams, factors, degree, dom, cod)

        monkeypatch.setattr(kgraphwave.sbfs, "_prefix_table", counted)
        check_ck_relations(spec3, lambda3, (3, 2))
        assert sum(built.values()) == ck_table_entries(lambda3, (3, 2))

    def test_a_table_can_outgrow_vertices_times_the_level(self, monkeypatch):
        # one edge w -> u and three u -> w: the table of degree 1 at level 1
        # is 4 x 4, where vertices x |Lambda^2| is 2 x 6 (README)
        graph = load_kgraph({"k": 1, "vertices": ["u", "w"], "squares": [], "edges": [
            {"id": "a", "color": 1, "source": "w", "range": "u"},
            *({"id": f"b{i}", "color": 1, "source": "u", "range": "w"} for i in range(3))]})
        shapes = {}
        table = kgraphwave.sbfs._prefix_table

        def recorded(spec, lams, factors, degree, dom, cod):
            shapes[degree, dom.level] = table(spec, lams, factors, degree, dom, cod)[0].shape
            return table(spec, lams, factors, degree, dom, cod)

        monkeypatch.setattr(kgraphwave.sbfs, "_prefix_table", recorded)
        check_ck_relations(MeasureSpec.perron_frobenius(graph), graph, (2,))
        assert shapes[(1,), (1,)] == (4, 4) and shapes[(0,), (2,)] == (2, 6)
        assert sum(a * b for a, b in shapes.values()) == ck_table_entries(graph, (2,))

    def test_limit_is_far_above_the_levels_in_use(self):
        # the largest levels the tests and the benchmark check
        cases = [("ledrappier", (3, 3)), ("lambda3", (3, 3)), ("bouquet-3", (4,))]
        for name, level in cases:
            assert ck_table_entries(load_kgraph_file(fixture_path(name)), level) * 100 < CK_ENTRY_LIMIT
        circulant = load_kgraph(twisted_circulant_document(64, (1, 2), (1, 3), 0))
        assert ck_table_entries(circulant, (1, 1)) * 100 < CK_ENTRY_LIMIT

    def test_cli_size_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ck-check", str(fixture_path("ledrappier")), "--level", "30,30"])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        (line,) = captured.err.splitlines()
        rec = json.loads(line)
        assert rec["error"] == "usage" and rec["reason"] == "size_limit"
        assert str(CK_ENTRY_LIMIT) in rec["message"]
