import json
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgraphwave import (
    CylinderFn,
    DegreeRangeError,
    CK_ENTRY_LIMIT,
    CK_TABLE_LIMIT,
    LevelTooSmall,
    MeasureSpec,
    NonConstantDerivative,
    bouquet_graph,
    TooLarge,
    check_ck_relations,
    ck_table_count,
    ck_table_entries,
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
    cylinder_fns_equal,
    dense_ck_deviations,
    family_documents,
    generated_documents,
    path_row,
    pointwise_s_matrix,
    table_index,
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

        def wrong_rows(heads, head_degree, tails, tail_degree, of=None):
            words = right_rows(heads, head_degree, tails, tail_degree, of)
            if of is not None and words.shape[1] >= 2:  # one degree per row, the rows padded
                wrong = (np.all(head_degree[of] == f1.degree, axis=1) & np.all(tail_degree[of] == f1.degree, axis=1)
                         & np.all(heads[:, :1] == f1_row, axis=1) & np.all(tails[:, :1] == f1_row, axis=1))
                words[wrong, :2] = f2f2_row
            elif of is None and head_degree == tail_degree == f1.degree:
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

        def merging_rows(heads, head_degree, tails, tail_degree, of=None):
            if of is not None and tails.shape[1] >= 3:  # one degree per row, the rows padded
                merge = (np.all(head_degree[of] == e.degree, axis=1) & np.all(tail_degree[of] == q1.degree, axis=1)
                         & np.all(heads[:, :1] == e_row, axis=1)
                         & (np.all(tails[:, :3] == q2_row, axis=1) | np.all(tails[:, :3] == q3_row, axis=1)))
                tails = tails.copy()
                tails[merge, :3] = q1_row
            elif of is None and head_degree == e.degree and tail_degree == q1.degree:
                heads = np.broadcast_to(heads, (len(tails), heads.shape[-1]))
                merge = np.all(heads == e_row, axis=1) & (
                    np.all(tails == q2_row, axis=1) | np.all(tails == q3_row, axis=1))
                tails = np.where(merge[:, None], q1_row, tails)
            return right_rows(heads, head_degree, tails, tail_degree, of)

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

        build, case_table = kgraphwave.sbfs._prefix_tables, helpers.case_prefix_table

        def perturbed_store(spec, *args):
            # each table of the store, through its per-key view, as the
            # oracle's tables are perturbed one at a time
            tables = build(spec, *args)
            for (degree, level), q in table_index(tables).items():
                rows, vals = tables.table(q)
                rows[...], vals[...] = perturbed((rows, vals), degree, level_space(spec, deg_add(degree, level)))
            return tables

        monkeypatch.setattr(kgraphwave.sbfs, "_prefix_tables", perturbed_store)
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

    @pytest.mark.parametrize("level", [(300, 300), (2000, 2000), (100000, 100000)])
    def test_large_levels_raise_before_any_count(self, monkeypatch, specL, ledrappier, level):
        def no_counts(*args):
            raise AssertionError("the path-count lattice was filled")

        monkeypatch.setattr(kgraphwave.sbfs, "path_counts", no_counts)
        monkeypatch.setattr(kgraphwave.sbfs, "CK_TABLE_LIMIT", ck_table_count(level))  # the entry bound refuses
        with pytest.raises(TooLarge, match="holds at least .* above the limit"):
            check_ck_relations(specL, ledrappier, level)

    @settings(max_examples=60, deadline=None)
    @given(family_documents(), st.lists(st.integers(0, 3), min_size=3, max_size=3),
           st.sampled_from([CK_ENTRY_LIMIT, 64, 5]))
    def test_the_bound_is_below_the_count(self, doc, upto, limit):
        # so the bound refuses no level the exact count admits, also where
        # the path count saturates at a smaller limit
        graph = load_kgraph(doc)
        assume(is_strongly_connected(graph) and not kgraphwave.perron.has_sources(graph))
        level = tuple(upto[:graph.k])
        with patch.object(kgraphwave.sbfs, "CK_ENTRY_LIMIT", limit):
            least = kgraphwave.sbfs._least_table_entries(graph, level)
        assert least <= ck_table_entries(graph, level)

    def test_counts_match_the_tables_built(self, monkeypatch, spec3, lambda3):
        built = {}
        build = kgraphwave.sbfs._prefix_tables

        def counted(spec, *args):
            tables = build(spec, *args)
            built.update({key: tables.table(q)[0].size for key, q in table_index(tables).items()})
            assert tables.rows.size == tables.vals.size == sum(built.values())  # one flat store
            return tables

        monkeypatch.setattr(kgraphwave.sbfs, "_prefix_tables", counted)
        check_ck_relations(spec3, lambda3, (3, 2))
        assert sum(built.values()) == ck_table_entries(lambda3, (3, 2))
        assert len(built) == ck_table_count((3, 2))

    def test_a_table_can_outgrow_vertices_times_the_level(self, monkeypatch):
        # one edge w -> u and three u -> w: the table of degree 1 at level 1
        # is 4 x 4, where vertices x |Lambda^2| is 2 x 6 (README)
        graph = load_kgraph({"k": 1, "vertices": ["u", "w"], "squares": [], "edges": [
            {"id": "a", "color": 1, "source": "w", "range": "u"},
            *({"id": f"b{i}", "color": 1, "source": "u", "range": "w"} for i in range(3))]})
        shapes = {}
        build = kgraphwave.sbfs._prefix_tables

        def recorded(spec, *args):
            tables = build(spec, *args)
            shapes.update({key: tables.table(q)[0].shape for key, q in table_index(tables).items()})
            return tables

        monkeypatch.setattr(kgraphwave.sbfs, "_prefix_tables", recorded)
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

    def test_cli_size_limit(self, monkeypatch, capsys):
        monkeypatch.setattr(kgraphwave.sbfs, "CK_TABLE_LIMIT", ck_table_count((30, 30)))  # the entry count refuses
        with pytest.raises(SystemExit) as exc:
            main(["ck-check", str(fixture_path("ledrappier")), "--level", "30,30"])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        (line,) = captured.err.splitlines()
        rec = json.loads(line)
        assert rec["error"] == "usage" and rec["reason"] == "size_limit"
        assert str(CK_ENTRY_LIMIT) in rec["message"]


class TestBatchedTables:
    """Every prefix table of a check is built in one batched pass into one
    flat store, and the relations read the store in batched passes: the
    reports must still agree bit for bit with the case-by-case oracle,
    witnesses included, and the engine calls must not follow the number of
    tables."""

    @settings(max_examples=40, deadline=None)
    @given(family_documents(), st.data())
    def test_reports_match_the_case_by_case_report(self, doc, data):
        graph = load_kgraph(doc)
        assume(is_strongly_connected(graph))
        level = data.draw(st.sampled_from([(a, b) for a in range(1, 4) for b in range(1, 4)]
                                          if graph.k == 2 else [(1, 1, 1)]))
        spec = MeasureSpec.perron_frobenius(graph)
        assert check_ck_relations(spec, graph, level).to_records() == \
            case_ck_report(spec, graph, level).to_records()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 5), st.data())
    def test_bernoulli_bouquets_match_the_case_by_case_report(self, letters, level, data):
        graph = bouquet_graph(letters)
        parts = data.draw(st.lists(st.integers(1, 9), min_size=letters, max_size=letters))
        spec = MeasureSpec.bernoulli(graph, [a / sum(parts) for a in parts])
        assert check_ck_relations(spec, graph, (level,)).to_records() == \
            case_ck_report(spec, graph, (level,)).to_records()

    @pytest.mark.parametrize("level", [(3, 3), (6, 1)])
    def test_engine_calls_do_not_follow_the_tables(self, monkeypatch, spec3, lambda3, level):
        # (3, 3) has 100 tables and (6, 1) 84: each is one chunk, built by
        # one compose (one rewrite) and one rank, whatever its tables, from
        # one stack of the levels
        kernel, calls = lambda3.word_kernel, {}
        for name in ("stack", "rewrite", "rank", "matching", "compose"):
            def counted(*args, _name=name, _call=getattr(kernel, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(kernel, name, counted)
        check_ck_relations(spec3, lambda3, level)
        assert calls == {"stack": 1, "compose": 1, "rewrite": 1, "rank": 1, "matching": 4}

    def test_chunks_bound_the_calls_of_a_large_level(self, monkeypatch, specL, ledrappier):
        # with small chunks the builder makes one compose per chunk, all
        # chunks read one stack of the levels, and the report does not change
        chunks, build = [], kgraphwave.sbfs._chunks
        monkeypatch.setattr(kgraphwave.sbfs, "_chunks", lambda work: chunks.append(list(build(work, 2 ** 10)))
                            or chunks[-1])
        kernel, calls, stacks = ledrappier.word_kernel, [], []
        compose, stack = kernel.compose, kernel.stack
        monkeypatch.setattr(kernel, "compose", lambda *a, **k: calls.append(1) or compose(*a, **k))
        monkeypatch.setattr(kernel, "stack", lambda *a, **k: stacks.append(stack(*a, **k)) or stacks[-1])
        report = check_ck_relations(specL, ledrappier, (2, 2)).to_records()
        assert 1 < len(calls) == len(chunks[0]) < ck_table_count((2, 2))
        assert len(stacks) == 1 and stacks[0].degrees == kgraphwave.sbfs._ck_plan((2, 2)).degrees
        assert report == case_ck_report(specL, ledrappier, (2, 2)).to_records()

    def test_tables_are_views_of_one_store(self, spec3, lambda3):
        tables = kgraphwave.sbfs._ck_tables(spec3, kgraphwave.sbfs._ck_plan((2, 1)))
        index = table_index(tables)
        assert len(tables.keys) == len(index) == ck_table_count((2, 1))
        assert tables.rows.size == ck_table_entries(lambda3, (2, 1))
        for q in index.values():
            rows, vals = tables.table(q)
            assert rows.base is tables.rows and vals.base is tables.vals
            assert np.count_nonzero(rows >= 0) == tables.entries[q]

    @pytest.mark.parametrize("level", [(1,), (4,), (1, 1), (3, 3), (6, 1), (1, 5), (2, 1, 3), (1, 1, 1)])
    def test_plan_is_the_loop_of_the_check(self, level):
        # the order in which the case-by-case check first reads each table,
        # and its (CK2) pairs and (CK3) degrees, against the plan's arrays
        steps = [d for d in product(*(range(t + 1) for t in level)) if any(d)]
        zero, order, pairs = tuple(0 for _ in level), {}, []
        order[zero, level] = None
        for d in steps:
            rest = tuple(t - a for t, a in zip(level, d))
            for dl in (e for e in steps if deg_le(e, rest)):
                base = tuple(r - b for r, b in zip(rest, dl))
                order.update(dict.fromkeys([(d, rest), (dl, base), (deg_add(d, dl), base)]))
                pairs.append((d, dl, rest, base))
            order.update(dict.fromkeys([(d, rest), (zero, rest)]))
        plan = kgraphwave.sbfs._ck_plan(level)
        keys = [(plan.degrees[x], plan.degrees[y]) for x, y, _ in plan.keys.tolist()]
        assert keys == list(order) and len(keys) == ck_table_count(level)
        assert [plan.degrees[x + y] for x, y, _ in plan.keys.tolist()] == [plan.degrees[m] for m in plan.keys[:, 2]]
        number = {key: q for q, key in enumerate(keys)}
        assert plan.ck2.T.tolist() == [
            [number[d, dl], number[d, rest], number[dl, base], number[deg_add(d, dl), base],
             plan.degrees.index(d), plan.degrees.index(dl), plan.degrees.index(base)] for d, dl, rest, base in pairs]
        assert plan.ck34.T.tolist() == [
            [number[d, rest], number[zero, rest], plan.degrees.index(d), plan.degrees.index(rest)]
            for d, rest in ((d, tuple(t - a for t, a in zip(level, d))) for d in steps)]

    def test_table_count_in_closed_form(self):
        graph = load_kgraph_file(fixture_path("lambda3"))
        for level in [(1, 1), (3, 3), (6, 1), (2, 1, 3)]:
            assert ck_table_count(level) == len(kgraphwave.sbfs._ck_plan(level).keys) == sum(
                1 for x in product(*(range(t + 1) for t in level)) for y in product(*(range(t + 1) for t in level))
                if deg_le(deg_add(x, y), level))
        assert ck_table_count((1000, 1)) == 1_504_503  # counted, never built
        assert ck_table_count((80, 1)) <= CK_TABLE_LIMIT
        assert ck_table_entries(graph, (1000, 1)) <= CK_ENTRY_LIMIT  # so only the table budget refuses it

    @pytest.mark.parametrize("level", [(1000, 1), (1, 1)])
    def test_table_budget_refuses_before_any_level_is_built(self, monkeypatch, spec3, lambda3, level):
        def no_levels(self, degree):
            raise AssertionError(f"level {degree} built")

        # the limit just below the count: (1, 1) refuses, (1000, 1) never runs
        monkeypatch.setattr(kgraphwave.sbfs, "CK_TABLE_LIMIT", min(CK_TABLE_LIMIT, ck_table_count(level) - 1))
        monkeypatch.setattr(type(lambda3.word_kernel), "level", no_levels)
        with pytest.raises(TooLarge, match=f"builds {ck_table_count(level)} prefix tables, above the limit"):
            check_ck_relations(spec3, lambda3, level)

    def test_cli_refuses_a_level_of_too_many_tables(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ck-check", str(fixture_path("lambda3")), "--level", "1000,1"])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        (line,) = captured.err.splitlines()
        rec = json.loads(line)
        assert rec["error"] == "usage" and rec["reason"] == "size_limit"
        assert "1504503 prefix tables" in rec["message"] and str(CK_TABLE_LIMIT) in rec["message"]

    @pytest.mark.parametrize("name,level", [("lambda3", (3, 3)), ("ledrappier", (2, 2))])
    def test_s_matrix_is_its_row_of_the_check_table(self, name, level):
        graph = load_kgraph_file(fixture_path(name))
        spec = MeasureSpec.perron_frobenius(graph)
        tables = kgraphwave.sbfs._ck_tables(spec, kgraphwave.sbfs._ck_plan(level))
        index = table_index(tables)
        for x, base in [((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 0))]:
            rows, vals = tables.table(index[x, base])
            for i, lam in enumerate(enumerate_paths(graph, x)):
                op = s_matrix(spec, lam, base)
                assert op.rows.dtype == np.intp
                assert np.array_equal(op.cols, np.flatnonzero(rows[i] >= 0))
                assert np.array_equal(op.rows, rows[i][op.cols]) and np.array_equal(op.vals, vals[i][op.cols])
