"""Rank-3 coverage: the cube condition as a real gate, and the full pipeline
(measure, operators, wavelets) on a 3-graph with a twisted color pair."""

from itertools import product

import numpy as np
import pytest

from kgraphwave import (
    CylinderFn,
    KGraph,
    MeasureSpec,
    ValidationError,
    build_wavelet_family,
    check_ck_relations,
    cylinder_fns_equal,
    cylinder_measure,
    enumerate_paths,
    least_degrees,
    load_kgraph,
    normal_form,
    pf_data,
    segment,
    wavelet_basis,
)
from kgraphwave.kgraph import WordKernel
from helpers import (
    CUBE_VIOLATING_SQUARES,
    VALID_SQUARES,
    block_paths,
    check_confluence,
    double_cover,
    enumerated_least_degrees,
    filtered_paths,
    kernel_rewrite,
    path_count,
    pruned_paths,
    restart_rewrite,
    skeleton_doc,
    words_with_pattern,
)


@pytest.fixture(scope="module")
def rank3():
    return load_kgraph(skeleton_doc(VALID_SQUARES))


def test_cube_violation_rejected():
    with pytest.raises(ValidationError) as exc:
        load_kgraph(skeleton_doc(CUBE_VIOLATING_SQUARES))
    assert exc.value.reason == "cube_condition"


def test_cube_condition_on_a_two_vertex_cover():
    assert check_confluence(load_kgraph(double_cover(VALID_SQUARES)), (1, 1, 1)) > 0
    with pytest.raises(ValidationError) as exc:
        load_kgraph(double_cover(CUBE_VIOLATING_SQUARES))
    assert exc.value.reason == "cube_condition"


def test_rewrite_orders_without_the_cube_condition(monkeypatch):
    """Where the cube condition fails, the two swap orders of a descending
    triple, (0, 1, 0) and (1, 0, 1), disagree, and each gives what
    restarting the leftmost (rightmost) scan after every swap gives.  Every
    word, rewritten by its schedule, still gives the leftmost scan's word."""
    monkeypatch.setattr(KGraph, "_check_cube_condition", lambda self: None)
    for doc in (skeleton_doc(CUBE_VIOLATING_SQUARES), double_cover(CUBE_VIOLATING_SQUARES)):
        graph = load_kgraph(doc)
        for length in (3, 4):
            for pattern in product((1, 2, 3), repeat=length):
                for word in words_with_pattern(graph, pattern):
                    assert kernel_rewrite(graph, word) == restart_rewrite(graph, word)
        disagree = 0
        for word in words_with_pattern(graph, (3, 2, 1)):
            left, right = kernel_rewrite(graph, word, (0, 1, 0)), kernel_rewrite(graph, word, (1, 0, 1))
            assert (left, right) == (restart_rewrite(graph, word, True), restart_rewrite(graph, word, False))
            disagree += left != right
        assert disagree > 0


def test_cube_check_lists_only_descending_words(monkeypatch):
    """Every other color sequence has one swap order, so the check lists and
    rewrites the words of (3, 2, 1) alone."""
    listed, words = [], WordKernel.words
    monkeypatch.setattr(WordKernel, "words", lambda self, colors: listed.append(colors) or words(self, colors))
    for doc in (skeleton_doc(VALID_SQUARES), double_cover(VALID_SQUARES)):
        load_kgraph(doc)
    assert listed == [(3, 2, 1)] * 2


def test_path_search_on_a_two_vertex_cover():
    graph = load_kgraph(double_cover(VALID_SQUARES))
    for degree in product(range(2), range(3), range(3)):
        for target, source in product(graph.vertices, repeat=2):
            expected = pruned_paths(graph, degree, range=target, source=source)
            assert expected == filtered_paths(graph, degree, target, source)
            assert enumerate_paths(graph, degree, range=target, source=source) == expected
    for root in graph.vertices:
        assert least_degrees(graph, root) == enumerated_least_degrees(graph, root)


def test_valid_rank3_loads_and_is_confluent(rank3):
    assert rank3.k == 3
    assert check_confluence(rank3, (1, 1, 1)) > 0


def test_rank3_normal_forms(rank3):
    # g edges commute past everything; the (1,2) twist still applies
    assert normal_form(rank3, ["g1", "e", "f1"]).word == ("e", "f1", "g1")
    assert normal_form(rank3, ["f1", "e", "g2"]).word == ("e", "f2", "g2")
    assert normal_form(rank3, ["g2", "f2", "e"]).word == ("e", "f1", "g2")


def test_rank3_segments(rank3):
    p = normal_form(rank3, ["e", "f1", "g2"])
    assert segment(p, (0, 0, 0), (0, 0, 1)).word == ("g2",)
    assert segment(p, (0, 0, 0), (0, 1, 0)).word == ("f2",)  # f1 e = e f2 twist
    assert segment(p, (1, 0, 0), p.degree).word == ("f1", "g2")


def test_rank3_pf_and_measure(rank3):
    pf = pf_data(rank3)
    assert np.allclose(pf.rho, [1.0, 2.0, 2.0], atol=1e-12)
    assert np.allclose(pf.x_lambda, [1.0], atol=1e-12)
    spec = MeasureSpec.perron_frobenius(rank3, pf, exact=True)
    from fractions import Fraction

    assert cylinder_measure(spec, normal_form(rank3, ["e", "f1", "g1"])) \
        == Fraction(1, 4)
    assert cylinder_measure(spec, normal_form(rank3, ["e"])) == Fraction(1)


def test_rank3_ck_relations(rank3):
    spec = MeasureSpec.perron_frobenius(rank3)
    assert check_ck_relations(spec, rank3, (1, 1, 1)).max_deviation < 1e-12


def test_rank3_wavelets_complete(rank3):
    family = build_wavelet_family(rank3, shape=(1, 1, 1))
    # D_v = four paths e f_i g_j, so three zero-mean wavelets
    assert len(family.wavelets) == 3
    words = ["".join(p.word) for p in block_paths(family, "v")]
    assert words == ["ef1g1", "ef1g2", "ef2g1", "ef2g2"]
    (_, psi), = [w for w in family.wavelets if w[0] == (1, "v")]
    # leaf masses are 1/4, so the paired difference normalizes to sqrt(2)
    root2 = np.sqrt(2.0)
    expected = CylinderFn.combination([
        (normal_form(rank3, ["e", "f1", "g1"]), root2),
        (normal_form(rank3, ["e", "f1", "g2"]), -root2)])
    assert cylinder_fns_equal(psi, expected, tol=1e-12)
    for depth in (1, 2):
        basis = wavelet_basis(family, depth)
        level = (depth, depth, depth)
        assert len(basis.labels) == path_count(rank3, level) \
            == len(enumerate_paths(rank3, level))
        dim = len(basis.labels)
        assert np.max(np.abs(basis.gram() - np.eye(dim))) < 1e-12
