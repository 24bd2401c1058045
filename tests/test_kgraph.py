import json
import random
import re
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphwave import (
    CompositionError,
    DegreeRangeError,
    KGraph,
    ParseError,
    ValidationError,
    compose,
    enumerate_paths,
    extensions,
    fixture_path,
    load_kgraph,
    normal_form,
    segment,
    vertex_matrices,
    vertex_path,
)
from kgraphwave.kgraph import normal_form_rows, path_of
from helpers import (
    VALID_SQUARES,
    check_confluence,
    double_cover,
    family_documents,
    filtered_paths,
    generated_documents,
    kernel_rewrite,
    path_count,
    per_word_normal_forms,
    pruned_paths,
    pulled_segment,
    random_word,
    restart_compose,
    restart_rewrite,
    scan_missing_square,
    skeleton_doc,
)


def doc_of(graph):
    return graph.to_document()


class TestLoading:
    def test_lambda3_shape(self, lambda3):
        assert lambda3.k == 2
        assert len(lambda3.vertices) == 1
        assert sum(1 for e in lambda3.edges.values() if e.color == 1) == 1
        assert sum(1 for e in lambda3.edges.values() if e.color == 2) == 2

    def test_sphere_shape(self, sphere):
        assert len(sphere.vertices) == 6
        for color in (1, 2):
            assert sum(1 for e in sphere.edges.values() if e.color == color) == 4

    def test_missing_square_rejected(self, lambda3):
        doc = doc_of(lambda3)
        doc["squares"] = [sq for sq in doc["squares"] if sq["left"] != ["e", "f1"]]
        with pytest.raises(ValidationError) as exc:
            load_kgraph(doc)
        assert exc.value.reason == "missing_square"

    def test_duplicate_square_rejected(self, lambda3):
        doc = doc_of(lambda3)
        doc["squares"].append(doc["squares"][0])
        with pytest.raises(ValidationError) as exc:
            load_kgraph(doc)
        assert exc.value.reason == "non_bijective_squares"

    def test_mismatched_square_endpoints_rejected(self, sphere):
        doc = doc_of(sphere)
        # swap two right-hand sides: pairings no longer share endpoints
        squares = doc["squares"]
        squares[0]["right"], squares[1]["right"] = squares[1]["right"], squares[0]["right"]
        with pytest.raises(ValidationError) as exc:
            load_kgraph(doc)
        assert exc.value.reason == "non_bijective_squares"

    def test_unknown_field_rejected(self, lambda3):
        doc = doc_of(lambda3)
        doc["comment"] = "nope"
        with pytest.raises(ParseError):
            load_kgraph(doc)
        doc = doc_of(lambda3)
        doc["edges"][0]["weight"] = 3
        with pytest.raises(ParseError):
            load_kgraph(doc)

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError):
            load_kgraph("{not json")

    def test_non_utf8_file_rejected(self, tmp_path):
        text = fixture_path("lambda3").read_bytes()
        bad = tmp_path / "bad.kg"
        bad.write_bytes(text[:len(text) // 2] + b"\xff" + text[len(text) // 2:])
        for document in (bad, str(bad)):
            with pytest.raises(ParseError, match="not UTF-8"):
                load_kgraph(document)

    def test_dangling_reference_rejected(self, lambda3):
        doc = doc_of(lambda3)
        doc["edges"][0]["source"] = "ghost"
        with pytest.raises(ValidationError) as exc:
            load_kgraph(doc)
        assert exc.value.reason == "dangling_reference"

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_square_with_unknown_edge_rejected(self, lambda3, side):
        doc = doc_of(lambda3)
        doc["squares"][0][side][0] = "ghost"
        with pytest.raises(ValidationError) as exc:
            load_kgraph(doc)
        assert exc.value.reason == "dangling_reference"

    def test_color_out_of_range_rejected(self, lambda3):
        doc = doc_of(lambda3)
        doc["edges"][0]["color"] = 7
        with pytest.raises(ValidationError) as exc:
            load_kgraph(doc)
        assert exc.value.reason == "color_out_of_range"

    @pytest.mark.parametrize("squares", [
        [],
        [{"left": ["e", "f"], "right": ["f", "e"]}],
        [{"left": ["f", "e"], "right": ["e", "f"]}],
    ], ids=["no squares", "square with a non-composable side", "reversed square"])
    @pytest.mark.parametrize("colors", [(1, 2), (2, 1)], ids=["e ascending", "e descending"])
    def test_non_commuting_skeleton_rejected(self, squares, colors):
        # e: u -> v and a loop f at u, of distinct colors.  The word (e, f)
        # runs from u to v, and no word (f', e') of the other color order
        # does, so A_1 A_2 != A_2 A_1; square validation alone must reject it.
        doc = {"k": 2, "vertices": ["u", "v"],
               "edges": [{"id": "e", "color": colors[0], "source": "u", "range": "v"},
                         {"id": "f", "color": colors[1], "source": "u", "range": "u"}],
               "squares": squares}
        a_e, a_f = np.array([[0, 0], [1, 0]]), np.array([[1, 0], [0, 0]])
        assert not np.array_equal(a_e @ a_f, a_f @ a_e)
        with pytest.raises(ValidationError) as exc:
            load_kgraph(doc)
        assert exc.value.reason in {"missing_square", "non_bijective_squares"}

    def test_document_round_trip(self, ledrappier):
        doc = doc_of(ledrappier)
        again = load_kgraph(json.dumps(doc))
        assert again.to_document() == doc

    def test_cube_condition_k3(self):
        # three commuting loops on one vertex: the free abelian 3-graph
        doc = {
            "k": 3, "vertices": ["v"],
            "edges": [{"id": x, "color": c, "source": "v", "range": "v"}
                      for c, x in enumerate("xyz", start=1)],
            "squares": [
                {"left": ["x", "y"], "right": ["y", "x"]},
                {"left": ["x", "z"], "right": ["z", "x"]},
                {"left": ["y", "z"], "right": ["z", "y"]},
            ],
        }
        g = load_kgraph(doc)
        assert g.k == 3
        p = normal_form(g, ["z", "y", "x"])
        assert p.word == ("x", "y", "z")


class TestNormalForm:
    def test_lambda3_swap(self, lambda3):
        assert normal_form(lambda3, ["f1", "e"]).word == ("e", "f2")
        assert normal_form(lambda3, ["f2", "e"]).word == ("e", "f1")

    def test_single_edge_unchanged(self, lambda3):
        assert normal_form(lambda3, ["e"]).word == ("e",)

    def test_sphere_rule(self, sphere):
        assert normal_form(sphere, ["d", "f"]).word == ("h", "b")

    def test_idempotent(self, ledrappier):
        p = normal_form(ledrappier, ["a", "c", "c"])
        assert normal_form(ledrappier, list(p.word)).word == p.word

    def test_non_composable(self, ledrappier):
        with pytest.raises(CompositionError):
            normal_form(ledrappier, ["a", "b"])  # s(a)=v1 but r(b)=v3

    @pytest.mark.parametrize("word,message", [
        (["a", "zz"], "unknown edge id 'zz'"),
        (["zz", "b"], "unknown edge id 'zz'"),
        (["a", "b", "zz"], "unknown edge id 'zz'"),  # unknown ids are found first
        (["a", "a", "b"], "edges a and b are not composable (source v1 != range v3)"),
        (["p", "o"], "edges p and o are not composable (source v1 != range v4)"),
    ])
    def test_bad_word_messages(self, ledrappier, word, message):
        """Read off the edge columns, with the messages of the `Edge` views."""
        with pytest.raises(CompositionError) as exc:
            normal_form(ledrappier, word)
        assert str(exc.value) == message


class TestCompose:
    def test_vertex_identity(self, lambda3):
        q = normal_form(lambda3, ["e", "f1"])
        assert compose(vertex_path(lambda3, "v"), q) == q
        assert compose(q, vertex_path(lambda3, "v")) == q

    def test_degree_adds(self, lambda3):
        e = normal_form(lambda3, ["e"])
        f1 = normal_form(lambda3, ["f1"])
        assert compose(e, f1).degree == (1, 1)
        assert compose(e, f1).word == ("e", "f1")

    def test_normalizes(self, lambda3):
        e = normal_form(lambda3, ["e"])
        f1 = normal_form(lambda3, ["f1"])
        assert compose(f1, e).word == ("e", "f2")

    def test_endpoint_mismatch(self, ledrappier):
        a = normal_form(ledrappier, ["a"])
        b = normal_form(ledrappier, ["b"])
        assert compose(b, a).word == ("l", "b")  # s(b) = v1 = r(a); ba = lb
        with pytest.raises(CompositionError):
            compose(a, b)  # s(a) = v1 but r(b) = v3


class TestSegment:
    def test_lambda3_second_color_prefix(self, lambda3):
        ef2 = normal_form(lambda3, ["e", "f2"])
        assert segment(ef2, (0, 0), (0, 1)).word == ("f1",)

    def test_full_segment_is_identity(self, ledrappier):
        for word in (["a", "c", "c"], ["d", "h", "m"]):
            p = normal_form(ledrappier, word)
            assert segment(p, (0, 0), p.degree) == p

    def test_ledrappier_initial_segment_against_bruteforce(self, ledrappier):
        acc = normal_form(ledrappier, ["a", "c", "c"])
        got = segment(acc, (0, 0), (1, 0))
        # oracle: the unique alpha of degree (1,0) with alpha*beta = acc
        matches = [alpha
                   for alpha in enumerate_paths(ledrappier, (1, 0), range=acc.range)
                   for beta in enumerate_paths(ledrappier, (0, 2), range=alpha.source)
                   if compose(alpha, beta) == acc]
        assert matches == [got]
        assert got.word == ("a",)

    def test_degree_range_errors(self, lambda3):
        ef1 = normal_form(lambda3, ["e", "f1"])
        with pytest.raises(DegreeRangeError):
            segment(ef1, (0, 1), (0, 0))
        with pytest.raises(DegreeRangeError):
            segment(ef1, (0, 0), (2, 0))

    def test_segment_composition_property(self, lambda3, ledrappier):
        for graph, top in ((lambda3, (2, 2)), (ledrappier, (1, 2))):
            for lam in enumerate_paths(graph, top):
                degs = list(product(*(range(c + 1) for c in top)))
                for p in degs:
                    for q in degs:
                        if not all(a <= b for a, b in zip(p, q)):
                            continue
                        back = compose(segment(lam, (0,) * graph.k, p),
                                       compose(segment(lam, p, q),
                                               segment(lam, q, lam.degree)))
                        assert back == lam


class TestEnumerate:
    def test_ledrappier_census(self, ledrappier):
        words = ["".join(p.word) for p in enumerate_paths(ledrappier, (1, 2), range="v1")]
        assert words == ["acc", "ace", "aeh", "aej", "dhm", "dho", "djb", "dji"]

    def test_lambda3_level_11(self, lambda3):
        words = [p.word for p in enumerate_paths(lambda3, (1, 1), range="v")]
        assert words == [("e", "f1"), ("e", "f2")]

    def test_degree_zero(self, ledrappier):
        got = enumerate_paths(ledrappier, (0, 0), range="v2", source="v2")
        assert got == [vertex_path(ledrappier, "v2")]
        assert enumerate_paths(ledrappier, (0, 0), range="v2", source="v3") == []

    def test_counting_property(self, ledrappier):
        # |v Lambda^{m+n} w| = sum_u |v Lambda^m u| |u Lambda^n w|
        for m, n in (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 0))):
            mn = tuple(a + b for a, b in zip(m, n))
            for v in ledrappier.vertices:
                for w in ledrappier.vertices:
                    direct = len(enumerate_paths(ledrappier, mn, range=v, source=w))
                    split = sum(
                        len(enumerate_paths(ledrappier, m, range=v, source=u))
                        * len(enumerate_paths(ledrappier, n, range=u, source=w))
                        for u in ledrappier.vertices)
                    assert direct == split


class TestVertexMatrices:
    def test_lambda3(self, lambda3):
        a1, a2 = vertex_matrices(lambda3)
        assert a1.tolist() == [[1]]
        assert a2.tolist() == [[2]]

    def test_ledrappier(self, ledrappier):
        # A_i(v, w) counts edges w -> v; pin the transposed (v -> w)
        # convention too so the orientation choice stays guarded
        a1, a2 = vertex_matrices(ledrappier)
        assert a1.T.tolist() == [[1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0]]
        assert a2.T.tolist() == [[1, 0, 1, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, 1]]
        # and they count paths per the library convention
        for i, mat in ((0, a1), (1, a2)):
            deg = (1, 0) if i == 0 else (0, 1)
            for vi, v in enumerate(ledrappier.vertices):
                for wi, w in enumerate(ledrappier.vertices):
                    assert mat[vi, wi] == len(
                        enumerate_paths(ledrappier, deg, range=v, source=w))

    def test_missing_color_zero_matrix(self):
        doc = {"k": 2, "vertices": ["v"],
               "edges": [{"id": "e", "color": 1, "source": "v", "range": "v"}],
               "squares": []}
        a1, a2 = vertex_matrices(load_kgraph(doc))
        assert a1.tolist() == [[1]]
        assert a2.tolist() == [[0]]

    def test_commutation(self, lambda3, ledrappier, sphere):
        for graph in (lambda3, ledrappier, sphere):
            mats = vertex_matrices(graph)
            for i in range(len(mats)):
                for j in range(len(mats)):
                    assert np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i])


class TestSquaresForceCommutation:
    """No commutation check runs at load: bijective square coverage implies
    A_1 A_2 = A_2 A_1, and every square is needed for coverage."""

    @settings(max_examples=60, deadline=None)
    @given(generated_documents(), st.data())
    def test_accepted_graphs_commute_and_need_every_square(self, doc, data):
        a1, a2 = vertex_matrices(load_kgraph(doc))
        assert np.array_equal(a1 @ a2, a2 @ a1)
        i = data.draw(st.integers(0, len(doc["squares"]) - 1))
        dropped = {**doc, "squares": doc["squares"][:i] + doc["squares"][i + 1:]}
        with pytest.raises(ValidationError) as exc:
            load_kgraph(dropped)
        assert exc.value.reason == "missing_square"


class TestCoverageCount:
    """The count-based coverage check names the same missing pair as the
    scan it replaced (the oracle in helpers), for every single-square
    deletion."""

    @staticmethod
    def check_every_deletion(doc):
        assert scan_missing_square(doc) is None
        if doc["k"] == 2:  # the cube check, for k >= 3, scans the words itself
            with mock.patch.object(KGraph, "_mixed_words", side_effect=AssertionError("scanned")):
                load_kgraph(doc)
        else:
            load_kgraph(doc)
        for i in range(len(doc["squares"])):
            dropped = {**doc, "squares": doc["squares"][:i] + doc["squares"][i + 1:]}
            with pytest.raises(ValidationError) as exc:
                load_kgraph(dropped)
            assert (exc.value.reason, str(exc.value)) == ("missing_square", scan_missing_square(dropped))

    @settings(max_examples=25, deadline=None)
    @given(generated_documents())
    def test_generated(self, doc):
        self.check_every_deletion(doc)

    def test_fixtures_and_rank_3(self, lambda3, ledrappier, sphere):
        for graph in (lambda3, ledrappier, sphere):
            self.check_every_deletion(doc_of(graph))
        self.check_every_deletion(skeleton_doc(VALID_SQUARES))
        self.check_every_deletion(double_cover(VALID_SQUARES))


class TestRecordChecks:
    """Well-formed records take the fast path; records of other types are
    still judged by the checks that name their fault."""

    def test_subclassed_records_load_alike(self, lambda3):
        class Record(dict):
            pass

        class Name(str):
            pass

        doc = doc_of(lambda3)
        doc["edges"] = [Record(rec, id=Name(rec["id"])) for rec in doc["edges"]]
        doc["squares"] = [Record(sq) for sq in doc["squares"]]
        assert load_kgraph(doc).to_document() == doc_of(lambda3)

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: rec.update(color=True), "edge 'e' color must be an integer"),
        (lambda rec: rec.update(color=1.0), "edge 'e' color must be an integer"),
        (lambda rec: rec.update(source=1), "edge 'e' field 'source' must be a string"),
        (lambda rec: rec.pop("range"), "edge record missing fields: ['range']"),
        (lambda rec: rec.update(extra=1), "unknown edge fields: ['extra']"),
    ])
    def test_malformed_edge_messages(self, lambda3, edit, message):
        doc = doc_of(lambda3)
        edit(doc["edges"][0])
        with pytest.raises(ParseError, match=re.escape(message)):
            load_kgraph(doc)

    @pytest.mark.parametrize("square, message", [
        ("e", "square records must be objects"),
        ({"left": ["e", "f1"]}, "square record must have 'left' and 'right'"),
        ({"left": ["e", "f1"], "right": ("f2", "e")}, "square sides must be two-edge lists"),
        ({"left": ["e"], "right": ["f2", "e"]}, "square sides must be two-edge lists"),
    ])
    def test_malformed_square_messages(self, lambda3, square, message):
        doc = doc_of(lambda3)
        doc["squares"][0] = square
        with pytest.raises(ParseError, match=re.escape(message)):
            load_kgraph(doc)


def test_rewriting_confluence_exhaustive(lambda3, ledrappier, sphere):
    assert check_confluence(lambda3, (2, 2)) > 0
    assert check_confluence(ledrappier, (2, 2)) > 0
    assert check_confluence(sphere, (2, 2)) > 0


class TestPathSearch:
    """The level-row filter of `enumerate_paths`, the resuming rewrite and
    compose against the code they replace (the oracles in helpers)."""

    @settings(max_examples=60, deadline=None)
    @given(generated_documents(), st.data())
    def test_pruned_search_is_the_filtered_list(self, doc, data):
        graph = load_kgraph(doc)
        degree = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        target = data.draw(st.sampled_from(graph.vertices))
        source = data.draw(st.sampled_from(graph.vertices))
        expected = pruned_paths(graph, degree, range=target, source=source)
        assert expected == filtered_paths(graph, degree, target, source)
        assert enumerate_paths(graph, degree, range=target, source=source) == expected
        assert pruned_paths(graph, degree, range=target, source=source, limit=1) == expected[:1]
        everything = enumerate_paths(graph, degree)
        assert everything == pruned_paths(graph, degree)
        assert enumerate_paths(graph, degree, range=target) == pruned_paths(graph, degree, range=target)
        assert enumerate_paths(graph, degree, source=source) == pruned_paths(graph, degree, source=source)
        assert len(everything) == path_count(graph, degree)
        if sum(degree):
            # degree, range and source set by the level rows, not by a census
            assert all(p == normal_form(graph, p.word) for p in everything)

    def test_pruned_search_on_fixtures(self, lambda3, ledrappier, sphere):
        for graph in (lambda3, ledrappier, sphere):
            for degree in product(range(3), repeat=2):
                for target, source in product(graph.vertices, repeat=2):
                    expected = pruned_paths(graph, degree, range=target, source=source)
                    assert expected == filtered_paths(graph, degree, target, source)
                    assert enumerate_paths(graph, degree, range=target, source=source) == expected

    def test_unknown_vertices_raise(self, ledrappier):
        for degree in ((0, 0), (1, 2)):
            for where in ({"range": "zz"}, {"source": "zz"}, {"range": "zz", "source": "v1"}):
                with pytest.raises(CompositionError, match="unknown vertex 'zz'"):
                    enumerate_paths(ledrappier, degree, **where)

    @settings(max_examples=60, deadline=None)
    @given(generated_documents(), st.integers(2, 9), st.integers(0, 2 ** 16))
    def test_resuming_rewrite_matches_restarting_oracle(self, doc, length, seed):
        graph = load_kgraph(doc)
        rng = random.Random(seed)
        for _ in range(5):
            word = random_word(graph, length, rng)
            assert kernel_rewrite(graph, word) == restart_rewrite(graph, word)

    @settings(max_examples=60, deadline=None)
    @given(generated_documents(), st.integers(2, 9), st.data())
    def test_compose_matches_normal_form_of_the_concatenation(self, doc, length, data):
        graph = load_kgraph(doc)
        word = random_word(graph, length, random.Random(data.draw(st.integers(0, 2 ** 16))))
        cut = data.draw(st.integers(1, len(word) - 1))
        got = compose(normal_form(graph, word[:cut]), normal_form(graph, word[cut:]))
        want = normal_form(graph, word)
        assert (got.word, got.degree, got.range, got.source) == \
            (want.word, want.degree, want.range, want.source)


def outcome(call, *args):
    """What a call returns, or the class and text of what it raises."""
    try:
        return call(*args)
    except CompositionError as exc:
        return type(exc), str(exc)


def random_degree(data, k, top=2):
    return tuple(data.draw(st.integers(0, top)) for _ in range(k))


class TestOneEngine:
    """Normal forms, composition and factorization on word-kernel rows,
    against the string-keyed oracles of `helpers`."""

    @settings(max_examples=60, deadline=None)
    @given(family_documents(), st.data())
    def test_batch_normal_form_matches_per_word_oracle(self, doc, data):
        graph = load_kgraph(doc)
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        words = [random_word(graph, data.draw(st.integers(1, 7)), rng)
                 for _ in range(data.draw(st.integers(1, 12)))]
        words += [["@" + v] for v in data.draw(st.lists(st.sampled_from(graph.vertices), max_size=2))]
        rng.shuffle(words)
        want = per_word_normal_forms(graph, words, vertex_marks=True)
        assert [path_of(graph, f) for f in normal_form_rows(graph, words, vertex_marks=True)] == want
        assert [normal_form(graph, w) for w in words if not w[0].startswith("@")] == \
            per_word_normal_forms(graph, [w for w in words if not w[0].startswith("@")])

        # one bad word, planted at a random position
        word = list(data.draw(st.sampled_from(words)))
        if word[0].startswith("@"):
            word = random_word(graph, 3, rng)
        kinds = ["unknown", "empty", "vertex", "unknown after a break"]
        tails = [e for e in graph.edge_ids if graph.edge(e).range != graph.edge(word[-1]).source]
        if tails:
            kinds.append("break")
        kind = data.draw(st.sampled_from(kinds))
        at = data.draw(st.integers(0, len(word)))
        planted = {"unknown": word[:at] + ["zz"] + word[at:],
                   "empty": [],
                   "vertex": ["@zz"],
                   "break": word + tails[:1],
                   "unknown after a break": word + tails[:1] + ["zz"] if tails else word + ["zz"]}[kind]
        words.insert(data.draw(st.integers(0, len(words))), planted)
        got = outcome(normal_form_rows, graph, words, True)
        assert got == outcome(per_word_normal_forms, graph, words, True)
        assert got[0] is CompositionError

    @settings(max_examples=60, deadline=None)
    @given(family_documents(), st.data())
    def test_segment_matches_pull_prefix_oracle(self, doc, data):
        graph = load_kgraph(doc)
        paths = enumerate_paths(graph, random_degree(data, graph.k))
        path = data.draw(st.sampled_from(paths)) if paths else vertex_path(graph, graph.vertices[0])
        q = tuple(data.draw(st.integers(0, d)) for d in path.degree)
        p = tuple(data.draw(st.integers(0, d)) for d in q)
        got, want = segment(path, p, q), pulled_segment(path, p, q)
        assert (got, got.degree, got.range, got.source) == (want, want.degree, want.range, want.source)

    def test_segment_exhaustive_on_fixtures(self, lambda3, ledrappier, sphere):
        for graph, top in ((lambda3, (2, 2)), (ledrappier, (2, 2)), (sphere, (1, 2))):
            degs = list(product(*(range(c + 1) for c in top)))
            for lam in (x for d in degs for x in enumerate_paths(graph, d)):
                for q in product(*(range(c + 1) for c in lam.degree)):
                    for p in product(*(range(c + 1) for c in q)):
                        assert segment(lam, p, q) == pulled_segment(lam, p, q)

    @settings(max_examples=60, deadline=None)
    @given(family_documents(), st.data())
    def test_compose_and_extensions_match_restarting_oracle(self, doc, data):
        graph = load_kgraph(doc)
        paths = enumerate_paths(graph, random_degree(data, graph.k))
        if not paths:
            return
        head = data.draw(st.sampled_from(paths))
        step = random_degree(data, graph.k)
        tails = enumerate_paths(graph, step, range=head.source)
        want = [restart_compose(head, mu) for mu in tails]
        assert [compose(head, mu) for mu in tails] == want
        got = extensions(head, step)
        assert [(p, p.degree, p.range, p.source) for p in got] == \
            [(p, p.degree, p.range, p.source) for p in want]
