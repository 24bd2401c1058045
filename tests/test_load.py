"""Graph loading: the column-first `load_kgraph` against the record-by-record
loader it replaced (`helpers.ObjectGraph`), and the kinds of input it takes."""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgraphwave import (
    Edge,
    FactorizationSquare,
    HasSources,
    KGraph,
    KGraphWaveError,
    ParseError,
    ValidationError,
    load_kgraph,
    pf_data,
)
from helpers import (
    CUBE_VIOLATING_SQUARES,
    VALID_SQUARES,
    double_cover,
    generated_documents,
    object_load_kgraph,
    rank3_documents,
    skeleton_doc,
    torus_document,
)

PROPERTY = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def documents(draw):
    """A generated torus or twisted circulant, or one of the rank-3 skeletons."""
    rank3 = [skeleton_doc(VALID_SQUARES), double_cover(VALID_SQUARES),
             skeleton_doc(CUBE_VIOLATING_SQUARES), double_cover(CUBE_VIOLATING_SQUARES)]
    return copy.deepcopy(draw(st.one_of(generated_documents(), st.sampled_from(rank3))))


def outcome(load, doc):
    """The loaded graph, or the class, reason and message of the error."""
    try:
        return load(doc)
    except KGraphWaveError as exc:
        return type(exc), getattr(exc, "reason", None), str(exc)


def assert_same_graph(graph, oracle):
    assert graph.edge_ids == oracle.edge_ids
    for name in ("edge_color", "edge_source", "edge_range"):
        assert np.array_equal(getattr(graph, name), getattr(oracle, name)), name
    for v in graph.vertices:
        for c in range(1, graph.k + 1):
            assert graph.edges_into(v, c) == oracle.edges_into(v, c)
    assert graph.to_document() == oracle.to_document()
    # the two-way table of square sides: each side to the other side of its square
    kernel = graph.word_kernel
    for mine, theirs in zip((kernel.pair_key, kernel.pair_first, kernel.pair_second),
                            oracle.pair_table()):
        assert np.array_equal(mine, theirs)
    # the views hold the objects the oracle was built from
    assert list(graph.edges.items()) == list(oracle.edges.items())
    assert graph.squares == oracle.squares


@PROPERTY
@given(documents())
def test_columns_match_the_object_loader(doc):
    expected = outcome(object_load_kgraph, doc)
    got = outcome(load_kgraph, doc)
    if isinstance(expected, tuple):  # the cube-violating skeletons
        assert got == expected
    else:
        assert_same_graph(got, expected)


@PROPERTY
@given(st.one_of(rank3_documents(), st.sampled_from([skeleton_doc(CUBE_VIOLATING_SQUARES),
                                                     double_cover(CUBE_VIOLATING_SQUARES)])))
def test_descending_words_decide_the_cube_condition(doc):
    # the check rewrites the words of descending colors only; the oracle
    # rewrites every tri-colored word, in all six color orders
    expected = outcome(object_load_kgraph, doc)
    got = outcome(load_kgraph, doc)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_same_graph(got, expected)


def mutate(doc, kind, data):
    """Apply one mutation of the given kind, at places drawn from ``data``."""
    edges, squares = doc["edges"], doc["squares"]

    def pick(seq):
        return data.draw(st.integers(0, len(seq) - 1))

    if kind == "drop square" and squares:
        del squares[pick(squares)]
    elif kind == "recolor edge":
        edge = edges[pick(edges)]
        edge["color"] = data.draw(st.integers(0, doc["k"] + 1).filter(lambda c: c != edge["color"]))
    elif kind == "unknown vertex":
        edge = edges[pick(edges)]
        for end in data.draw(st.sampled_from([["source"], ["range"], ["source", "range"]])):
            edge[end] = f"no {end}"
    elif kind == "unknown edge" and squares:
        side = squares[pick(squares)][data.draw(st.sampled_from(["left", "right"]))]
        side[data.draw(st.integers(0, 1))] = "nothing"
    elif kind == "other edge" and squares:
        # an edge of the same color: the colors still pair, the ends may not
        side = squares[pick(squares)][data.draw(st.sampled_from(["left", "right"]))]
        at = data.draw(st.integers(0, 1))
        colors = {e["color"] for e in edges if e["id"] == side[at]}
        side[at] = data.draw(st.sampled_from([e["id"] for e in edges if e["color"] in colors]
                                             or [side[at]]))
    elif kind == "repeat pair" and squares:
        squares.insert(data.draw(st.integers(0, len(squares))), copy.deepcopy(squares[pick(squares)]))
    elif kind == "duplicate id" and len(edges) > 1:
        i, j = pick(edges), pick(edges)
        edges[i]["id"] = edges[j]["id"] if i != j else edges[i - 1]["id"]
    elif kind == "swap sides" and squares:
        sq = squares[pick(squares)]
        sq["left"], sq["right"] = sq["right"], sq["left"]


MUTATIONS = ["drop square", "recolor edge", "unknown vertex", "unknown edge", "other edge",
             "repeat pair", "duplicate id", "swap sides"]


@PROPERTY
@given(documents(), st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2), st.data())
def test_mutations_raise_what_the_object_loader_raises(doc, kinds, data):
    for kind in kinds:
        mutate(doc, kind, data)
    expected = outcome(object_load_kgraph, doc)
    got = outcome(load_kgraph, doc)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_same_graph(got, expected)


@pytest.mark.parametrize("kind", MUTATIONS)
def test_each_mutation_is_rejected(kind):
    """Each mutation, once at a fixed place of a torus, raises the oracle's
    error: the property above may draw mutations that leave a graph valid."""
    doc = torus_document(3, 4)
    edges, squares = doc["edges"], doc["squares"]
    if kind == "drop square":
        del squares[5]
    elif kind == "recolor edge":
        edges[7]["color"] = 3
    elif kind == "unknown vertex":
        edges[7]["range"] = "nowhere"
    elif kind == "unknown edge":
        squares[5]["right"][1] = "nothing"
    elif kind == "other edge":
        squares[5]["right"][1] = squares[6]["right"][1]
    elif kind == "repeat pair":
        squares.append(copy.deepcopy(squares[5]))
    elif kind == "duplicate id":
        edges[7]["id"] = edges[2]["id"]
    else:
        squares[5]["left"], squares[5]["right"] = squares[5]["right"], squares[5]["left"]
    expected = outcome(object_load_kgraph, doc)
    assert isinstance(expected, tuple)
    assert outcome(load_kgraph, doc) == expected


def test_constructor_takes_the_same_checks():
    """`KGraph(k, vertices, edges, squares)` runs the checks of the loader,
    and also the color pair each square claims."""
    doc = double_cover(VALID_SQUARES)
    oracle = object_load_kgraph(doc)
    graph = KGraph(oracle.k, oracle.vertices, oracle.edges.values(), oracle.squares)
    assert_same_graph(graph, oracle)
    squares = list(oracle.squares)
    squares[3] = FactorizationSquare((2, 3), squares[3].left, squares[3].right)
    with pytest.raises(ValidationError) as exc:
        KGraph(oracle.k, oracle.vertices, oracle.edges.values(), squares)
    assert exc.value.reason == "non_bijective_squares"
    assert str(exc.value) == f"square {squares[3].left} color pair mismatch"
    edges = list(oracle.edges.values()) + [Edge("x", 10 ** 30, "v0", "v0")]
    with pytest.raises(ValidationError, match=r"edge x has color 10{30}, k=3"):
        KGraph(oracle.k, oracle.vertices, edges, oracle.squares)


@pytest.mark.parametrize("k", [3, 10 ** 9, 10 ** 20])
def test_k_bounds_no_loop(k):
    """k is a bound on the colors, not a count of work: a one-loop graph
    with k far beyond its colors loads at once, and PF data then finds
    the colors no edge carries."""
    graph = load_kgraph({"k": k, "vertices": ["v"], "squares": [],
                         "edges": [{"id": "a", "color": 1, "source": "v", "range": "v"}]})
    assert graph.k == k
    with pytest.raises(HasSources):
        pf_data(graph)


class TestDocumentKinds:
    @pytest.mark.parametrize("text,kind", [
        ("[]", "list"), ("5", "int"), ("null", "NoneType"), ('"x"', "str"), (" [1, 2]", "list"),
    ])
    def test_json_that_is_no_object(self, text, kind, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where no file of that name exists
        with pytest.raises(ParseError, match=f"^expected a JSON object, got {kind}$"):
            load_kgraph(text)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_kgraph(str(tmp_path / "missing.kg"))

    def test_a_file_named_like_json_is_read(self, tmp_path, monkeypatch, lambda3):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "5").write_text(json.dumps(lambda3.to_document()))
        assert load_kgraph("5").to_document() == lambda3.to_document()

    def test_a_directory_is_no_document(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            load_kgraph(str(tmp_path))
