"""The JSON-lines writer (`kgraphwave.jsonl`): listings, --analyze and
--synthesize text against dict records written one by one by `json.dumps`
(`helpers.basis_records` and friends), and the bytes of --out and --csv."""

import copy
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgraphwave import (
    MARKOV_MEMBER_LIMIT,
    MeasureSpec,
    TooLarge,
    analyze,
    build_wavelet_family,
    fixture_path,
    jsonl,
    level_space,
    load_kgraph,
    markov_wavelets,
    synthesize_vector,
    wavelet_basis,
)
from kgraphwave.cli import main
from helpers import (
    VALID_SQUARES,
    basis_records,
    coefficient_records,
    double_cover,
    label_records,
    markov_labels,
    markov_records,
    random_cylinder_fn,
    skeleton_doc,
    term_records,
    torus_document,
    twisted_circulant_document,
)

PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# values whose text is easy to get wrong: signed zeros, the least subnormal,
# exponent forms, and magnitudes whose sums overflow to +-Infinity
SPECIAL = (-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e308, -1e308)


def dumps_lines(records):
    return "".join(json.dumps(r) + "\n" for r in records)


@st.composite
def bases(draw):
    """A wavelet basis on a generated torus or twisted circulant, or on a
    rank-3 skeleton or its double cover."""
    kind = draw(st.sampled_from(["torus", "circulant", "rank3"]))
    if kind == "torus":
        doc = torus_document(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    elif kind == "circulant":
        shifts = st.sampled_from([(1,), (1, 2), (2, 3)])
        doc = twisted_circulant_document(draw(st.integers(3, 7)), draw(shifts), draw(shifts),
                                         draw(st.integers(0, 2 ** 16)))
    else:
        doc = copy.deepcopy(draw(st.sampled_from([skeleton_doc(VALID_SQUARES),
                                                  double_cover(VALID_SQUARES)])))
    k = doc["k"]
    shape = tuple(draw(st.lists(st.integers(1, 2), min_size=k, max_size=k)))
    depth = draw(st.integers(1, 3 if k == 2 and max(shape) == 1 else 2))
    return wavelet_basis(build_wavelet_family(load_kgraph(doc), shape=shape), depth)


@st.composite
def vectors(draw, size):
    """A float vector of the given size: normal values, exact zeros and the
    `SPECIAL` values, mixed."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(size)
    special = rng.random(size) < draw(st.floats(0.0, 1.0))
    values[special] = rng.choice(SPECIAL, np.count_nonzero(special))
    return values


@st.composite
def markov_systems(draw):
    """A Markov system of 2-5 letters with random positive weights, as floats
    or as fractions, at depth 0-3."""
    counts = draw(st.lists(st.integers(1, 20), min_size=2, max_size=5))
    total = sum(counts)
    exact = draw(st.booleans())
    weights = [Fraction(c, total) if exact else c / total for c in counts]
    return markov_wavelets(len(counts), weights, draw(st.integers(0, 3)))


class TestColumns:
    def test_special_values_read_as_json_dumps_writes_them(self):
        values = np.array([*SPECIAL, math.inf, -math.inf, math.nan, -math.nan, 1.0, -0.0, 0.1 + 0.2])
        assert list(jsonl.numbers(values)) == [json.dumps(v) for v in values.tolist()]

    def test_empty(self):
        assert len(jsonl.numbers(np.empty(0))) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL)))
    def test_any_floats(self, values):
        assert list(jsonl.numbers(np.array(values, dtype=float))) == [json.dumps(v) for v in values]

    def test_listing_members_without_terms(self):
        """A member with no positions, or with only exact zeros, keeps its
        record with an empty term list."""
        heads = jsonl.cells('{"id": ', jsonl.integers(4))
        term_heads = jsonl.cells('{"p": ', jsonl.integers(3), ', "coeff": ')
        members = [(np.array([0, 1]), np.array([1.0, 2.0])), (np.empty(0, dtype=int), np.empty(0)),
                   (np.arange(3), np.array([0.0, -0.0, 0.0])), (np.array([2]), np.array([math.nan]))]
        expected = [{"id": 0, "terms": [{"p": 0, "coeff": 1.0}, {"p": 1, "coeff": 2.0}]},
                    {"id": 1, "terms": []}, {"id": 2, "terms": []},
                    {"id": 3, "terms": [{"p": 2, "coeff": math.nan}]}]
        assert jsonl.listing(heads, term_heads, members) == dumps_lines(expected)
        assert jsonl.listing(heads[:0], term_heads, []) == ""

    def test_strings_escape_as_json_dumps(self):
        names = ["e", 'q"uote', "back\\slash", "new\nline", "ünï", "a, b"]
        assert list(jsonl.strings(names)) == [json.dumps(s) for s in names]


class TestWriterAgainstDictRecords:
    @PROPERTY
    @given(bases())
    def test_basis_listing_and_labels(self, basis):
        assert basis.listing() == dumps_lines(basis_records(basis))
        assert list(basis.labels) == label_records(basis)
        assert basis.to_records() == basis_records(basis)

    @PROPERTY
    @given(st.data())
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_analyze_output(self, data):
        basis = data.draw(bases())
        space = basis.space
        # a function over the level, special values included: its coefficients
        # can overflow to +-Infinity and, where they meet, to NaN
        values = data.draw(vectors(len(space.weights)))
        coeffs = analyze(basis, space.function_of(values))
        assert basis.coefficient_lines(coeffs) == dumps_lines(coefficient_records(basis, coeffs))
        direct = data.draw(vectors(len(basis.order)))
        assert basis.coefficient_lines(direct) == dumps_lines(coefficient_records(basis, direct))

    @PROPERTY
    @given(st.data())
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_synthesize_output(self, data):
        basis = data.draw(bases())
        values = synthesize_vector(basis, data.draw(vectors(len(basis.order))))
        at = np.arange(len(values))
        assert basis.space.lines(at, values) == dumps_lines(term_records(basis.space, at, values))

    @PROPERTY
    @given(markov_systems())
    def test_markov_listing_and_labels(self, system):
        assert system.listing() == dumps_lines(markov_records(system))
        assert list(system.labels) == markov_labels(system)

    def test_level_zero_terms_sort_by_vertex_name(self):
        doc = {"k": 1, "vertices": ["v2", "v10", "v1"],
               "edges": [{"id": f"e{i}", "color": 1, "source": v, "range": w}
                         for i, (v, w) in enumerate([("v2", "v10"), ("v10", "v1"), ("v1", "v2")])],
               "squares": []}
        space = level_space(MeasureSpec.perron_frobenius(load_kgraph(doc)), (0,))
        at, values = np.arange(3), np.array([1.5, -0.0, 2.5])
        assert space.lines(at, values) == dumps_lines(term_records(space, at, values))
        assert [r["path"] for r in space.records(at, values)] == [["@v1"], ["@v2"]]


LED = str(fixture_path("ledrappier"))
ROUTE_COMMANDS = {
    "listing": ["wavelets", LED, "--shape", "1,1", "--depth", "2"],
    "analyze": ["wavelets", LED, "--shape", "1,1", "--depth", "2", "--analyze", "{fn}"],
    "synthesize": ["wavelets", LED, "--shape", "1,1", "--depth", "2", "--synthesize", "{coeffs}"],
    "markov": ["markov", "--alphabet", "3", "--weights", "0.2,0.3,0.5", "--depth", "2"],
    "measure": ["measure", LED, "--path", "a", "--path", "@v2"],
}
# sha256 of each command's --out file and of its --csv stdout, captured
# while every record was a dict written by json.dumps
ROUTE_DIGESTS = {
    "listing": ("9d56eac9c034f5d3241d009e031a6d13941acd778c48f02aa43909ab6497db36",
        "9d56eac9c034f5d3241d009e031a6d13941acd778c48f02aa43909ab6497db36"),
    "analyze": ("a9381d0543d575b7a8eec9ad8d6568f73ff1ce720544e87d6fc18571c7e40d8e",
        "a9381d0543d575b7a8eec9ad8d6568f73ff1ce720544e87d6fc18571c7e40d8e"),
    # the dict writer's and the text writer's digest alike, for FINITE_SPECIAL
    "synthesize": ("a80e76a642d5e176fbe078281f6463895eb54d8e89bfb86b0ba1eddd5ca5162b",
        "a80e76a642d5e176fbe078281f6463895eb54d8e89bfb86b0ba1eddd5ca5162b"),
    "markov": ("74dfcff8666eee9d96450db3c4b62d4295c512ee32fb900f148c0a92bb2f8ca9",
        "74dfcff8666eee9d96450db3c4b62d4295c512ee32fb900f148c0a92bb2f8ca9"),
    "measure": ("d6d1473bd23c40da57d7cdf081a92ffe6e4d103593df5722a5a077756a480961",
        "2502c1694ffa9445f0157497db070be4019ee69836504950cdf0370a37bcd015"),
}


# SPECIAL with +-1e300 for +-1e308, whose synthesis sums past the float range:
# --synthesize refuses that with exit 4 (test_cli.TestNonFinite)
FINITE_SPECIAL = (*SPECIAL[:-2], 1e300, -1e300)


@pytest.mark.parametrize("name", list(ROUTE_COMMANDS))
def test_out_file_and_csv_bytes(name, tmp_path, capsys):
    graph = load_kgraph(LED)
    fn = random_cylinder_fn(graph, (2, 2), 12, np.random.default_rng(11))
    fn_file, coeff_file, out_file = tmp_path / "fn.jsonl", tmp_path / "coeffs.jsonl", tmp_path / "out"
    fn_file.write_text(dumps_lines(fn.to_records()))
    coeff_file.write_text(dumps_lines({"coeff": c} for c in (*FINITE_SPECIAL, *np.linspace(-2, 2, 57).tolist())))
    argv = [a.format(fn=fn_file, coeffs=coeff_file) for a in ROUTE_COMMANDS[name]]
    assert main([*argv, "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert main([*argv, "--csv"]) == 0
    csv_text = capsys.readouterr().out
    digests = (hashlib.sha256(out_file.read_bytes()).hexdigest(),
               hashlib.sha256(csv_text.encode()).hexdigest())
    assert digests == ROUTE_DIGESTS[name]


class TestMarkovLimit:
    def test_member_count_above_the_limit_is_refused(self):
        with pytest.raises(TooLarge, match="2\\^15 members"):
            markov_wavelets(2, (0.5, 0.5), 14)
        with pytest.raises(TooLarge):  # the count is never formed in full
            markov_wavelets(3, (0.25, 0.25, 0.5), 10 ** 9)
        assert len(markov_wavelets(2, (0.5, 0.5), 3).labels) == 16 <= MARKOV_MEMBER_LIMIT

    def test_cli_refuses_before_allocating(self, tmp_path):
        """A depth whose output would not fit in memory exits 1 with one JSON
        record, in a child whose address space is capped at 1 GiB."""
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-m", "kgraphwave.cli", "markov", "--alphabet", "2",
                               "--weights", "0.5,0.5", "--depth", "30"],
                              capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60)
        assert done.returncode == 1, done.stderr
        assert done.stdout == ""
        (line,) = done.stderr.splitlines()
        record = json.loads(line)
        assert record["error"] == "usage" and record["reason"] == "size_limit"
        assert str(MARKOV_MEMBER_LIMIT) in record["message"]


@st.composite
def int_matrices(draw):
    """An int64 matrix of up to 6 x 8, rows all zero, dense or sparse, with
    entries of either sign up to past int32 and to the int64 bounds."""
    rows, columns = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    big = st.integers(-2 ** 63, 2 ** 63 - 1)
    entry = st.one_of(st.integers(-3, 3), st.sampled_from([2 ** 31, -2 ** 31 - 1, 2 ** 40]), big)
    m = np.zeros((rows, columns), dtype=np.int64)
    for r in range(rows):
        density = draw(st.sampled_from([0.0, 0.2, 1.0]))
        for c in range(columns):
            if draw(st.floats(0, 1)) < density:
                m[r, c] = draw(entry)
    return m


class TestIntMatrix:
    """`jsonl.int_matrix` against `json.dumps` of the dense matrix as lists."""

    @staticmethod
    def rendered(m):
        rows, cols = np.nonzero(m)
        return jsonl.int_matrix(m.shape, rows, cols, m[rows, cols])

    @PROPERTY
    @given(int_matrices())
    def test_matches_json_dumps(self, m):
        assert self.rendered(m) == json.dumps(m.tolist())

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 0), (1, 1), (2, 5)])
    def test_all_zero_shapes(self, shape):
        m = np.zeros(shape, dtype=np.int64)
        assert self.rendered(m) == json.dumps(m.tolist())

    def test_single_entries(self):
        for value in (1, -1, 7, -2 ** 31 - 1, 2 ** 63 - 1, -2 ** 63):
            m = np.array([[value]], dtype=np.int64)
            assert self.rendered(m) == json.dumps(m.tolist()) == f"[[{value}]]"

    def test_every_cell_of_a_small_matrix(self):
        # one nonzero at each position of a 3 x 4 matrix: first, last and
        # inner columns of first, middle and last rows
        for r in range(3):
            for c in range(4):
                m = np.zeros((3, 4), dtype=np.int64)
                m[r, c] = -5
                assert self.rendered(m) == json.dumps(m.tolist())
