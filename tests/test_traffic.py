import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphwave import (
    CompositionError,
    NonFiniteResult,
    PFData,
    NoWaveletDegree,
    PreferredPaths,
    ValidationError,
    default_preferred_paths,
    enumerate_paths,
    load_kgraph,
    normal_form,
    pf_data,
    traffic_measure,
    traffic_wavelet_family,
    vertex_path,
)
from kgraphwave.traffic import _least_degrees
from helpers import (
    enumerated_least_degrees,
    exhaustive_least_path,
    family_documents,
    generated_documents,
    least_total_chooser,
    twisted_circulant_document,
)

SQRT2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def led_pf(ledrappier):
    return pf_data(ledrappier)


@pytest.fixture(scope="module")
def led_prefs(ledrappier):
    # one of the two degree-(1,2) paths from each vertex up to v1
    assignment = {v: enumerate_paths(ledrappier, (1, 2), range="v1", source=v)[0]
                  for v in ledrappier.vertices}
    return PreferredPaths("v1", assignment)


class TestMeasure:
    def test_ledrappier_uniform(self, ledrappier, led_pf, led_prefs):
        nu = traffic_measure(ledrappier, led_pf, led_prefs)
        assert np.allclose(nu, 1 / 32, atol=1e-14)

    def test_root_vertex_path(self, ledrappier, led_pf):
        assignment = {"v1": vertex_path(ledrappier, "v1")}
        for v in ("v2", "v3", "v4"):
            assignment[v] = enumerate_paths(ledrappier, (1, 2), range="v1", source=v)[0]
        nu = traffic_measure(ledrappier, led_pf, PreferredPaths("v1", assignment))
        assert nu[0] == pytest.approx(led_pf.x_lambda[0], abs=1e-14)

    @pytest.mark.parametrize("rho", [1e300, 1e-300], ids=["underflow", "overflow"])
    def test_weights_past_the_float_range_raise(self, ledrappier, led_pf, led_prefs, rho):
        """rho^{-(1,2)} x_w is 0 or infinite: no class can be normalized."""
        pf = PFData(np.array([rho, rho]), led_pf.x_lambda)
        with pytest.raises(NonFiniteResult, match="vertex v1"):
            traffic_measure(ledrappier, pf, led_prefs)
        with pytest.raises(NonFiniteResult):
            traffic_wavelet_family(ledrappier, pf, led_prefs)

    def test_lambda3_trivial(self, lambda3):
        pf = pf_data(lambda3)
        prefs = PreferredPaths("v", {"v": vertex_path(lambda3, "v")})
        nu = traffic_measure(lambda3, pf, prefs)
        assert nu == pytest.approx([1.0], abs=1e-14)


class TestFamily:
    def test_ledrappier_reference_values(self, ledrappier, led_pf, led_prefs):
        fam = traffic_wavelet_family(ledrappier, led_pf, led_prefs)
        assert [m for (m, _), _ in fam.wavelets] == [1, 2, 3]
        signals = np.array([sig for _, sig in fam.wavelets])
        expected = np.array([
            [4.0, -4.0, 0.0, 0.0],
            [0.0, 0.0, 4.0, -4.0],
            [2 * SQRT2, 2 * SQRT2, -2 * SQRT2, -2 * SQRT2],
        ])
        assert np.max(np.abs(signals - expected)) < 1e-12
        assert fam.complete
        assert np.allclose(fam.constant, 2 * SQRT2, atol=1e-12)
        assert np.max(np.abs(fam.gram() - np.eye(4))) < 1e-12

    def test_choice_of_preferred_path_is_immaterial(self, ledrappier, led_pf):
        # both degree-(1,2) paths per vertex give the same vertex wavelets
        assignment = {v: enumerate_paths(ledrappier, (1, 2), range="v1", source=v)[1]
                      for v in ledrappier.vertices}
        fam = traffic_wavelet_family(ledrappier, led_pf,
                                     PreferredPaths("v1", assignment))
        assert np.max(np.abs(fam.wavelets[0][1] - np.array([4, -4, 0, 0]))) < 1e-12

    def test_zero_integral(self, ledrappier, led_pf, led_prefs):
        fam = traffic_wavelet_family(ledrappier, led_pf, led_prefs)
        for _, sig in fam.wavelets:
            assert abs(np.dot(sig, fam.measure)) < 1e-12

    def test_distinct_degrees_rejected(self, ledrappier, led_pf):
        assignment = {
            "v1": vertex_path(ledrappier, "v1"),
            "v2": enumerate_paths(ledrappier, (1, 0), range="v1", source="v2")[0],
            "v3": enumerate_paths(ledrappier, (1, 1), range="v1", source="v3")[0],
            "v4": enumerate_paths(ledrappier, (1, 2), range="v1", source="v4")[0],
        }
        with pytest.raises(NoWaveletDegree):
            traffic_wavelet_family(ledrappier, led_pf, PreferredPaths("v1", assignment))

    def test_single_vertex_rejected(self, lambda3):
        pf = pf_data(lambda3)
        prefs = PreferredPaths("v", {"v": vertex_path(lambda3, "v")})
        with pytest.raises(NoWaveletDegree):
            traffic_wavelet_family(lambda3, pf, prefs)

    def test_two_vertex_single_wavelet_golden_ratio(self):
        graph = load_kgraph({
            "k": 1, "vertices": ["v", "w"],
            "edges": [{"id": "lv", "color": 1, "source": "v", "range": "v"},
                      {"id": "a", "color": 1, "source": "v", "range": "w"},
                      {"id": "b", "color": 1, "source": "w", "range": "v"}],
            "squares": []})
        pf = pf_data(graph)
        phi = (1 + np.sqrt(5)) / 2
        assert pf.rho[0] == pytest.approx(phi, abs=1e-10)
        prefs = PreferredPaths("v", {
            "v": normal_form(graph, ["lv"]),
            "w": normal_form(graph, ["b"]),
        })
        fam = traffic_wavelet_family(graph, pf, prefs)
        assert len(fam.wavelets) == 1
        (label, sig), = fam.wavelets
        # hand solution: alpha x_v = beta x_w, weighted norm 1, with
        # x = (phi, 1)/(phi + 1) and nu = x / phi
        x = np.array([phi, 1.0]) / (phi + 1)
        nu = x / phi
        beta = 1 / np.sqrt(nu[1] * (nu[1] / nu[0] + 1))
        alpha = beta * nu[1] / nu[0]
        assert sig == pytest.approx([alpha, -beta], abs=1e-10)
        assert np.all(sig != 0.0)
        assert fam.complete
        assert np.max(np.abs(fam.gram() - np.eye(2))) < 1e-12

    def test_multiple_degree_classes_disjoint_supports(self, ledrappier, led_pf):
        assignment = {
            "v1": enumerate_paths(ledrappier, (1, 2), range="v1", source="v1")[0],
            "v2": enumerate_paths(ledrappier, (1, 2), range="v1", source="v2")[0],
            "v3": enumerate_paths(ledrappier, (2, 2), range="v1", source="v3")[0],
            "v4": enumerate_paths(ledrappier, (2, 2), range="v1", source="v4")[0],
        }
        fam = traffic_wavelet_family(ledrappier, led_pf, PreferredPaths("v1", assignment))
        assert not fam.complete and fam.constant is None
        shapes = [J for (_, J), _ in fam.wavelets]
        assert shapes == [(1, 2), (2, 2)]  # graded-lex class order
        supports = [set(np.nonzero(sig)[0]) for _, sig in fam.wavelets]
        assert supports[0].isdisjoint(supports[1])
        gram = fam.gram()
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-12


class TestValidationAndDefaults:
    def test_wrong_root_rejected(self, ledrappier):
        with pytest.raises(ValidationError):
            PreferredPaths("v2", {
                "v1": enumerate_paths(ledrappier, (1, 2), range="v1", source="v1")[0]})

    def test_partial_assignment_rejected(self, ledrappier, led_pf):
        prefs = PreferredPaths(
            "v1", {"v1": vertex_path(ledrappier, "v1")})
        with pytest.raises(ValidationError):
            traffic_measure(ledrappier, led_pf, prefs)

    def test_default_chooser_least_graded_lex(self, ledrappier):
        prefs = default_preferred_paths(ledrappier, "v1")
        assert prefs.assignment["v1"] == vertex_path(ledrappier, "v1")
        # v2 is one step away; among the total-1 degrees with a path, the
        # lexicographically least degree wins, then the least word
        d2 = prefs.assignment["v2"].degree
        assert sum(d2) == 1
        candidates = [d for d in ((0, 1), (1, 0))
                      if enumerate_paths(ledrappier, d, range="v1", source="v2")]
        assert d2 == sorted(candidates)[0]
        least = enumerate_paths(ledrappier, d2, range="v1", source="v2")[0]
        assert prefs.assignment["v2"] == least

    def test_default_chooser_unknown_root(self, ledrappier):
        with pytest.raises(CompositionError, match="unknown vertex 'zz'"):
            default_preferred_paths(ledrappier, "zz")

    def test_default_chooser_unreachable_root(self, sphere):
        with pytest.raises(ValidationError):
            default_preferred_paths(sphere, "u")


class TestDefaultChooserSearch:
    """The least-total search against the exhaustive chooser it replaces."""

    def check_against_oracle(self, graph, root):
        expected = {w: exhaustive_least_path(graph, root, w) for w in graph.vertices}
        if None in expected.values():
            with pytest.raises(ValidationError) as exc:
                default_preferred_paths(graph, root)
            assert exc.value.reason == "bad_preferred_path"
        else:
            assert default_preferred_paths(graph, root).assignment == expected

    def test_fixtures(self, lambda3, ledrappier, sphere):
        for graph in (lambda3, ledrappier, sphere):
            for root in graph.vertices:
                self.check_against_oracle(graph, root)

    @settings(max_examples=40, deadline=None)
    @given(generated_documents(), st.data())
    def test_generated_graphs(self, doc, data):
        graph = load_kgraph(doc)
        self.check_against_oracle(graph, data.draw(st.sampled_from(graph.vertices)))

    def test_sixty_vertex_circulant_is_fast(self):
        graph = load_kgraph(twisted_circulant_document(60, (1, 2, 5), (1, 3, 4), 7))
        start = time.perf_counter()
        prefs = default_preferred_paths(graph, graph.vertices[0])
        assert time.perf_counter() - start < 0.5  # the exhaustive chooser took 45 s on a 2-core host
        assert max(sum(p.degree) for p in prefs.assignment.values()) >= 10
        assert prefs.assignment == least_total_chooser(graph, graph.vertices[0])

    def test_two_hundred_vertex_circulant_is_fast(self):
        graph = load_kgraph(twisted_circulant_document(200, (1, 2, 5), (1, 3, 4), 7))
        start = time.perf_counter()
        prefs = default_preferred_paths(graph, graph.vertices[0])
        # 0.04 s on a 2-core host; searching every degree of the least total took 2.6 s
        assert time.perf_counter() - start < 0.2
        assert max(sum(p.degree) for p in prefs.assignment.values()) == 40

    def test_three_hundred_vertex_circulant_prefs_are_pinned(self):
        """Each vertex takes the first degree that reaches it, and only the
        vertices not yet settled are visited: the assignment is the one
        found by visiting every reached vertex at every degree."""
        graph = load_kgraph(twisted_circulant_document(300, (1, 2), (1, 3), 4))
        prefs = default_preferred_paths(graph, graph.vertices[0]).assignment
        text = json.dumps([[w, list(p.degree), list(p.word)] for w, p in prefs.items()])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "e1d52cc4115bf96ff829d2d10101b8be1841cae86a9c57e16285cc3c46b5df50"
        assert max(sum(p.degree) for p in prefs.values()) == 100

    def test_thousand_vertex_circulant_prefs_are_pinned(self):
        """Captured while each vertex ran its own source-pruned search (7.9 s
        on a 2-core host; the graded walk takes under 2 s there)."""
        graph = load_kgraph(twisted_circulant_document(1000, (1, 2), (1, 3), 0))
        prefs = default_preferred_paths(graph, "v0").assignment
        text = json.dumps([[w, list(p.degree), list(p.word)] for w, p in prefs.items()])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "289e22d97dbb8ae9c28a1d4018ee85a1760410fbf2060966e165eb5956e6997c"
        assert max(sum(p.degree) for p in prefs.values()) == 333


@pytest.fixture(scope="module")
def circulant_2000():
    return load_kgraph(twisted_circulant_document(2000, (1, 2), (1, 3), 0))


class TestLeastDegrees:
    """The breadth-first least degrees against the per-degree enumeration
    they replace."""

    def check_against_oracle(self, graph, root):
        expected = enumerated_least_degrees(graph, root)
        assert _least_degrees(graph, root) == expected
        unreached = [w for w in graph.vertices if w not in expected]
        if unreached:
            with pytest.raises(ValidationError, match=f"no path from {unreached[0]} to root {root}$"):
                default_preferred_paths(graph, root)

    def test_fixtures_every_root(self, lambda3, ledrappier, sphere, bouquet2, bouquet3):
        for graph in (lambda3, ledrappier, sphere, bouquet2, bouquet3):
            for root in graph.vertices:
                self.check_against_oracle(graph, root)

    @settings(max_examples=60, deadline=None)
    @given(family_documents(), st.data())
    def test_generated_and_rank3_graphs(self, doc, data):
        """Tori, twisted circulants (loops and repeated shift sums), and
        rank-3 skeletons and their double covers."""
        graph = load_kgraph(doc)
        self.check_against_oracle(graph, data.draw(st.sampled_from(graph.vertices)))

    def test_unreached_vertices_name_the_first_in_graph_order(self):
        # w2 and w1 (in that graph order) have no edge up to r
        graph = load_kgraph({
            "k": 1, "vertices": ["r", "w2", "a", "w1"],
            "edges": [{"id": "e", "color": 1, "source": "a", "range": "r"},
                      {"id": "f", "color": 1, "source": "r", "range": "w2"},
                      {"id": "g", "color": 1, "source": "r", "range": "w1"}],
            "squares": []})
        assert _least_degrees(graph, "r") == {"r": (0,), "a": (1,)}
        with pytest.raises(ValidationError, match="no path from w2 to root r$"):
            default_preferred_paths(graph, "r")

    def test_two_thousand_vertex_circulant_is_fast(self, circulant_2000):
        start = time.perf_counter()
        least = _least_degrees(circulant_2000, "v0")
        # 0.04 s on a 2-core host; one numpy step per degree of each total took 7 s
        assert time.perf_counter() - start < 0.5
        assert max(map(sum, least.values())) == 667

    def test_two_thousand_vertex_circulant_prefs_are_pinned(self, circulant_2000):
        """Captured from the per-degree enumeration of least degrees."""
        prefs = default_preferred_paths(circulant_2000, "v0").assignment
        text = json.dumps([[w, list(p.degree), list(p.word)] for w, p in prefs.items()])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "2a6192ccd4353c4823fae8ad376970eda0442e4359ddb9d7fef77a67f5c6fca0"
