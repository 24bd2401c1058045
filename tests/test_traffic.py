import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kgraphwave import (
    CompositionError,
    DegreeRangeError,
    NonFiniteResult,
    NotStronglyConnected,
    PFData,
    NoWaveletDegree,
    PreferredPaths,
    ValidationError,
    enumerate_paths,
    least_degrees,
    load_kgraph,
    normal_form,
    pf_data,
    traffic_wavelet_family,
    vertex_path,
)
from helpers import (
    dense_traffic_family,
    enumerated_least_degrees,
    family_documents,
    generated_documents,
    least_total_chooser,
    star_document,
    traffic_gram,
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
        nu = traffic_wavelet_family(ledrappier, led_pf, led_prefs.degrees).measure
        assert np.allclose(nu, 1 / 32, atol=1e-14)

    def test_root_vertex_path(self, ledrappier, led_pf):
        assignment = {"v1": vertex_path(ledrappier, "v1")}
        for v in ("v2", "v3", "v4"):
            assignment[v] = enumerate_paths(ledrappier, (1, 2), range="v1", source=v)[0]
        nu = traffic_wavelet_family(ledrappier, led_pf, PreferredPaths("v1", assignment).degrees).measure
        assert nu[0] == pytest.approx(led_pf.x_lambda[0], abs=1e-14)

    @pytest.mark.parametrize("rho", [1e300, 1e-300], ids=["underflow", "overflow"])
    def test_weights_past_the_float_range_raise(self, ledrappier, led_pf, led_prefs, rho):
        """rho^{-(1,2)} x_w is 0 or infinite: no class can be normalized."""
        pf = PFData(np.array([rho, rho]), led_pf.x_lambda)
        with pytest.raises(NonFiniteResult, match="vertex v1"):
            traffic_wavelet_family(ledrappier, pf, led_prefs.degrees)

    def test_lambda3_trivial(self, lambda3):
        """One vertex: its vertex path weighs rho^0 x_v = 1, and its one
        degree class is a singleton, so the family has no wavelet."""
        pf = pf_data(lambda3)
        prefs = PreferredPaths("v", {"v": vertex_path(lambda3, "v")})
        assert pf.rho_pow(prefs.degrees["v"]) * pf.x_lambda == pytest.approx([1.0], abs=1e-14)
        with pytest.raises(NoWaveletDegree):
            traffic_wavelet_family(lambda3, pf, prefs.degrees)


class TestFamily:
    def test_ledrappier_reference_values(self, ledrappier, led_pf, led_prefs):
        fam = traffic_wavelet_family(ledrappier, led_pf, led_prefs.degrees)
        assert [m for (m, _), _ in fam.signals()] == [1, 2, 3]
        signals = np.array([sig for _, sig in fam.signals()])
        expected = np.array([
            [4.0, -4.0, 0.0, 0.0],
            [0.0, 0.0, 4.0, -4.0],
            [2 * SQRT2, 2 * SQRT2, -2 * SQRT2, -2 * SQRT2],
        ])
        assert np.max(np.abs(signals - expected)) < 1e-12
        assert fam.complete
        assert np.allclose(fam.constant, 2 * SQRT2, atol=1e-12)
        assert np.max(np.abs(traffic_gram(fam.measure, fam.signals(), fam.constant) - np.eye(4))) < 1e-12

    def test_choice_of_preferred_path_is_immaterial(self, ledrappier, led_pf):
        # both degree-(1,2) paths per vertex give the same vertex wavelets
        assignment = {v: enumerate_paths(ledrappier, (1, 2), range="v1", source=v)[1]
                      for v in ledrappier.vertices}
        fam = traffic_wavelet_family(ledrappier, led_pf, PreferredPaths("v1", assignment).degrees)
        assert np.max(np.abs(next(fam.signals())[1] - np.array([4, -4, 0, 0]))) < 1e-12

    def test_zero_integral(self, ledrappier, led_pf, led_prefs):
        fam = traffic_wavelet_family(ledrappier, led_pf, led_prefs.degrees)
        for _, sig in fam.signals():
            assert abs(np.dot(sig, fam.measure)) < 1e-12

    def test_distinct_degrees_rejected(self, ledrappier, led_pf):
        assignment = {
            "v1": vertex_path(ledrappier, "v1"),
            "v2": enumerate_paths(ledrappier, (1, 0), range="v1", source="v2")[0],
            "v3": enumerate_paths(ledrappier, (1, 1), range="v1", source="v3")[0],
            "v4": enumerate_paths(ledrappier, (1, 2), range="v1", source="v4")[0],
        }
        with pytest.raises(NoWaveletDegree):
            traffic_wavelet_family(ledrappier, led_pf, PreferredPaths("v1", assignment).degrees)

    def test_single_vertex_rejected(self, lambda3):
        pf = pf_data(lambda3)
        prefs = PreferredPaths("v", {"v": vertex_path(lambda3, "v")})
        with pytest.raises(NoWaveletDegree):
            traffic_wavelet_family(lambda3, pf, prefs.degrees)

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
        fam = traffic_wavelet_family(graph, pf, prefs.degrees)
        (label, sig), = fam.signals()
        # hand solution: alpha x_v = beta x_w, weighted norm 1, with
        # x = (phi, 1)/(phi + 1) and nu = x / phi
        x = np.array([phi, 1.0]) / (phi + 1)
        nu = x / phi
        beta = 1 / np.sqrt(nu[1] * (nu[1] / nu[0] + 1))
        alpha = beta * nu[1] / nu[0]
        assert sig == pytest.approx([alpha, -beta], abs=1e-10)
        assert np.all(sig != 0.0)
        assert fam.complete
        assert np.max(np.abs(traffic_gram(fam.measure, fam.signals(), fam.constant) - np.eye(2))) < 1e-12

    def test_multiple_degree_classes_disjoint_supports(self, ledrappier, led_pf):
        assignment = {
            "v1": enumerate_paths(ledrappier, (1, 2), range="v1", source="v1")[0],
            "v2": enumerate_paths(ledrappier, (1, 2), range="v1", source="v2")[0],
            "v3": enumerate_paths(ledrappier, (2, 2), range="v1", source="v3")[0],
            "v4": enumerate_paths(ledrappier, (2, 2), range="v1", source="v4")[0],
        }
        fam = traffic_wavelet_family(ledrappier, led_pf, PreferredPaths("v1", assignment).degrees)
        assert not fam.complete and fam.constant is None
        shapes = [J for (_, J), _ in fam.signals()]
        assert shapes == [(1, 2), (2, 2)]  # graded-lex class order
        supports = [set(np.nonzero(sig)[0]) for _, sig in fam.signals()]
        assert supports[0].isdisjoint(supports[1])
        gram = traffic_gram(fam.measure, fam.signals(), fam.constant)
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
            traffic_wavelet_family(ledrappier, led_pf, prefs.degrees)

    @pytest.mark.parametrize("change, shown", [
        (lambda d: d.pop("v3"), r"missing \['v3'\], extra \[\]"),
        (lambda d: d.update(zz=(1, 2)), r"missing \[\], extra \['zz'\]"),
    ], ids=["missing", "extra"])
    def test_degrees_must_cover_every_vertex_once(self, ledrappier, led_pf, led_prefs, change, shown):
        degrees = led_prefs.degrees
        change(degrees)
        with pytest.raises(ValidationError, match=shown) as exc:
            traffic_wavelet_family(ledrappier, led_pf, degrees)
        assert exc.value.reason == "bad_preferred_path"

    @pytest.mark.parametrize("degree", [(1, 2, 0), (1,), (1, -2)], ids=["long", "short", "negative"])
    def test_malformed_degree_rejected(self, ledrappier, led_pf, led_prefs, degree):
        degrees = {**led_prefs.degrees, "v2": degree}
        with pytest.raises(DegreeRangeError):
            traffic_wavelet_family(ledrappier, led_pf, degrees)

    def test_preferred_paths_degrees(self, ledrappier, led_prefs):
        assert led_prefs.degrees == {w: p.degree for w, p in led_prefs.assignment.items()}
        assert list(led_prefs.degrees) == list(ledrappier.vertices)
        mixed = {"v1": vertex_path(ledrappier, "v1"),
                 "v2": enumerate_paths(ledrappier, (1, 0), range="v1", source="v2")[0]}
        assert PreferredPaths("v1", mixed).degrees == {"v1": (0, 0), "v2": (1, 0)}

    def test_default_chooser_least_graded_lex(self, ledrappier):
        least = least_degrees(ledrappier, "v1")
        assert least["v1"] == (0, 0)
        # v2 is one step away; among the total-1 degrees with a path, the
        # lexicographically least degree wins
        candidates = [d for d in ((0, 1), (1, 0))
                      if enumerate_paths(ledrappier, d, range="v1", source="v2")]
        assert least["v2"] == sorted(candidates)[0]

    def test_default_chooser_unknown_root(self, ledrappier):
        with pytest.raises(CompositionError, match="unknown vertex 'zz'"):
            least_degrees(ledrappier, "zz")

    def test_default_chooser_unreachable_root(self, sphere):
        with pytest.raises(ValidationError) as exc:
            least_degrees(sphere, "u")
        assert exc.value.reason == "bad_preferred_path"


def degree_digest(degrees):
    """sha256 of the degrees as [[vertex, degree], ...] in mapping order."""
    text = json.dumps([[w, list(d)] for w, d in degrees.items()])
    return hashlib.sha256(text.encode()).hexdigest()


class TestDefaultChooserSearch:
    """The breadth-first least degrees against the least-total chooser, and
    against the degrees of the least-word walk they replace (pinned)."""

    @settings(max_examples=40, deadline=None)
    @given(generated_documents(), st.data())
    def test_generated_graphs(self, doc, data):
        graph = load_kgraph(doc)
        TestLeastDegrees.check_against_oracle(graph, data.draw(st.sampled_from(graph.vertices)))

    def test_sixty_vertex_circulant_is_fast(self):
        graph = load_kgraph(twisted_circulant_document(60, (1, 2, 5), (1, 3, 4), 7))
        start = time.perf_counter()
        least = least_degrees(graph, graph.vertices[0])
        assert time.perf_counter() - start < 0.5  # the exhaustive chooser took 45 s on a 2-core host
        assert max(map(sum, least.values())) >= 10
        assert least == {w: p.degree for w, p in least_total_chooser(graph, graph.vertices[0]).items()}

    def test_two_hundred_vertex_circulant_is_fast(self):
        graph = load_kgraph(twisted_circulant_document(200, (1, 2, 5), (1, 3, 4), 7))
        start = time.perf_counter()
        least = least_degrees(graph, graph.vertices[0])
        # 0.04 s on a 2-core host; searching every degree of the least total took 2.6 s
        assert time.perf_counter() - start < 0.2
        assert max(map(sum, least.values())) == 40

    def test_three_hundred_vertex_circulant_prefs_are_pinned(self):
        """The digest of the degrees of the least-word walk's paths."""
        graph = load_kgraph(twisted_circulant_document(300, (1, 2), (1, 3), 4))
        least = least_degrees(graph, graph.vertices[0])
        assert least == enumerated_least_degrees(graph, graph.vertices[0])
        assert degree_digest(least) == "1b10c6bd52da4fe5ef4213889e1f7f9ce70522fbc90eea5c278bcb0e4e90c0b5"
        assert max(map(sum, least.values())) == 100

    def test_thousand_vertex_circulant_prefs_are_pinned(self):
        """The digest of the degrees of the least-word walk's paths."""
        graph = load_kgraph(twisted_circulant_document(1000, (1, 2), (1, 3), 0))
        least = least_degrees(graph, "v0")
        assert degree_digest(least) == "0f850b6fb2cd4cf5b0a2dd0bb6546829ef92272410aa7de359162e5c576887d0"
        assert max(map(sum, least.values())) == 333


@pytest.fixture(scope="module")
def circulant_2000():
    return load_kgraph(twisted_circulant_document(2000, (1, 2), (1, 3), 0))


class TestLeastDegrees:
    """The breadth-first least degrees against the per-degree enumeration
    they replace."""

    @staticmethod
    def check_against_oracle(graph, root):
        expected = enumerated_least_degrees(graph, root)
        unreached = [w for w in graph.vertices if w not in expected]
        if unreached:
            with pytest.raises(ValidationError, match=f"no path from {unreached[0]} to root {root}$"):
                least_degrees(graph, root)
        else:
            assert least_degrees(graph, root) == expected

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
        assert enumerated_least_degrees(graph, "r") == {"r": (0,), "a": (1,)}
        with pytest.raises(ValidationError, match="no path from w2 to root r$"):
            least_degrees(graph, "r")

    def test_two_thousand_vertex_circulant_is_fast(self, circulant_2000):
        start = time.perf_counter()
        least = least_degrees(circulant_2000, "v0")
        # 0.04 s on a 2-core host; one numpy step per degree of each total took 7 s
        assert time.perf_counter() - start < 0.5
        assert max(map(sum, least.values())) == 667

    def test_two_thousand_vertex_circulant_prefs_are_pinned(self, circulant_2000):
        """The digest of the degrees of the least-word walk's paths, which
        were captured from the per-degree enumeration of least degrees."""
        least = least_degrees(circulant_2000, "v0")
        assert degree_digest(least) == "5947632e3afb04ca4607c84a8808d244c74c6cd1807df9d271ab3ca774d2ddcc"


@pytest.fixture(scope="module")
def circulant_3000():
    return load_kgraph(twisted_circulant_document(3000, (1, 37), (1, 101), 0))


class TestPerClassFamily:
    """The family held per degree class against the dense construction it
    replaces (`helpers.dense_traffic_family`), bit for bit."""

    @staticmethod
    def check_against_oracle(graph, pf, degrees):
        try:
            nu, wavelets, constant, complete = dense_traffic_family(graph, pf, degrees)
        except (NoWaveletDegree, NonFiniteResult) as exc:
            with pytest.raises(type(exc), match=str(exc)):
                traffic_wavelet_family(graph, pf, degrees)
            return
        fam = traffic_wavelet_family(graph, pf, degrees)
        assert fam.measure.tobytes() == nu.tobytes()
        signals = list(fam.signals())
        assert [label for label, _ in signals] == [label for label, _ in wavelets]
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(signals, wavelets))
        assert fam.complete == complete
        assert (fam.constant is None) == (constant is None)
        if constant is not None:
            assert fam.constant.tobytes() == constant.tobytes()
        records = [{"kind": "wavelet", "m": m, "shape": list(J), "values": sig.tolist()}
                   for (m, J), sig in wavelets]
        if constant is not None:
            records.append({"kind": "constant", "values": constant.tolist()})
        assert json.dumps(list(fam.to_records())) == json.dumps(records)
        gram = traffic_gram(nu, wavelets, constant)
        assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(family_documents(), st.data())
    def test_generated_and_rank3_graphs_default_prefs(self, doc, data):
        """Tori, twisted circulants and rank-3 skeletons, default preferred
        degrees from a random root."""
        graph = load_kgraph(doc)
        root = data.draw(st.sampled_from(graph.vertices))
        try:
            pf = pf_data(graph)
            degrees = least_degrees(graph, root)
        except (NotStronglyConnected, ValidationError):  # no PF data, or a vertex that cannot reach the root
            assume(False)
        self.check_against_oracle(graph, pf, degrees)

    def test_fixtures(self, lambda3, ledrappier, led_pf, led_prefs, bouquet2, bouquet3):
        """Default degrees from every root, and ledrappier's one complete class."""
        for graph in (lambda3, ledrappier, bouquet2, bouquet3):
            pf = pf_data(graph)
            for root in graph.vertices:
                self.check_against_oracle(graph, pf, least_degrees(graph, root))
        self.check_against_oracle(ledrappier, led_pf, led_prefs.degrees)

    def test_three_thousand_vertex_family_allocates_no_dense_signal(self, circulant_3000):
        """The dense family held 2599 signals of 3000 floats (60 MB traced);
        the classes hold the split nodes of their rows."""
        pf = pf_data(circulant_3000)
        degrees = least_degrees(circulant_3000, "v0")
        tracemalloc.start()
        try:
            fam = traffic_wavelet_family(circulant_3000, pf, degrees)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(nodes.lo) for _, _, nodes in fam.classes) > 2000
        assert peak < 5 * 2 ** 20

    def test_one_class_of_five_thousand_leaves_is_held_as_nodes(self):
        """Default degrees on a 5000-leaf star: one class of 5000 leaves,
        whose dense rows would take 191 MiB; its 4999 nodes take kilobytes."""
        star = load_kgraph(star_document(5000))
        pf, degrees = pf_data(star), least_degrees(star, "r")
        tracemalloc.start()
        try:
            fam = traffic_wavelet_family(star, pf, degrees)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ((J, members, nodes),) = fam.classes
        assert J == (1,) and len(members) == 5000 and len(nodes.lo) == 4999
        assert peak < 5 * 2 ** 20
        assert nodes.residual(fam.measure[members]) < 1e-10
