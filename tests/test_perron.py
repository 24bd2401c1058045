import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kgraphwave
from kgraphwave import (
    DegenerateVertexCount,
    HasSources,
    NotStronglyConnected,
    ResidualTooLarge,
    hausdorff_dimension,
    is_strongly_connected,
    load_kgraph,
    pf_data,
    rational_pf_data,
    vertex_matrices,
)
from kgraphwave.cli import main
from kgraphwave.perron import has_sources
from helpers import (
    dense_pf_data,
    family_documents,
    generated_documents,
    patch_noncommuting_pair,
    torus_document,
    twisted_circulant_document,
)


def one_way_pair():
    return load_kgraph({
        "k": 1, "vertices": ["v", "w"],
        "edges": [{"id": "e", "color": 1, "source": "v", "range": "w"},
                  {"id": "l", "color": 1, "source": "v", "range": "v"},
                  {"id": "m", "color": 1, "source": "w", "range": "w"}],
        "squares": []})


def fibonacci_graph():
    # 1-graph with vertex matrix [[1,1],[1,0]]
    return load_kgraph({
        "k": 1, "vertices": ["v", "w"],
        "edges": [{"id": "lv", "color": 1, "source": "v", "range": "v"},
                  {"id": "a", "color": 1, "source": "v", "range": "w"},
                  {"id": "b", "color": 1, "source": "w", "range": "v"}],
        "squares": []})


def full_shift_graph(n):
    return load_kgraph({
        "k": 1, "vertices": [str(i) for i in range(n)],
        "edges": [{"id": f"e{i}{j}", "color": 1, "source": str(j), "range": str(i)}
                  for i in range(n) for j in range(n)],
        "squares": []})


class TestStrongConnectivity:
    def test_lambda3(self, lambda3):
        assert is_strongly_connected(lambda3)

    def test_ledrappier_with_bfs_oracle(self, ledrappier):
        assert is_strongly_connected(ledrappier)
        # oracle: queue-based reachability over the raw edge records
        succ = {}
        for e in ledrappier.edges.values():
            succ.setdefault(e.source, set()).add(e.range)
        for start in ledrappier.vertices:
            seen, queue = {start}, [start]
            while queue:
                for nxt in succ.get(queue.pop(0), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            assert seen == set(ledrappier.vertices)

    def test_one_way_pair_not_connected(self):
        assert not is_strongly_connected(one_way_pair())

    def test_no_vertices(self):
        assert is_strongly_connected(load_kgraph({"k": 1, "vertices": [], "edges": [], "squares": []}))

    def test_pf_data_needs_a_vertex(self):
        graph = load_kgraph({"k": 2, "vertices": [], "edges": [], "squares": []})
        with pytest.raises(DegenerateVertexCount, match="at least one vertex"):
            pf_data(graph)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))))
    def test_random_digraphs_against_all_pairs_closure(self, case):
        n, arcs = case
        graph = load_kgraph({
            "k": 1, "vertices": [f"v{i}" for i in range(n)],
            "edges": [{"id": f"e{j}", "color": 1, "source": f"v{s}", "range": f"v{r}"}
                      for j, (s, r) in enumerate(arcs)],
            "squares": []})
        # oracle: reflexive-transitive closure of the adjacency matrix
        reach = np.eye(n, dtype=bool)
        for s, r in arcs:
            reach[r, s] = True
        for _ in range(n):
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        assert is_strongly_connected(graph) == bool(reach.all())


class TestPFData:
    def test_ledrappier(self, ledrappier):
        pf = pf_data(ledrappier)
        assert np.allclose(pf.rho, [2.0, 2.0], atol=1e-12)
        assert np.allclose(pf.x_lambda, 0.25, atol=1e-12)

    def test_lambda3(self, lambda3):
        pf = pf_data(lambda3)
        assert np.allclose(pf.rho, [1.0, 2.0], atol=1e-12)
        assert np.allclose(pf.x_lambda, [1.0], atol=1e-12)

    def test_bouquet(self, bouquet3):
        pf = pf_data(bouquet3)
        assert np.allclose(pf.rho, [3.0], atol=1e-12)
        assert np.allclose(pf.x_lambda, [1.0], atol=1e-12)

    def test_residuals(self, lambda3, ledrappier, bouquet2):
        for graph in (lambda3, ledrappier, bouquet2):
            pf = pf_data(graph)
            for m, r in zip(vertex_matrices(graph), pf.rho):
                assert np.max(np.abs(m @ pf.x_lambda - r * pf.x_lambda)) < 1e-10

    def test_no_common_eigenvector_raises(self, monkeypatch, ledrappier):
        # A_1 A_2 + I power-iterates to the vector 1, on which
        # A_2 = diag(1, 2, 3, 4) has Rayleigh quotients 1..4
        patch_noncommuting_pair(monkeypatch, ledrappier)
        with pytest.raises(ResidualTooLarge, match="color 2: Rayleigh spread"):
            pf_data(ledrappier)

    def test_not_strongly_connected(self, sphere):
        with pytest.raises(NotStronglyConnected):
            pf_data(sphere)
        with pytest.raises(NotStronglyConnected):
            pf_data(one_way_pair())

    def test_has_sources(self):
        # strongly connected through color 1 but no color-2 edges at all
        doc = {"k": 2, "vertices": ["v"],
               "edges": [{"id": "e", "color": 1, "source": "v", "range": "v"}],
               "squares": []}
        with pytest.raises(HasSources):
            pf_data(load_kgraph(doc))

    def test_periodic_skeleton_converges(self):
        # pure 2-cycle: the product matrix alone would oscillate
        doc = {"k": 1, "vertices": ["v", "w"],
               "edges": [{"id": "a", "color": 1, "source": "v", "range": "w"},
                         {"id": "b", "color": 1, "source": "w", "range": "v"}],
               "squares": []}
        pf = pf_data(load_kgraph(doc))
        assert np.allclose(pf.rho, [1.0], atol=1e-12)
        assert np.allclose(pf.x_lambda, [0.5, 0.5], atol=1e-12)

    def test_relabeling_equivariance(self, ledrappier):
        doc = ledrappier.to_document()
        order = [2, 0, 3, 1]
        doc["vertices"] = [doc["vertices"][i] for i in order]
        shuffled = load_kgraph(doc)
        pf = pf_data(ledrappier)
        pf2 = pf_data(shuffled)
        for v in ledrappier.vertices:
            assert pf2.x_lambda[shuffled.vertex_index[v]] == pytest.approx(
                pf.x_lambda[ledrappier.vertex_index[v]], abs=1e-12)

    def test_product_radius_factorizes(self, lambda3, ledrappier):
        for graph in (lambda3, ledrappier):
            pf = pf_data(graph)
            mats = vertex_matrices(graph)
            prod = mats[0]
            for m in mats[1:]:
                prod = prod @ m
            rho_prod = max(abs(np.linalg.eigvals(prod.astype(float))))
            assert abs(rho_prod - np.prod(pf.rho)) < 1e-10

    def test_rational_mode(self, ledrappier, lambda3):
        rho, x = rational_pf_data(ledrappier)
        assert rho == (2, 2)
        assert x == (Fraction(1, 4),) * 4
        rho, x = rational_pf_data(lambda3)
        assert rho == (1, 2) and x == (Fraction(1),)

    def test_rational_mode_rejects_irrational(self):
        with pytest.raises(ValueError):
            rational_pf_data(fibonacci_graph())


def same_bits(a, b):
    return a.rho.tobytes() == b.rho.tobytes() and a.x_lambda.tobytes() == b.x_lambda.tobytes()


def one_cycle_document(n, extra):
    """The 1-graph of the cycle v0 -> v1 -> ... -> v{n-1} -> v0 and the
    ``extra`` arcs (source, range) by vertex index."""
    arcs = [(i, (i + 1) % n) for i in range(n)] + list(extra)
    return {"k": 1, "vertices": [f"v{i}" for i in range(n)],
            "edges": [{"id": f"e{j}", "color": 1, "source": f"v{s}", "range": f"v{r}"}
                      for j, (s, r) in enumerate(arcs)],
            "squares": []}


@st.composite
def one_graphs(draw):
    """A 1-graph on 2 to 6 vertices: a cycle through all of them, so it is
    strongly connected with no sources, and up to 12 more edges."""
    n = draw(st.integers(2, 6))
    return one_cycle_document(n, draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                               max_size=12)))


class TestAgainstDenseProduct:
    """`pf_data` against `dense_pf_data`, the iteration on the dense product
    matrix that it replaced.  The bits agree where every sum of the
    iteration is exact either way: on the fixtures, the tori and the
    benchmark circulants.  Elsewhere the bincount sums run in edge order and
    the dense products in BLAS order, and the last bit may move."""

    @pytest.mark.parametrize("name", ["ledrappier", "lambda3", "bouquet-2", "bouquet-3"])
    def test_fixtures_bit_for_bit(self, name):
        graph = load_kgraph(kgraphwave.fixture_path(name))
        assert same_bits(pf_data(graph), dense_pf_data(graph))

    @pytest.mark.parametrize("make,args", [
        (torus_document, (16, 16)), (torus_document, (3, 7)),
        *((twisted_circulant_document, (n, (1, 2), (1, 3), seed)) for n in (16, 40, 300) for seed in (0, 5))],
        ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else value.__name__)
    def test_tori_and_benchmark_circulants_bit_for_bit(self, make, args):
        graph = load_kgraph(make(*args))
        assert same_bits(pf_data(graph), dense_pf_data(graph))

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(generated_documents(), family_documents()))
    def test_generated_graphs_within_the_last_bit(self, doc):
        graph = load_kgraph(doc)
        if not is_strongly_connected(graph) or has_sources(graph):
            with pytest.raises((NotStronglyConnected, HasSources)):
                pf_data(graph)
            return
        pf = pf_data(graph)
        want = dense_pf_data(graph, steps=pf.iterations)
        assert np.max(np.abs(pf.x_lambda - want.x_lambda)) <= 1e-15
        assert np.max(np.abs(pf.rho - want.rho) / want.rho) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(one_graphs())
    def test_nonuniform_one_graphs_within_the_last_bit(self, doc):
        # the two iterations run the same number of steps: stopped each on
        # its own test, they may stop one step apart
        graph = load_kgraph(doc)
        pf = pf_data(graph)
        want = dense_pf_data(graph, steps=pf.iterations)
        assume(np.ptp(want.x_lambda) > 0)
        assert np.max(np.abs(pf.x_lambda - want.x_lambda)) <= 1e-15
        assert np.max(np.abs(pf.rho - want.rho) / want.rho) <= 1e-15


class TestRelativeStop:
    def test_cycle_with_loops_converges_at_its_small_weights(self, tmp_path):
        # the 6-cycle with four more loops at v0: x runs from 0.75 down to
        # 7.3e-4, and an absolute step of 1e-13 stopped the iteration while
        # the small entries still moved, at a Rayleigh spread of 1.12e-10
        doc = one_cycle_document(6, [(0, 0)] * 4)
        graph = load_kgraph(doc)
        pf = pf_data(graph)
        assert pf.x_lambda.max() > 1000 * pf.x_lambda.min()
        a = vertex_matrices(graph)[0].astype(float)
        assert pf.rho[0] == pytest.approx(max(abs(np.linalg.eigvals(a))), rel=1e-12)
        assert np.max(np.abs(a @ pf.x_lambda - pf.rho[0] * pf.x_lambda)) < 1e-12
        path = tmp_path / "loops.kg"
        path.write_text(json.dumps(doc))
        assert main(["pf", str(path)]) == 0

    def test_step_cap_is_a_numeric_error(self, tmp_path, monkeypatch, capsys):
        # the cycle above takes more than one step: with the cap at one the
        # iteration gives up, and `pf` exits 4 with one record
        doc = one_cycle_document(6, [(0, 0)] * 4)
        assert pf_data(load_kgraph(doc)).iterations > 1
        path = tmp_path / "loops.kg"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(kgraphwave.perron, "PF_MAX_STEPS", 1)
        with pytest.raises(SystemExit) as exc:
            main(["pf", str(path)])
        out, err = capsys.readouterr()
        assert exc.value.code == 4 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": "numeric", "message": "power iteration did not converge in 1 steps"}

    def test_uniform_vectors_stop_at_the_first_step(self, ledrappier, lambda3):
        assert pf_data(ledrappier).iterations == pf_data(lambda3).iterations == 1


class TestHausdorffDimension:
    def test_two_vertex_full_shift(self):
        assert hausdorff_dimension(full_shift_graph(2)) == pytest.approx(1.0, abs=1e-12)

    def test_reuses_given_pf_data(self, monkeypatch, ledrappier):
        pf = pf_data(ledrappier)
        monkeypatch.setattr(kgraphwave.perron, "pf_data", None)  # a second solve would fail
        assert hausdorff_dimension(ledrappier, pf) == pytest.approx(0.5, abs=1e-12)

    def test_ledrappier_with_eigen_oracle(self, ledrappier):
        s = hausdorff_dimension(ledrappier)
        a1, a2 = (m.astype(float) for m in vertex_matrices(ledrappier))
        rho = max(abs(np.linalg.eigvals(a1 @ a2)))
        assert s == pytest.approx(np.log(rho) / (2 * np.log(4)), abs=1e-12)
        assert s == pytest.approx(0.5, abs=1e-12)

    def test_zero_one_matrix_graph_matches_radius(self):
        graph = fibonacci_graph()
        s = hausdorff_dimension(graph)
        rho = max(abs(np.linalg.eigvals(
            vertex_matrices(graph)[0].astype(float))))
        assert 2 ** s == pytest.approx(rho, abs=1e-10)

    def test_single_vertex_rejected(self, bouquet2):
        with pytest.raises(DegenerateVertexCount):
            hausdorff_dimension(bouquet2)

    def test_warns_on_multi_edges(self):
        doc = {"k": 1, "vertices": ["v", "w"],
               "edges": [{"id": "a", "color": 1, "source": "v", "range": "w"},
                         {"id": "b", "color": 1, "source": "v", "range": "w"},
                         {"id": "c", "color": 1, "source": "w", "range": "v"}],
               "squares": []}
        with pytest.warns(UserWarning):
            hausdorff_dimension(load_kgraph(doc))
