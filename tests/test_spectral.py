import math
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import kgraphwave.spectral
from kgraphwave import (
    AsymmetricInput,
    DegenerateVertexCount,
    DimensionMismatch,
    DivergentIntegral,
    GridTooCoarse,
    KernelPiece,
    KernelSpec,
    NegativeArgument,
    NonFiniteResult,
    ResidualTooLarge,
    SpectralData,
    cg_constant,
    default_kernel,
    default_tgrid,
    eig_sym,
    gft,
    kernel_eval,
    kgraph_laplacian,
    laplacian_entries,
    load_kgraph,
    localization_probe,
    reconstruct,
    spectral_wavelet,
    vertex_matrices,
)
from helpers import (
    graph_document,
    cg_constant_numeric,
    entry_incidence_matrices,
    generated_documents,
    gram_laplacian,
    loop_incidence_matrices,
    loop_reconstruct,
    loop_sign_normalize,
    loop_vertex_matrices,
    probe_kernel,
    quadrature_reconstruct,
    torus_document,
    twisted_circulant_document,
    wavelet_operator,
)

REF_M1 = [
    [0, 1, 0, 0, 0, 0, 0, -1],
    [0, -1, 1, -1, 1, 0, 0, 0],
    [0, 0, 0, 0, -1, 0, 1, 0],
    [0, 0, -1, 1, 0, 0, -1, 1],
]
REF_M2 = [
    [-1, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, -1, 1, -1, 1, 0, 0],
    [1, 0, 0, 0, 1, -1, -1, 0],
    [0, 0, 0, -1, 0, 0, 1, 0],
]
REF_DELTA = [
    [4, -2, -1, -1],
    [-2, 8, -3, -3],
    [-1, -3, 6, -2],
    [-1, -3, -2, 6],
]


def path_graph(n_edges):
    return load_kgraph({
        "k": 1,
        "vertices": [f"p{i}" for i in range(n_edges + 1)],
        "edges": [{"id": f"e{i}", "color": 1, "source": f"p{i}", "range": f"p{i+1}"}
                  for i in range(n_edges)],
        "squares": []})


@pytest.fixture(scope="module")
def led_spectral(ledrappier):
    return eig_sym(kgraph_laplacian(ledrappier))


class TestIncidenceAndLaplacian:
    def test_ledrappier_reference_matrices(self, ledrappier):
        mats, orders = entry_incidence_matrices(ledrappier)
        assert orders[0] == ("a", "d", "f", "g", "k", "l", "n", "p")
        assert orders[1] == ("b", "c", "e", "h", "i", "j", "m", "o")
        assert mats[0].tolist() == REF_M1
        assert mats[1].tolist() == REF_M2
        assert kgraph_laplacian(ledrappier).tolist() == REF_DELTA

    def test_loops_give_zero_columns(self, bouquet3):
        mats, _ = entry_incidence_matrices(bouquet3)
        assert np.all(mats[0] == 0)
        assert np.all(kgraph_laplacian(bouquet3) == 0)

    def test_single_edge_column(self):
        g = load_kgraph({
            "k": 1, "vertices": ["v", "w"],
            "edges": [{"id": "e", "color": 1, "source": "v", "range": "w"}],
            "squares": []})
        mats, _ = entry_incidence_matrices(g)
        assert mats[0].tolist() == [[-1], [1]]

    def test_summands_psd(self, ledrappier):
        mats, _ = entry_incidence_matrices(ledrappier)
        for m in mats:
            eigs = np.linalg.eigvalsh((m @ m.T).astype(float))
            assert eigs.min() > -1e-12

    def test_annihilates_constants(self, lambda3, ledrappier, sphere):
        for graph in (lambda3, ledrappier, sphere):
            delta = kgraph_laplacian(graph)
            ones = np.ones(len(graph.vertices))
            assert np.max(np.abs(delta @ ones)) == 0

    def test_edge_counts_equal_gram_sum(self):
        graph = load_kgraph(twisted_circulant_document(40, (0, 1, 2), (1, 3), 3))
        delta = kgraph_laplacian(graph)
        assert delta.dtype == np.int64
        assert np.array_equal(delta, sum(m @ m.T for m in entry_incidence_matrices(graph)[0]))

    def test_orientation_invariance(self, ledrappier):
        doc = graph_document(ledrappier)
        flipped = []
        for rec in doc["edges"]:
            rec = dict(rec)
            rec["source"], rec["range"] = rec["range"], rec["source"]
            flipped.append(rec)
        doc["edges"] = flipped
        # opposite category: words reverse, so the descending side (read
        # backwards) becomes the new ascending side
        doc["squares"] = [{"left": s["right"][::-1], "right": s["left"][::-1]}
                          for s in doc["squares"]]
        g2 = load_kgraph(doc)
        d2 = kgraph_laplacian(g2)
        assert d2.tolist() == REF_DELTA


class TestEigSym:
    def test_ledrappier_eigendata(self, led_spectral):
        assert np.allclose(led_spectral.eigenvalues,
                           [0.0, 5.17, 8.0, 10.83], atol=0.01)
        reference = {
            0.0: [1, 1, 1, 1],
            5.17: [-0.85, 0.15, 0.35, 0.35],
            10.83: [-0.15, 0.85, -0.35, -0.35],
            8.0: [0, 0, -0.71, 0.71],
        }
        for lam, vec in reference.items():
            idx = int(np.argmin(np.abs(led_spectral.eigenvalues - lam)))
            got = led_spectral.eigenvectors[:, idx]
            ref = np.array(vec, dtype=float)
            ref /= np.linalg.norm(ref)
            assert min(np.max(np.abs(got - ref)), np.max(np.abs(got + ref))) < 0.01

    def test_residuals_and_orthonormality(self, led_spectral):
        sd = led_spectral
        assert np.max(np.abs(sd.laplacian @ sd.eigenvectors
                             - sd.eigenvectors * sd.eigenvalues)) < 1e-10
        assert np.max(np.abs(sd.eigenvectors.T @ sd.eigenvectors - np.eye(4))) < 1e-10

    def test_identity_matrix(self):
        sd = eig_sym(np.eye(3))
        assert np.allclose(sd.eigenvalues, 1.0)
        assert np.allclose(np.abs(sd.eigenvectors), np.eye(3))

    def test_sign_convention(self, led_spectral):
        for col in led_spectral.eigenvectors.T:
            lead = next(x for x in col if abs(x) > 1e-12)
            assert lead > 0

    def test_empty_matrix_is_named(self):
        with pytest.raises(DegenerateVertexCount, match=r"empty \(0 x 0\) matrix"):
            eig_sym(np.zeros((0, 0)))
        graph = load_kgraph({"k": 2, "vertices": [], "edges": [], "squares": []})
        with pytest.raises(DegenerateVertexCount):
            eig_sym(kgraph_laplacian(graph))

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricInput):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigen_residual_raises(self, monkeypatch):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0] + 1e-6, eigh(m)[1]))
        with pytest.raises(ResidualTooLarge, match="eigen residual"):
            eig_sym(np.diag([1.0, 2.0, 3.0]))

    def test_orthonormality_raises(self, monkeypatch):
        # doubled vectors still solve the eigen equations but are not unit
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0], 2.0 * eigh(m)[1]))
        with pytest.raises(ResidualTooLarge, match="orthonormal"):
            eig_sym(np.diag([1.0, 2.0, 3.0]))


class TestGFT:
    def test_eigenvector_maps_to_basis(self, led_spectral):
        for i in range(4):
            coeffs = gft(led_spectral, led_spectral.eigenvectors[:, i])
            expected = np.zeros(4)
            expected[i] = 1.0
            assert np.allclose(coeffs, expected, atol=1e-12)

    def test_constant_concentrates_at_zero_mode(self, led_spectral):
        coeffs = gft(led_spectral, np.ones(4))
        assert abs(coeffs[0]) > 1.0
        assert np.max(np.abs(coeffs[1:])) < 1e-12

    def test_round_trip_and_parseval(self, led_spectral):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = rng.standard_normal(4)
            coeffs = gft(led_spectral, f)
            assert np.max(np.abs(led_spectral.eigenvectors @ coeffs - f)) < 1e-12
            assert np.linalg.norm(coeffs) == pytest.approx(
                np.linalg.norm(f), abs=1e-12)

    def test_dimension_mismatch(self, led_spectral):
        with pytest.raises(DimensionMismatch):
            gft(led_spectral, np.ones(5))


class TestKernel:
    def test_boundary_values(self):
        k = default_kernel()
        assert kernel_eval(k, 0.0) == 0.0
        assert kernel_eval(k, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert kernel_eval(k, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_c1_at_breakpoints(self):
        k = default_kernel()
        for x in (1.0, 2.0):
            below, above = x - 1e-12, x
            assert abs(kernel_eval(k, below) - kernel_eval(k, above)) < 1e-11
            assert abs(kernel_eval(k, below, 1) - kernel_eval(k, above, 1)) < 1e-10
        # derivative values from differentiating the piece polynomials
        assert kernel_eval(k, 1.0, 1) == pytest.approx(2.0, abs=1e-12)
        assert kernel_eval(k, 2.0, 1) == pytest.approx(-1.0, abs=1e-12)

    def test_positive_on_grid(self):
        k = default_kernel()
        xs = np.geomspace(1e-6, 1e6, 2000)
        assert np.all(kernel_eval(k, xs) > 0)

    def test_vanishing_order_surrogate(self):
        # g(x)/x^M approaches C/M! = 1 near zero
        k = default_kernel()
        xs = np.geomspace(1e-8, 1e-2, 50)
        ratios = kernel_eval(k, xs) / xs ** k.vanishing_order
        assert np.allclose(ratios, 1.0, atol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(NegativeArgument):
            kernel_eval(default_kernel(), -0.5)


class TestCg:
    def test_head_and_tail_closed_forms(self):
        head = KernelSpec((KernelPiece(0.0, 1.0, "poly", (0.0, 0.0, 1.0)),), 2)
        assert cg_constant(head) == pytest.approx(0.25, abs=1e-15)
        tail = KernelSpec((KernelPiece(2.0, math.inf, "power", (4.0, -2.0)),), 0)
        assert cg_constant(tail) == pytest.approx(0.25, abs=1e-15)

    def test_two_quadratures_agree(self):
        for kernel in (default_kernel(), probe_kernel()):
            closed = cg_constant(kernel)
            numeric = cg_constant_numeric(kernel)
            assert abs(closed - numeric) < 1e-8 * closed

    def test_scipy_cross_check(self):
        k = default_kernel()
        total = 0.0
        for piece in k.pieces:
            val, _ = scipy.integrate.quad(
                lambda x, p=piece: p.eval(np.array([x]))[0] ** 2 / x,
                piece.lo if piece.lo > 0 else 1e-12,
                piece.hi if math.isfinite(piece.hi) else np.inf, limit=200)
            total += val
        assert abs(total - cg_constant(k)) < 1e-7

    def test_scaling_is_quadratic(self):
        k = default_kernel()
        scaled = KernelSpec(
            tuple(KernelPiece(p.lo, p.hi, p.kind,
                              tuple(3.0 * c for c in p.params) if p.kind == "poly"
                              else (3.0 * p.params[0], p.params[1]))
                  for p in k.pieces),
            k.vanishing_order)
        assert cg_constant(scaled) == pytest.approx(9.0 * cg_constant(k), rel=1e-12)

    def test_divergent_kernels_rejected(self):
        bad_tail = KernelSpec((KernelPiece(1.0, math.inf, "power", (1.0, 0.5)),), 0)
        with pytest.raises(DivergentIntegral):
            cg_constant(bad_tail)
        bad_head = KernelSpec((KernelPiece(0.0, 1.0, "poly", (1.0,)),), 0)
        with pytest.raises(DivergentIntegral):
            cg_constant(bad_head)
        # a power p <= 0 from 0: the integrand x^(2p-1) diverges there
        for piece in (KernelPiece(0.0, math.inf, "power", (1.0, -1.0)),
                      KernelPiece(0.0, 1.0, "power", (1.0, -1.0)),
                      KernelPiece(0.0, 1.0, "power", (1.0, 0.0))):
            with pytest.raises(DivergentIntegral):
                cg_constant(KernelSpec((piece,), 0))


class TestSpectralWavelets:
    def test_zero_scale_gives_zero(self, led_spectral):
        psi = spectral_wavelet(led_spectral, default_kernel(), 0.0, 0)
        assert np.max(np.abs(psi)) == 0.0

    def test_full_support_on_ledrappier(self, led_spectral):
        k = default_kernel()
        for t in (0.05, 0.2, 1.0):
            for n in range(4):
                psi = spectral_wavelet(led_spectral, k, t, n)
                assert np.min(np.abs(psi)) > 1e-8

    def test_symmetry_in_center_and_probe(self, led_spectral):
        k = default_kernel()
        for t in (0.1, 0.7):
            mat = np.array([spectral_wavelet(led_spectral, k, t, n) for n in range(4)])
            assert np.max(np.abs(mat - mat.T)) < 1e-12

    def test_frame_identity(self, led_spectral):
        k = default_kernel()
        sd = led_spectral
        for t in (0.05, 0.3, 2.0):
            op = wavelet_operator(sd, k, t)
            lhs = op @ op                      # sum_n psi <psi, .>
            gains = kernel_eval(k, t * sd.eigenvalues) ** 2
            rhs = (sd.eigenvectors * gains[None, :]) @ sd.eigenvectors.T
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestOverflowingScales:
    """A scale whose product with an eigenvalue passes the float range is a
    NonFiniteResult before any kernel evaluation, with no numpy warning."""

    @pytest.mark.filterwarnings("error")
    def test_each_entry_point(self, led_spectral):
        kernel = default_kernel()
        with pytest.raises(NonFiniteResult, match="scale 1e\\+308 times eigenvalue"):
            spectral_wavelet(led_spectral, kernel, 1e308, 0)
        with pytest.raises(NonFiniteResult):
            spectral_wavelet(led_spectral, kernel, 1e308, led_spectral.n - 1)
        with pytest.raises(NonFiniteResult):
            localization_probe(led_spectral, kernel, 0, 1, [0.5, 1e308])
        with pytest.raises(NonFiniteResult):
            reconstruct(led_spectral, kernel, np.arange(4.0), np.geomspace(1e-5, 1e308, 50))

    def test_finite_products_pass_the_check(self, led_spectral):
        psi = spectral_wavelet(led_spectral, default_kernel(), 0.5, 0)
        assert np.all(np.isfinite(psi))


class TestLargeFiniteScales:
    """The zero eigenvalue's round-off below zero (-1.1e-15 on ledrappier
    here) is set to 0 before it is scaled, so a large scale whose products
    stay in the float range is no NegativeArgument."""

    @pytest.mark.filterwarnings("error")
    def test_each_entry_point(self, led_spectral):
        assert -1e-9 <= led_spectral.eigenvalues[0] < 0  # the case at hand
        kernel = default_kernel()
        for t in (1e300, 1.6e307):
            for n in range(led_spectral.n):
                assert np.all(np.isfinite(spectral_wavelet(led_spectral, kernel, t, n)))
        probe = localization_probe(led_spectral, kernel, 0, 2, [0.5, 1.6e307])
        assert all(math.isfinite(r) for _, r in probe.rows)

    @pytest.mark.parametrize("t", [1e-3, 0.5, 2.0, 1e5, 9e5])
    def test_scales_that_worked_are_unchanged(self, led_spectral, t):
        # t * lambda_0 stays within the kernel's clamp: the gains of the
        # eigenvalues as they are
        kernel = default_kernel()
        spec = led_spectral
        gains = kernel_eval(kernel, t * spec.eigenvalues)
        for n in range(spec.n):
            assert np.array_equal(spectral_wavelet(spec, kernel, t, n),
                                  spec.eigenvectors @ (gains * spec.eigenvectors[n, :]))

    def test_negative_eigenvalues_past_round_off_still_raise(self, led_spectral):
        values = led_spectral.eigenvalues.copy()
        values[0] = -1e-6
        spec = SpectralData(led_spectral.laplacian, values, led_spectral.eigenvectors)
        with pytest.raises(NegativeArgument):
            spectral_wavelet(spec, default_kernel(), 1.0, 0)


class TestReconstruction:
    def test_mean_zero_signals(self, led_spectral):
        k = default_kernel()
        rng = np.random.default_rng(3)
        v = led_spectral.eigenvectors
        for _ in range(3):
            coeffs = rng.standard_normal(4)
            coeffs[0] = 0.0
            f = v @ coeffs
            rec = reconstruct(led_spectral, k, f)
            assert np.linalg.norm(rec - f) < 1e-3 * np.linalg.norm(f)

    def test_constant_annihilated(self, led_spectral):
        rec = reconstruct(led_spectral, default_kernel(), np.ones(4))
        assert np.linalg.norm(rec) < 1e-12

    def test_zero_maps_to_zero(self, led_spectral):
        rec = reconstruct(led_spectral, default_kernel(), np.zeros(4))
        assert np.max(np.abs(rec)) == 0.0

    def test_coarse_grid_rejected(self, led_spectral):
        grid = np.geomspace(1e-3, 1e-1, 10)
        with pytest.raises(GridTooCoarse):
            reconstruct(led_spectral, default_kernel(), np.ones(4), grid)

    def test_nonvanishing_kernel_rejected(self, led_spectral):
        k = KernelSpec((KernelPiece(0.0, math.inf, "power", (1.0, -1.0)),), 0)
        with pytest.raises(DivergentIntegral):
            reconstruct(led_spectral, k, np.ones(4))


class TestDiagonalReconstruction:
    """`reconstruct` scales each eigencomponent by its grid energy; the
    scale-by-scale sum of dense wavelet operators is the oracle."""

    @pytest.mark.parametrize("doc", [
        "ledrappier",
        torus_document(4, 5),
        twisted_circulant_document(12, (1, 2), (1, 3), 5),
    ], ids=["ledrappier", "torus 4x5", "circulant 12"])
    def test_agrees_with_operator_quadrature(self, ledrappier, doc):
        graph = ledrappier if doc == "ledrappier" else load_kgraph(doc)
        spec = eig_sym(kgraph_laplacian(graph))
        f = np.random.default_rng(spec.n).standard_normal(spec.n)
        rec = reconstruct(spec, default_kernel(), f)
        assert np.max(np.abs(rec - quadrature_reconstruct(spec, default_kernel(), f))) < 1e-12

    def test_agrees_on_a_custom_grid(self, led_spectral):
        grid = np.geomspace(1e-5, 2e3, 1500)
        f = np.array([0.5, -1.0, 2.0, 0.25])
        rec = reconstruct(led_spectral, default_kernel(), f, grid)
        assert np.max(np.abs(rec - quadrature_reconstruct(led_spectral, default_kernel(), f, grid))) < 1e-12

    def test_roundoff_negative_zero_eigenvalue_at_large_scales(self, led_spectral):
        # eigh can return the zero eigenvalue as -7e-16; at t = 1e7 the
        # kernel argument -7e-9 lies below kernel_eval's -1e-9 clamp.  The
        # eigenvalue gets gain 0 and never reaches the kernel.
        values = led_spectral.eigenvalues.copy()
        values[0] = -7e-16
        spec = SpectralData(led_spectral.laplacian, values, led_spectral.eigenvectors)
        grid = np.geomspace(1e-4 / values[-1], 1e7, 3000)
        f = np.array([1.0, 2.0, -0.5, 0.25])
        rec = reconstruct(spec, default_kernel(), f, grid)
        target = f - led_spectral.eigenvectors[:, 0] * (led_spectral.eigenvectors[:, 0] @ f)
        assert np.linalg.norm(rec - target) < 1e-3 * np.linalg.norm(target)


class TestLocalization:
    def test_exact_zero_beyond_square_reach(self):
        # the default kernel is exactly x^2 below 1: at small t the wavelet
        # vanishes identically past distance 2
        sd = eig_sym(kgraph_laplacian(path_graph(5)))
        probe = localization_probe(sd, default_kernel(), 0, 3,
                                   np.geomspace(1e-3, 1e-2, 6))
        assert all(r < 1e-12 for _, r in probe.rows)

    def test_quadratic_decay_with_probe_kernel(self):
        sd = eig_sym(kgraph_laplacian(path_graph(5)))
        probe = localization_probe(sd, probe_kernel(), 0, 3,
                                   np.geomspace(3e-3, 3e-2, 8))
        assert probe.slope == pytest.approx(2.0, abs=0.1)
        ratios = [r for _, r in probe.rows]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))  # monotone in t

    def test_self_localization_bounded_below(self):
        sd = eig_sym(kgraph_laplacian(path_graph(5)))
        probe = localization_probe(sd, probe_kernel(), 0, 0,
                                   np.geomspace(1e-3, 1e-2, 6))
        assert min(r for _, r in probe.rows) > 0.1

    def test_table_shape(self, led_spectral):
        ts = [0.5, 0.25, 0.125]
        probe = localization_probe(led_spectral, default_kernel(), 0, 2, ts)
        assert [t for t, _ in probe.rows] == ts
        assert probe.slope is not None


def test_default_tgrid_span(led_spectral):
    grid = default_tgrid(led_spectral)
    assert len(grid) == 2000
    assert grid[0] == pytest.approx(1e-4 / led_spectral.eigenvalues[-1])
    positive = led_spectral.eigenvalues[led_spectral.eigenvalues > 1e-12]
    assert grid[-1] == pytest.approx(1e4 / positive.min())


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (GridTooCoarse, DivergentIntegral) as exc:
        return type(exc), str(exc)


class TestEdgeArraysAgainstLoops:
    """The edge-array Laplacian, incidence and vertex matrices, the argmax
    sign flip and the blocked grid energies, bit for bit against the loops
    they replace (the oracles in helpers)."""

    @settings(max_examples=60, deadline=None)
    @given(generated_documents())
    def test_matrices(self, doc):
        graph = load_kgraph(doc)
        delta = kgraph_laplacian(graph)
        assert delta.dtype == np.int64 and np.array_equal(delta, gram_laplacian(graph))
        mats, orders = entry_incidence_matrices(graph)
        loop_mats, loop_orders = loop_incidence_matrices(graph)
        assert orders == loop_orders
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(mats, loop_mats))
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(vertex_matrices(graph), loop_vertex_matrices(graph)))

    @staticmethod
    def check_entries(graph):
        """The nonzeros of the float Gram sum, in row-major order."""
        rows, cols, values = laplacian_entries(graph)
        dense = gram_laplacian(graph)
        want_rows, want_cols = np.nonzero(dense)
        assert values.dtype == np.int64
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert np.array_equal(values, dense[want_rows, want_cols])

    @settings(max_examples=60, deadline=None)
    @given(generated_documents())
    def test_laplacian_entries(self, doc):
        self.check_entries(load_kgraph(doc))

    def test_laplacian_entries_of_bouquets_and_the_empty_graph(self, bouquet2, bouquet3):
        empty = load_kgraph({"k": 2, "vertices": [], "edges": [], "squares": []})
        for graph in (bouquet2, bouquet3, empty):  # loops only, and no vertex
            self.check_entries(graph)
            assert not len(laplacian_entries(graph)[0])

    @settings(max_examples=60, deadline=None)
    @given(generated_documents())
    def test_sign_flip(self, doc):
        delta = kgraph_laplacian(load_kgraph(doc)).astype(float)
        vectors = eig_sym(delta).eigenvectors
        assert np.array_equal(vectors, loop_sign_normalize(np.linalg.eigh(delta)[1]))

    @pytest.mark.parametrize("angle", [1e-10, -1e-10, 1e-13, 0.0])
    def test_sign_flip_at_the_visibility_threshold(self, angle):
        # a rotation by `angle` in the first two coordinates: the eigenvector
        # (-sin, cos) leads with an entry just above, or at or below, 1e-12
        q = np.eye(4)
        q[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        delta = q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q.T
        delta = (delta + delta.T) / 2
        vectors = eig_sym(delta).eigenvectors
        assert np.array_equal(vectors, loop_sign_normalize(np.linalg.eigh(delta)[1]))

    @settings(max_examples=60, deadline=None)
    @given(generated_documents(), st.integers(1, 40), st.floats(1e-4, 10.0), st.data())
    def test_blocked_energies(self, doc, rows, lo, data):
        spec = eig_sym(kgraph_laplacian(load_kgraph(doc)))
        f = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=spec.n, max_size=spec.n)))
        # the default grid, and one that misses C_g from some eigenvalue on
        grids = [None, np.geomspace(lo, 1e4, 400)]
        with mock.patch.object(kgraphwave.spectral, "_ENERGY_ROWS", rows):
            for grid in grids:
                got = _outcome(reconstruct, spec, default_kernel(), f, grid)
                want = _outcome(loop_reconstruct, spec, default_kernel(), f, grid)
                if isinstance(want, tuple):
                    assert got == want
                else:
                    assert np.array_equal(got, want)

    def test_coarse_grid_message(self, led_spectral):
        grid = np.geomspace(1e-3, 1e-1, 10)
        with pytest.raises(GridTooCoarse) as exc:
            reconstruct(led_spectral, default_kernel(), np.ones(4), grid)
        with pytest.raises(GridTooCoarse) as want:
            loop_reconstruct(led_spectral, default_kernel(), np.ones(4), grid)
        assert str(exc.value) == str(want.value)

    def test_blocks_on_a_300_vertex_circulant(self):
        graph = load_kgraph(twisted_circulant_document(300, (1, 2), (1, 3), 7))
        delta = kgraph_laplacian(graph)
        assert np.array_equal(delta, gram_laplacian(graph))
        spec = eig_sym(delta)
        f = np.random.default_rng(5).standard_normal(spec.n)
        assert np.array_equal(reconstruct(spec, default_kernel(), f),
                              loop_reconstruct(spec, default_kernel(), f))
