"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (see the hook in conftest.py)."""

import time
from fractions import Fraction

import numpy as np
import pytest

from kgraphwave import (
    CylinderFn,
    MeasureSpec,
    build_wavelet_family,
    cg_constant,
    cg_constant_numeric,
    check_ck_relations,
    cylinder_fns_equal,
    cylinder_measure,
    default_kernel,
    eig_sym,
    enumerate_paths,
    incidence_matrices,
    kernel_eval,
    kgraph_laplacian,
    markov_wavelets,
    normal_form,
    pf_data,
    reconstruct,
    traffic_measure,
    traffic_wavelet_family,
    wavelet_basis,
    PreferredPaths,
)
from helpers import (
    check_confluence,
    check_ip_refinement_invariance,
    check_isometry_columns,
    check_measure_additivity,
    path_count,
)

SQRT2 = np.sqrt(2.0)


@pytest.mark.acceptance("01 perron-frobenius (ledrappier)")
def test_criterion_1_perron_frobenius(ledrappier):
    start = time.perf_counter()
    pf = pf_data(ledrappier)
    elapsed = time.perf_counter() - start
    assert np.max(np.abs(pf.rho - np.array([2.0, 2.0]))) < 1e-10
    assert np.max(np.abs(pf.x_lambda - 0.25)) < 1e-10
    assert elapsed < 1.0


@pytest.mark.acceptance("02 measure values (lambda3, rational mode)")
def test_criterion_2_exact_measures(lambda3):
    spec = MeasureSpec.perron_frobenius(lambda3, exact=True)
    assert cylinder_measure(spec, normal_form(lambda3, ["e"])) == Fraction(1)
    for i in ("f1", "f2"):
        assert cylinder_measure(
            spec, normal_form(lambda3, ["e", i])) == Fraction(1, 2)
        assert cylinder_measure(
            spec, normal_form(lambda3, ["e", i, "e"])) == Fraction(1, 2)
        for j in ("f1", "f2"):
            assert cylinder_measure(
                spec, normal_form(lambda3, ["e", i, "e", j])) == Fraction(1, 4)


@pytest.mark.acceptance("03 path census (ledrappier)")
def test_criterion_3_path_census(ledrappier):
    words = ["".join(p.word) for p in enumerate_paths(ledrappier, (1, 2), range="v1")]
    assert words == ["acc", "ace", "aeh", "aej", "dhm", "dho", "djb", "dji"]
    for v in ledrappier.vertices:
        assert len(enumerate_paths(ledrappier, (1, 2), range=v)) == 8


@pytest.mark.acceptance("04 wavelet family (ledrappier, shape (1,2))")
def test_criterion_4_family_coefficients(ledrappier):
    family = build_wavelet_family(ledrappier, shape=(1, 2))
    assert len(family.wavelets) == 28

    def coeffs(fn):
        return {"".join(p.word): c for p, c in fn.terms.items()}

    assert coeffs(family.wavelet(1, "v1")) == {"acc": 4.0, "ace": -4.0}
    assert coeffs(family.wavelet(4, "v1")) == {"djb": 4.0, "dji": -4.0}
    f5 = coeffs(family.wavelet(5, "v1"))
    assert set(f5) == {"acc", "ace", "aeh", "aej"}
    for word, sign in (("acc", 1), ("ace", 1), ("aeh", -1), ("aej", -1)):
        assert abs(f5[word] - sign * 2 * SQRT2) < 1e-12


@pytest.mark.acceptance("05 lambda3 wavelet and dyadic completeness")
def test_criterion_5_lambda3(lambda3):
    family = build_wavelet_family(lambda3, shape=(1, 1))
    assert len(family.wavelets) == 1
    (_, psi), = family.wavelets
    expected = CylinderFn.combination([
        (normal_form(lambda3, ["e", "f1"]), 1.0),
        (normal_form(lambda3, ["e", "f2"]), -1.0)])
    neg = expected * -1.0
    assert cylinder_fns_equal(psi, expected, tol=1e-12) \
        or cylinder_fns_equal(psi, neg, tol=1e-12)
    for depth in (1, 2, 3, 4):  # shifts S_lambda psi with d(lambda)=(j,j), j <= 3
        basis = wavelet_basis(family, depth)
        assert len(basis.labels) == 2 ** depth
        assert np.max(np.abs(basis.gram() - np.eye(2 ** depth))) < 1e-12


@pytest.mark.acceptance("06 completeness suite (both fixtures, three shapes)")
def test_criterion_6_completeness(lambda3, ledrappier):
    rng = np.random.default_rng(2026)
    for graph, max_depth in ((lambda3, 3), (ledrappier, 2)):
        for shape in ((1, 1), (1, 2), (2, 1)):
            family = build_wavelet_family(graph, shape=shape)
            for depth in range(1, max_depth + 1):
                basis = wavelet_basis(family, depth)
                level = tuple(depth * j for j in shape)
                assert len(basis.labels) == path_count(graph, level)
                dim = len(basis.labels)
                assert np.max(np.abs(basis.gram() - np.eye(dim))) < 1e-10
            # analyze -> synthesize round trip on random signals at max depth
            signals = rng.standard_normal((100, dim))
            weighted = basis.matrix * basis.space.weights[None, :]
            coeffs = signals @ weighted.T
            back = coeffs @ basis.matrix
            assert np.max(np.abs(back - signals)) < 1e-10


@pytest.mark.acceptance("07 cuntz-krieger relations")
def test_criterion_7_ck_relations(lambda3, ledrappier, bouquet2):
    spec3 = MeasureSpec.perron_frobenius(lambda3)
    assert check_ck_relations(spec3, lambda3, (2, 2)).max_deviation < 1e-12
    specL = MeasureSpec.perron_frobenius(ledrappier)
    assert check_ck_relations(specL, ledrappier, (1, 2)).max_deviation < 1e-12
    bern = MeasureSpec.bernoulli(bouquet2, (Fraction(1, 4), Fraction(3, 4)))
    assert check_ck_relations(bern, bouquet2, (3,)).max_deviation < 1e-12


@pytest.mark.acceptance("08 markov wavelets")
def test_criterion_8_markov():
    haar = markov_wavelets(2, (0.5, 0.5), 1)
    g = haar.graph
    psi = next(fn for lab, fn in zip(haar.labels, haar.functions)
               if lab["kind"] == "wavelet" and lab["letter"] == "0")
    expected = CylinderFn.combination([
        (normal_form(g, ["0", "0"]), SQRT2),
        (normal_form(g, ["0", "1"]), -SQRT2)])
    assert cylinder_fns_equal(psi, expected, tol=1e-12)
    phi = haar.functions[0]
    assert cylinder_fns_equal(
        phi, SQRT2 * CylinderFn.indicator(normal_form(g, ["0"])), tol=1e-12)

    rng = np.random.default_rng(5)
    raw = rng.uniform(0.2, 1.0, size=3)
    p = tuple(raw / raw.sum())
    system = markov_wavelets(3, p, 2)
    assert len(system.functions) == 27
    assert np.max(np.abs(system.gram() - np.eye(27))) < 1e-12


@pytest.mark.acceptance("09 traffic wavelets (ledrappier)")
def test_criterion_9_traffic(ledrappier):
    pf = pf_data(ledrappier)
    prefs = PreferredPaths("v1", {
        v: enumerate_paths(ledrappier, (1, 2), range="v1", source=v)[0]
        for v in ledrappier.vertices})
    family = traffic_wavelet_family(ledrappier, pf, prefs.degrees)
    signals = np.array([sig for _, sig in family.signals()])
    reference = np.array([
        [4.0, -4.0, 0.0, 0.0],
        [0.0, 0.0, 4.0, -4.0],
        [2 * SQRT2, 2 * SQRT2, -2 * SQRT2, -2 * SQRT2]])
    assert signals.shape == reference.shape
    assert np.max(np.abs(signals - reference)) < 1e-12
    assert np.max(np.abs(family.constant - 2 * SQRT2)) < 1e-12
    assert np.max(np.abs(family.gram() - np.eye(4))) < 1e-12
    nu = traffic_measure(ledrappier, pf, prefs.degrees)
    for sig in signals:
        assert abs(np.dot(sig, nu)) < 1e-12


@pytest.mark.acceptance("10 laplacian and eigendata (ledrappier)")
def test_criterion_10_laplacian(ledrappier):
    inc = incidence_matrices(ledrappier)
    assert inc.matrices[0].tolist() == [
        [0, 1, 0, 0, 0, 0, 0, -1],
        [0, -1, 1, -1, 1, 0, 0, 0],
        [0, 0, 0, 0, -1, 0, 1, 0],
        [0, 0, -1, 1, 0, 0, -1, 1]]
    assert inc.matrices[1].tolist() == [
        [-1, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, -1, 1, 0, 0],
        [1, 0, 0, 0, 1, -1, -1, 0],
        [0, 0, 0, -1, 0, 0, 1, 0]]
    delta = kgraph_laplacian(ledrappier)
    assert delta.tolist() == [
        [4, -2, -1, -1], [-2, 8, -3, -3], [-1, -3, 6, -2], [-1, -3, -2, 6]]
    sd = eig_sym(delta)
    assert np.max(np.abs(np.sort(sd.eigenvalues)
                         - np.array([0.0, 5.17, 8.0, 10.83]))) < 0.01
    reference = {
        0.0: [1, 1, 1, 1],
        5.17: [-0.85, 0.15, 0.35, 0.35],
        10.83: [-0.15, 0.85, -0.35, -0.35],
        8.0: [0, 0, -0.71, 0.71]}
    for lam, ref in reference.items():
        idx = int(np.argmin(np.abs(sd.eigenvalues - lam)))
        ref = np.array(ref, dtype=float)
        ref /= np.linalg.norm(ref)
        got = sd.eigenvectors[:, idx]
        assert min(np.max(np.abs(got - ref)), np.max(np.abs(got + ref))) < 0.01


@pytest.mark.acceptance("11 kernel, energy constant, reconstruction")
def test_criterion_11_kernel_and_reconstruction(ledrappier):
    kernel = default_kernel()
    for x in (1.0, 2.0):
        assert abs(kernel_eval(kernel, x - 1e-13) - kernel_eval(kernel, x)) < 1e-12
        assert abs(kernel_eval(kernel, x - 1e-7, 1)
                   - kernel_eval(kernel, x, 1)) < 1e-6  # slope continuity
    # derivative gap measured exactly from the piece polynomials
    for x, pieces in ((1.0, (0, 1)), (2.0, (1, 2))):
        left = kernel.pieces[pieces[0]].eval(np.array([x]), 1)[0]
        right = kernel.pieces[pieces[1]].eval(np.array([x]), 1)[0]
        assert abs(left - right) < 1e-12
        lv = kernel.pieces[pieces[0]].eval(np.array([x]))[0]
        rv = kernel.pieces[pieces[1]].eval(np.array([x]))[0]
        assert abs(lv - rv) < 1e-12

    closed = cg_constant(kernel)
    numeric = cg_constant_numeric(kernel)
    assert abs(closed - numeric) < 1e-8 * closed

    sd = eig_sym(kgraph_laplacian(ledrappier))
    rng = np.random.default_rng(17)
    start = time.perf_counter()
    for _ in range(2):
        coeffs = rng.standard_normal(4)
        coeffs[0] = 0.0  # mean-zero: orthogonal to the constant eigenvector
        f = sd.eigenvectors @ coeffs
        rec = reconstruct(sd, kernel, f)
        assert np.linalg.norm(rec - f) < 1e-3 * np.linalg.norm(f)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    # a kernel with g(0) = 0 annihilates the constant component instead of
    # recovering it, so the all-ones signal must land near zero
    flat = reconstruct(sd, kernel, np.ones(4))
    assert np.linalg.norm(flat) < 1e-10


@pytest.mark.acceptance("12 property suites (confluence, additivity, refinement, isometry)")
def test_criterion_12_property_suites(lambda3, ledrappier, sphere):
    start = time.perf_counter()
    assert check_confluence(lambda3, (2, 2)) > 0
    assert check_confluence(ledrappier, (2, 2)) > 0
    assert check_confluence(sphere, (2, 2)) > 0

    spec3 = MeasureSpec.perron_frobenius(lambda3)
    specL = MeasureSpec.perron_frobenius(ledrappier)
    assert check_measure_additivity(spec3, (2, 2), tol=1e-12) < 1e-12
    assert check_measure_additivity(specL, (1, 1), tol=1e-12) < 1e-12

    fns = [CylinderFn.indicator(normal_form(lambda3, ["e"])),
           CylinderFn.indicator(normal_form(lambda3, ["f1"]))]
    assert check_ip_refinement_invariance(
        spec3, fns, [(1, 1), (2, 2)], tol=1e-12) < 1e-12

    assert check_isometry_columns(spec3, [(1, 0), (0, 1), (1, 1)], (1, 1)) < 1e-12
    assert check_isometry_columns(specL, [(1, 0), (0, 1)], (0, 1)) < 1e-12
    assert time.perf_counter() - start < 60.0
