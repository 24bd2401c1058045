import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphwave.orthobasis import _block_sums, complement_basis
from helpers import complement_rows, unscaled_complement_basis


def weighted_gram(rows, weights):
    """The weighted Gram matrix, formed from rows * sqrt(w) so that no
    square of a large entry overflows."""
    scaled = rows * np.sqrt(weights)
    return scaled @ scaled.T


def test_same_bits_as_the_unscaled_split():
    """Weights spanning 10^(+-30): scaling by an even power of two and back
    changes no bit of the rows."""
    rng = np.random.default_rng(16)
    for trial in range(2000):
        size = int(rng.integers(1, 12))
        if trial % 2:
            weights = 10.0 ** rng.uniform(-30, 30, size)
        else:
            weights = 10.0 ** rng.uniform(-30, 30) * rng.uniform(0.1, 1.0, size)
        assert complement_rows(weights).tobytes() == unscaled_complement_basis(weights).tobytes()


def test_same_bits_as_the_slice_sums_on_long_splits():
    """Every length up to 300 and some past powers of two: the blocks of one
    length, summed as the rows of one gather, give the bits of the slice
    sums the oracle takes one split at a time."""
    rng = np.random.default_rng(13)
    for size in [*range(1, 301), 511, 512, 513, 1025, 2049]:
        weights = rng.uniform(0.1, 1.0, size) * 10.0 ** rng.uniform(-8, 8)
        assert complement_rows(weights).tobytes() == unscaled_complement_basis(weights).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-8, 1e8), min_size=1, max_size=40), st.integers(-490, 490))
def test_scattered_nodes_are_the_oracle_rows_from_1e_minus_300_to_1e300(weights, k):
    """The weights w * 4^k run from about 1e-300 to 1e300, where the unscaled
    split would overflow or underflow in w_left * total: their scattered
    nodes are the oracle's rows on w times 2^-k, bit for bit."""
    weights = np.array(weights)
    rows = complement_rows(np.ldexp(weights, 2 * k))
    assert rows.tobytes() == np.ldexp(unscaled_complement_basis(weights), -k).tobytes()
    # chunks of rows are slices of the one scatter
    nodes, step = complement_basis(weights), 7
    chunks = [nodes.rows(i, i + step) for i in range(0, len(nodes.lo), step)]
    assert np.concatenate([nodes.rows(0, 0), *chunks]).tobytes() == nodes.rows().tobytes()


def test_runs_are_the_nonzero_runs_of_the_rows():
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 7, 64, 100):
        nodes = complement_basis(rng.uniform(0.1, 1.0, size))
        rows = nodes.rows()
        assert rows.shape == (size - 1, size) and len(nodes.runs()) == size - 1
        for row, (lo, hi, values) in zip(rows, nodes.runs()):
            assert values.tobytes() == row[lo:hi].tobytes()
            assert not row[:lo].any() and not row[hi:].any()


@pytest.mark.parametrize("exponent", [-1060, -600, 1000], ids=["subnormal", "tiny", "huge"])
def test_extreme_weights_give_finite_orthonormal_rows(exponent):
    """The unscaled split underflows (or overflows) in w_left * total here:
    infinite or zero rows, with RuntimeWarnings."""
    weights = np.array([2.0 ** exponent] * 4 + [2.0 ** (exponent + 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = complement_rows(weights)
    assert rows.shape == (4, 5) and np.isfinite(rows).all()
    assert np.allclose(weighted_gram(rows, weights), np.eye(4), atol=1e-14)
    assert np.allclose(rows @ weights / weights.sum(), 0.0, atol=1e-14)


def test_node_identities_on_weights_from_1e_minus_200_to_1():
    """One block of 64 whose weights span 1e-200 to 1: each weight near 1 is
    split from its neighbour, 1, 10^(-200/31), ..., 10^-200.  The gathered
    block sums hold each tiny block to its own scale, so the zero-mean and
    unit-norm identities hold to the last few bits.  A block sum taken as a
    difference of cumulative sums loses the tiny blocks to the round-off of
    the running total, and the identities with them."""
    weights = np.ones(64)
    weights[1::2] = 10.0 ** -np.linspace(0.0, 200.0, 32)
    nodes = complement_basis(weights)
    assert nodes.residual(weights) <= 1e-14
    sums = _block_sums(weights)
    assert np.array_equal(sums[0], [weights[lo:mid].sum() for lo, mid in zip(nodes.lo, nodes.mid)])
    assert np.array_equal(sums[1], [weights[mid:hi].sum() for mid, hi in zip(nodes.mid, nodes.hi)])
    # the same identities over cumsum differences
    ends = np.concatenate([[0.0], np.cumsum(weights)])
    wl, wr = ends[nodes.mid] - ends[nodes.lo], ends[nodes.hi] - ends[nodes.mid]
    off = np.abs(nodes.left * (nodes.left * wl) + nodes.right * (nodes.right * wr) - 1.0)
    assert np.max(off) > 1e-10


def test_a_node_off_by_1e_minus_6_leaves_the_identities():
    weights = np.random.default_rng(3).uniform(0.1, 1.0, 10)
    assert complement_basis(weights).residual(weights) <= 1e-14
    for side in ("left", "right"):
        nodes = complement_basis(weights)
        getattr(nodes, side)[2] += 1e-6
        assert nodes.residual(weights) > 1e-10
    # a flipped sign keeps the unit norm and leaves the zero mean; a scaled
    # node keeps the zero mean and leaves the unit norm
    nodes = complement_basis(weights)
    nodes.right[2] *= -1
    assert nodes.residual(weights) > 1e-10
    nodes = complement_basis(weights)
    nodes.left[2] *= 1 + 1e-6
    nodes.right[2] *= 1 + 1e-6
    assert nodes.residual(weights) > 1e-10


def test_rejects_non_positive_weights():
    for weights in ([], [1.0, 0.0], [1.0, -2.0]):
        with pytest.raises(ValueError):
            complement_basis(weights)
