import warnings

import numpy as np
import pytest

from kgraphwave.orthobasis import complement_basis
from helpers import unscaled_complement_basis


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
        assert complement_basis(weights).tobytes() == unscaled_complement_basis(weights).tobytes()


def test_same_bits_as_the_slice_sums_on_long_splits():
    """Every length up to 300 and some past powers of two: the blocks of one
    length, summed as the rows of one gather, give the bits of the slice
    sums the oracle takes one split at a time."""
    rng = np.random.default_rng(13)
    for size in [*range(1, 301), 511, 512, 513, 1025, 2049]:
        weights = rng.uniform(0.1, 1.0, size) * 10.0 ** rng.uniform(-8, 8)
        assert complement_basis(weights).tobytes() == unscaled_complement_basis(weights).tobytes()


@pytest.mark.parametrize("exponent", [-1060, -600, 1000], ids=["subnormal", "tiny", "huge"])
def test_extreme_weights_give_finite_orthonormal_rows(exponent):
    """The unscaled split underflows (or overflows) in w_left * total here:
    infinite or zero rows, with RuntimeWarnings."""
    weights = np.array([2.0 ** exponent] * 4 + [2.0 ** (exponent + 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = complement_basis(weights)
    assert rows.shape == (4, 5) and np.isfinite(rows).all()
    assert np.allclose(weighted_gram(rows, weights), np.eye(4), atol=1e-14)
    assert np.allclose(rows @ weights / weights.sum(), 0.0, atol=1e-14)


def test_rejects_non_positive_weights():
    for weights in ([], [1.0, 0.0], [1.0, -2.0]):
        with pytest.raises(ValueError):
            complement_basis(weights)
