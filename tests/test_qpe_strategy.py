"""The block-size enhancement term and its transition."""

import numpy as np
import pytest

from block_size import block_size_crossing, optimal_block_size
from mibounds.errors import ValidationError
from mibounds.qpe_strategy import enhancement_term


def test_enhancement_noiseless_single_qubit():
    # M = 1, eta = 1: F = 4 pi^2, so the term is 0.5 log2(e pi / 2)
    want = 0.5 * np.log2(np.e * np.pi / 2.0)
    assert abs(enhancement_term(1, 1.0) - want) < 1e-12


def test_enhancement_increasing_in_m_without_noise():
    vals = [enhancement_term(m, 1.0) for m in range(1, 6)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_enhancement_zero_noise():
    assert enhancement_term(3, 0.0) == float("-inf")


def test_optimal_block_size_by_noise_level():
    """Strong noise favors one qubit per block; weak noise larger blocks."""
    assert optimal_block_size(0.4) == 1
    assert optimal_block_size(0.49) == 1
    assert optimal_block_size(0.55) == 2
    assert optimal_block_size(0.99, m_max=12) == 8
    assert optimal_block_size(1.0, m_max=6) == 6  # unbounded growth at eta=1
    with pytest.raises(ValidationError, match=r"eta must lie in \(0, 1\]"):
        optimal_block_size(0.0)


def test_block_size_crossings():
    """Tie points between block sizes, located by bisection."""
    c12 = block_size_crossing(1, 2)
    c13 = block_size_crossing(1, 3)
    c23 = block_size_crossing(2, 3)
    assert abs(c12 - 0.5) < 1e-8  # exact tie at eta = 1/2
    assert abs(c13 - 0.606705831) < 1e-6
    assert abs(c23 - 0.675759804) < 1e-6
    assert c12 < c13 < c23
    # the gap really changes sign across each crossing
    for m_hi, c in ((2, c12), (3, c13)):
        below = enhancement_term(1, c - 1e-6) - enhancement_term(m_hi, c - 1e-6)
        above = enhancement_term(1, c + 1e-6) - enhancement_term(m_hi, c + 1e-6)
        assert below > 0.0 > above


def test_crossing_requires_bracket():
    """The fixed bracket [1e-6, 1] holds every crossing of 1 <= M < M' <= 30,
    so its no-crossing guard stays unreachable; equal sizes are refused."""
    low = [enhancement_term(m, 1e-6) for m in range(1, 31)]
    high = [enhancement_term(m, 1.0) for m in range(1, 31)]
    for i in range(30):
        for j in range(i + 1, 30):
            assert low[i] - low[j] > 0.0 > high[i] - high[j], (i + 1, j + 1)
    with pytest.raises(ValidationError):
        block_size_crossing(2, 2)
