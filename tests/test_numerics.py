"""Grid functions, Fourier weights, and discrete-Gaussian fits."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from mibounds.errors import (
    DomainError,
    GridTooCoarseError,
    NonNormalizedDensityError,
    ValidationError,
)
from mibounds.numerics import (
    MAX_POINTS,
    FourierSpectrum,
    PeriodicGridFunction,
    binary_entropy,
    coefficients_to_density,
    differential_entropy,
    discrete_gaussian_fit,
    entropy_bits_of_weights,
    fourier_modes,
    gaussian_entropy_vs_bound,
    synthesized_density,
)


def test_entropy_of_flat_weights():
    for n in (1, 2, 4, 7, 64):
        w = np.full(n, 1.0 / n)
        assert abs(entropy_bits_of_weights(w) - np.log2(n)) < 1e-12


def test_entropy_ignores_zero_weights():
    # 0 log 0 = 0 by continuity
    w = np.array([0.5, 0.0, 0.5, 0.0])
    assert abs(entropy_bits_of_weights(w) - 1.0) < 1e-12


def test_entropy_rejects_negative_weight():
    with pytest.raises(ValidationError):
        entropy_bits_of_weights(np.array([0.6, -0.1, 0.5]))


def test_tiny_negative_weight_is_clipped():
    w = np.array([1.0, -1e-12])
    assert entropy_bits_of_weights(w) == 0.0


def test_entropy_checks_every_row():
    """A batched call refuses a negative weight in any one row and clips
    roundoff there as the 1-d call does."""
    for row in range(3):
        w = np.full((3, 4), 0.25)
        w[row, 2] = -0.1
        with pytest.raises(ValidationError):
            entropy_bits_of_weights(w)
        w[row, 2] = -1e-12
        h = entropy_bits_of_weights(w)
        assert h[row] == entropy_bits_of_weights(w[row])
        assert np.array_equal(np.delete(h, row), [2.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(arrays(float, hst.tuples(hst.integers(1, 5), hst.integers(1, 64)),
              elements=hst.one_of(hst.just(0.0), hst.floats(1e-6, 1e3)))
       .filter(lambda w: w.any(axis=1).all()),
       hst.integers(0, 64))
def test_last_axis_calls_match_row_by_row(w, extra_points):
    """A (k, n) call gives its rows' 1-d results exactly: the synthesis,
    and the entropy of probability rows, zeros included."""
    c = w * np.exp(1j * w)
    n_grid = w.shape[1] + extra_points
    dens = synthesized_density(c, n_grid)
    for row, c_row in zip(dens, c):
        assert np.array_equal(row, synthesized_density(c_row, n_grid))
    p = w / w.sum(axis=1, keepdims=True)
    for h, p_row in zip(entropy_bits_of_weights(p), p):
        assert h == entropy_bits_of_weights(p_row)


def test_fourier_modes_recover_trig_polynomial():
    """Linear coefficients of a sampled trig polynomial are exact."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        ks = rng.choice(np.arange(-8, 9), size=4, replace=False)
        cs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phis = np.arange(128) / 128.0
        vals = np.zeros(128, dtype=complex)
        for k, c in zip(ks, cs):
            vals += c * np.exp(2j * np.pi * k * phis)
        f = PeriodicGridFunction(1.0, vals)
        got_ks, got = fourier_modes(f, (-10, 10))
        want = np.zeros(21, dtype=complex)
        for k, c in zip(ks, cs):
            want[np.where(got_ks == k)[0][0]] = c
        assert np.max(np.abs(got - want)) < 1e-12


def test_fourier_modes_on_period_two_grid():
    # the mode index counts cycles per period, not per unit length
    phis = np.arange(64) * (2.0 / 64)
    f = PeriodicGridFunction(2.0, 3.0 * np.exp(2j * np.pi * 5 * phis / 2.0))
    ks, coeffs = fourier_modes(f, (0, 6))
    assert abs(coeffs[5] - 3.0) < 1e-12
    assert np.max(np.abs(np.delete(coeffs, 5))) < 1e-12


def test_binary_superposition_weights():
    # f = 1/2 + e^(i 2 pi phi)/2 puts weight 1/4 at k = 0 and k = 1
    phis = np.arange(64) / 64.0
    f = PeriodicGridFunction(1.0, 0.5 + 0.5 * np.exp(2j * np.pi * phis))
    ks, coeffs = fourier_modes(f, (-2, 3))
    d = dict(zip(ks.tolist(), np.abs(coeffs) ** 2))
    assert abs(d[0] - 0.25) < 1e-14
    assert abs(d[1] - 0.25) < 1e-14
    assert abs(d[-1]) < 1e-28 and abs(d[2]) < 1e-28
    assert abs(sum(d.values()) - 0.5) < 1e-14


def test_alias_window_guard():
    f = PeriodicGridFunction(1.0, np.ones(16))
    with pytest.raises(GridTooCoarseError):
        fourier_modes(f, (-4, 4))  # needs G >= 2*(4+4)+2 = 18
    fourier_modes(f, (-3, 3))  # fits


def test_parseval_mass_and_tail():
    """Weights sum to the mean square; the tail bound shrinks with the window."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        c /= np.linalg.norm(c)
        f = coefficients_to_density(c, 256)
        amp = PeriodicGridFunction(
            1.0, np.fft.ifft(np.pad(c, (0, 256 - 9))) * 256
        )
        assert abs(float(np.mean(np.abs(amp.values) ** 2)) - 1.0) < 1e-10
        masses = [
            float((np.abs(fourier_modes(amp, (0, hi))[1]) ** 2).sum())
            for hi in (4, 6, 8)
        ]
        assert abs(masses[2] - 1.0) < 1e-10
        assert abs(masses[2] - float(np.mean(f.values))) < 1e-10
        tails = [max(0.0, 1.0 - mass) for mass in masses]
        assert tails[0] >= tails[1] >= tails[2] >= 0.0
        assert tails[2] < 1e-10


def test_spectrum_second_moment():
    spec = FourierSpectrum(np.array([-1, 0, 1]), np.array([0.25, 0.5, 0.25]))
    assert abs(spec.second_moment() - 0.5) < 1e-15


def test_differential_entropy_of_uniform():
    # H(uniform on [0, L)) = log2 L
    for period in (0.5, 1.0, 2.0):
        dens = PeriodicGridFunction(period, np.full(512, 1.0 / period))
        assert abs(differential_entropy(dens) - np.log2(period)) < 1e-12


def test_differential_entropy_requires_normalization():
    with pytest.raises(NonNormalizedDensityError):
        differential_entropy(PeriodicGridFunction(1.0, np.full(64, 2.0)))
    with pytest.raises(ValidationError):
        differential_entropy(PeriodicGridFunction(1.0, np.full(64, -1.0)))


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15
    for x in (0.1, 0.25, 0.4):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-15
    with pytest.raises(DomainError):
        binary_entropy(1.5)


def test_coefficients_to_density_grid_guard():
    with pytest.raises(GridTooCoarseError):
        coefficients_to_density(np.ones(8) / np.sqrt(8.0), 15)


def test_coefficients_to_density_mass():
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        c /= np.linalg.norm(c)
        dens = coefficients_to_density(c, 64)
        assert abs(dens.values.mean() - 1.0) < 1e-12


@pytest.mark.parametrize("n_grid", [6, 7, 64, 257])
def test_synthesized_density_matches_direct_sum(n_grid):
    """The raw zero-padded synthesis, odd grids included, against the sum
    |sum_k c_k e^(i 2 pi j k / G)|^2 written out."""
    rng = np.random.default_rng(n_grid)
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    j = np.arange(n_grid)[:, None]
    direct = np.abs(np.exp(2j * np.pi * j * np.arange(5) / n_grid) @ c) ** 2
    assert np.max(np.abs(synthesized_density(c, n_grid) - direct)) < 1e-12


def test_discrete_gaussian_fit_refuses_support_over_cap():
    """sigma = 1e8 asked for a 136 GiB support; past the cap it is bad
    input, raised before any array is built."""
    with pytest.raises(DomainError, match="integer support"):
        discrete_gaussian_fit(1e16)
    # the support |k| <= 10 sigma + 12 reaches MAX_POINTS points here
    sigma = ((MAX_POINTS - 1) / 2 - 12) / 10
    with pytest.raises(DomainError, match="integer support"):
        discrete_gaussian_fit((1.01 * sigma) ** 2)
    assert 2.0e5 < sigma < 2.2e5


def bisection_fit(sigma2):
    """The earlier solver, kept as the oracle: bisection on b = 1/sqrt(2 lam)
    over the bracket [max(sigma/10, 1e-6), 10 sigma + 10], with the support
    cut where terms fall below 1e-18 of the peak. Returns (b, entropy)."""
    def cut(b):
        return int(np.ceil(b * np.sqrt(2.0 * np.log(1e18)))) + 2

    def sums(b):
        k = np.arange(-cut(b), cut(b) + 1, dtype=float)
        w = np.exp(-(k * k) / (2.0 * b * b))
        return w, float(w.sum()), float((k * k * w).sum())

    def excess(b):
        _, s0, s2 = sums(b)
        return s2 / s0 - sigma2

    sigma = float(np.sqrt(sigma2))
    lo, hi = max(sigma / 10.0, 1e-6), 10.0 * sigma + 10.0
    assert excess(lo) < 0.0 < excess(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    b = 0.5 * (lo + hi)
    w, s0, _ = sums(b)
    return b, entropy_bits_of_weights(w / s0)


def explicit_gaussian(sigma2, lam):
    """The brute-force oracle of the dual solve: k^2 and exp(-lam k^2) / Z
    written out over the solver's support |k| <= 10 sigma + 12."""
    k_max = int(10.0 * np.sqrt(sigma2) + 12.0)
    k2 = np.arange(-k_max, k_max + 1).astype(float) ** 2
    w = np.exp(-lam * k2)
    return k2, w / w.sum()


def test_discrete_gaussian_fit_matches_bisection():
    """Newton on the dual against the bisection, from the smallest
    subnormal sigma^2 to the bisection's own support cap (sigma ~ 2.3e4)."""
    sigma2s = np.logspace(np.log10(5e-324), np.log10(5.3e8), 48)
    sigma2s[0] = 5e-324
    for sigma2 in sigma2s:
        lam, h_star = discrete_gaussian_fit(sigma2)
        b_ref, h_ref = bisection_fit(sigma2)
        assert abs(h_star - h_ref) <= 1e-13
        assert abs(1.0 / np.sqrt(2.0 * lam) / b_ref - 1.0) <= 1e-12


# largest log10(sigma^2) whose support |k| <= 10 sigma + 12 fits the cap
_SIGMA_MAX = ((MAX_POINTS - 1) / 2 - 12) / 10
_LOG_SIGMA2_MAX = 2.0 * np.log10(_SIGMA_MAX)


@settings(max_examples=60, deadline=None)
@example(log_s2=np.log10(5e-324), log_step=0.01, seed=0)
@example(log_s2=_LOG_SIGMA2_MAX - 1.0, log_step=1.0, seed=0)
@given(log_s2=hst.floats(np.log10(5e-324), _LOG_SIGMA2_MAX - 1.0),
       log_step=hst.floats(0.01, 1.0),
       seed=hst.integers(0, 2**32 - 1))
def test_discrete_gaussian_is_the_max_entropy_spectrum(log_s2, log_step, seed):
    """Over the accepted sigma^2 domain: both constraints hold, H* grows
    with sigma^2, and no random spectrum on |k| <= 8 with the same second
    moment carries more entropy."""
    sigma2 = 10.0 ** log_s2
    lam, h_star = discrete_gaussian_fit(sigma2)
    k2, w_star = explicit_gaussian(sigma2, lam)
    assert abs(w_star.sum() - 1.0) <= 1e-10
    assert abs((k2 * w_star).sum() - sigma2) <= 1e-10 * max(sigma2, 1e-30)
    assert h_star <= discrete_gaussian_fit(10.0 ** (log_s2 + log_step))[1]
    if sigma2 <= 64.0:
        # mix a random spectrum with the point mass at 0 (moment 0) or at
        # +-8 (moment 64) so that its second moment is sigma^2
        ks = np.arange(-8, 9)
        w = np.random.default_rng(seed).random(ks.size)
        w /= w.sum()
        m0 = float((ks * ks * w).sum())
        edge = np.where(np.abs(ks) == 8 if m0 < sigma2 else ks == 0, 1.0, 0.0)
        edge /= edge.sum()
        edge_moment = float((ks * ks * edge).sum())
        t = (edge_moment - sigma2) / (edge_moment - m0)
        assert h_star * (1.0 + 1e-12) >= entropy_bits_of_weights(t * w + (1.0 - t) * edge)


@settings(max_examples=60, deadline=None)
@example(log_s2=np.log10(5e-324))
@example(log_s2=_LOG_SIGMA2_MAX - 1.0)
@given(log_s2=hst.floats(np.log10(5e-324), _LOG_SIGMA2_MAX - 1.0))
def test_closed_form_entropy_matches_explicit_spectrum(log_s2):
    """H* = (lam sigma^2 + ln Z) / ln 2 from the dual equals the entropy of
    the spectrum written out, over the accepted sigma^2 domain."""
    sigma2 = 10.0 ** log_s2
    lam, h_star = discrete_gaussian_fit(sigma2)
    h_explicit = entropy_bits_of_weights(explicit_gaussian(sigma2, lam)[1])
    assert abs(h_star - h_explicit) <= 1e-13 * max(1.0, h_explicit)


def test_discrete_gaussian_fit_memory_at_the_cap():
    """At the largest sigma^2 the cap accepts the solve keeps only its
    one-sided sums: no two-sided spectrum is allocated."""
    tracemalloc.start()
    try:
        discrete_gaussian_fit(_SIGMA_MAX**2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 65 * 2**20


def test_discrete_gaussian_fit_constraints():
    """The fitted integer spectrum hits unit mass and the target moment."""
    for sigma2 in (0.0625, 0.25, 1.0, 25.0, 1e4):
        lam, _ = discrete_gaussian_fit(sigma2)
        assert 0.0 < lam < np.inf
        k2, w = explicit_gaussian(sigma2, lam)
        assert abs(w.sum() - 1.0) < 1e-10
        assert abs((k2 * w).sum() - sigma2) < 1e-10 * sigma2


def test_discrete_gaussian_fit_degenerate():
    # sigma^2 = 0 is the point mass at k = 0, the limit lam -> inf
    lam, h_star = discrete_gaussian_fit(0.0)
    assert lam == np.inf
    assert h_star == 0.0 and np.copysign(1.0, h_star) == 1.0
    with pytest.raises(DomainError):
        discrete_gaussian_fit(-1.0)


def test_discrete_gaussian_entropy_at_unit_sigma():
    _, h_star = discrete_gaussian_fit(1.0)
    assert abs(h_star - 2.0470955928998746) < 1e-9
    bound = 0.5 * np.log2(1.0 + 2.0 * np.pi * np.e)
    assert bound - h_star > 0.04


def test_entropy_vs_reference_curve_margins():
    """The reference curve is loose at large sigma and dips below near 0.01.

    The max-entropy spectrum at fixed second moment sigma^2 has entropy
    slightly above 0.5*log2(1 + 2 pi e sigma^2) once sigma drops under
    about 0.034; the rows report the crossover rather than hide it.
    """
    rows = gaussian_entropy_vs_bound([0.01, 0.02, 0.05, 0.1, 1.0, 10.0])
    margins = {r[0]: r[3] for r in rows}
    assert abs(margins[0.01] - (-3.420612256e-4)) < 1e-9
    assert margins[0.02] < 0.0
    assert margins[0.05] > 0.0
    assert margins[1.0] > 0.04
    assert margins[10.0] > 0.0
    for sigma, entropy, bound, margin in rows:
        assert abs((bound - entropy) - margin) < 1e-15
