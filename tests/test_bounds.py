"""Fourier- and Fisher-route information bounds and their companions."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mibounds import bounds
from mibounds.bounds import (
    MLE_GAP_LIMIT_BITS,
    BoundReport,
    EstimationModel,
    PriorDensity,
    StateFamily,
    companion_bound_comparison,
    entropic_uncertainty_check,
    fisher_bound,
    fisher_bound_from_model,
    fourier_bound_from_overlap,
    fourier_bound_from_states,
    mle_lower_bound,
    nonperiodic_fourier_bound,
    sigma_squared,
)
from mibounds.channels import (
    CHANNEL_KINDS,
    NoisyQpeModel,
    chi_closed_form,
    mode_weight_args,
    overlap_function,
    purified_state_family,
)
from mibounds.errors import NumericalFailureError, ValidationError
from mibounds.numerics import PeriodicGridFunction, fourier_modes

TWO_PI = 2.0 * np.pi


def test_prior_density_validation():
    with pytest.raises(ValidationError):
        PriorDensity(1.0, np.full(64, -1.0))
    with pytest.raises(ValidationError, match="integrates to 2, expected 1"):
        PriorDensity(1.0, np.full(64, 2.0))
    for period in (0.0, 4e-320):  # 1 / period is inf, with no warning
        with pytest.raises(ValidationError, match="must be finite"):
            PriorDensity.uniform(period, 64)
    prior = PriorDensity.uniform(1.0, 64)
    assert abs(prior.entropy_bits) < 1e-12
    assert abs(PriorDensity.uniform(2.0, 64).entropy_bits - 1.0) < 1e-12


def test_fisher_bound_constant_fisher_closed_form():
    """F = 4 pi^2 with the uniform prior, sigma^2 = F / (16 pi^2), gives
    0.5*log2(1 + e pi / 2)."""
    rep = fisher_bound(4.0 * np.pi**2 / (16.0 * np.pi**2))
    expected = 0.5 * np.log2(1.0 + np.e * np.pi / 2.0)
    assert abs(rep.bound_bits - expected) < 1e-12
    assert abs(rep.bound_bits - 1.1988832911558522) < 1e-12
    assert rep.method == "fisher"
    assert rep.flags == ()


def test_fisher_bound_monotone_in_fisher():
    values = [
        fisher_bound(f / (16.0 * np.pi**2)).bound_bits
        for f in np.logspace(-1, 4, 12)
    ]
    assert all(b2 > b1 for b1, b2 in zip(values, values[1:]))


def test_fisher_bound_refuses_negative_sigma2():
    with pytest.raises(ValidationError, match="sigma2 must be nonnegative"):
        fisher_bound(-1e-12)


@pytest.mark.parametrize("sigma,flagged", [(0.02, True), (0.05, False)])
def test_fisher_bound_flags_curve_below_max_entropy_envelope(sigma, flagged):
    """Below sigma ~ 0.034 the discrete Gaussian with second moment sigma^2
    carries more entropy than 0.5*log2(1 + 2 pi e sigma^2); the report says
    so and still returns the curve."""
    rep = fisher_bound(sigma * sigma)
    x = 2.0 * math.pi * math.e * (sigma * sigma)
    curve = 0.5 * math.log1p(x) / math.log(2.0)
    assert rep.bound_bits == curve
    assert rep.flags == (("below_max_entropy_envelope",) if flagged else ())


@pytest.mark.parametrize("sigma2", [2.5e-15, 1e-12])
def test_fisher_bound_keeps_full_precision_near_zero(sigma2):
    """0.5 log2(1 + x) through log1p: log2 of the rounded 1 + x would be
    1.6e-3 relative too low at sigma^2 = 2.5e-15, a bound below the curve.
    The series 0.5 (x - x^2/2 + x^3/3) / ln 2 is exact to double precision
    here."""
    x = 2.0 * math.pi * math.e * sigma2
    series = 0.5 * (x - x * x / 2.0 + x**3 / 3.0) / math.log(2.0)
    got = fisher_bound(sigma2).bound_bits
    assert abs(got - series) <= 1e-15 * series


def test_sigma_squared_cosine_model():
    """The two-outcome cos^2 model integrates to sigma^2 = 1/4."""
    prior = PriorDensity.uniform(1.0, 4096)
    phis = prior.grid
    cond = np.stack(
        [np.cos(np.pi * phis) ** 2, np.sin(np.pi * phis) ** 2], axis=1
    )
    assert abs(sigma_squared(EstimationModel(prior, cond)) - 0.25) < 1e-5


@settings(max_examples=60, deadline=None)
@given(
    k=hst.integers(1, 8),
    extra=hst.integers(0, 300),
    period=hst.floats(0.1, 10.0),
    v=hst.floats(0.05, 0.99),
)
def test_sigma_squared_matches_discrete_oracle(k, extra, period, v):
    """A central difference scales sin(theta) by sinc(2 pi k / G), so on any
    grid sigma^2 has a closed form, for the conditional half (a cosine
    outcome model on the uniform prior) and the prior half (a cosine prior
    with one certain outcome) alike. theta = 2 pi k phi / L, G >= 8k."""
    n_grid = 8 * k + 2 * extra
    uniform = PriorDensity.uniform(period, n_grid)
    theta = TWO_PI * k * uniform.grid / period
    scale = k * k / 4.0 * np.sinc(2.0 * k / n_grid) ** 2  # sinc(2 pi k / G)
    s2v2 = (v * np.sin(theta)) ** 2

    p1 = 0.5 * (1.0 + v * np.cos(theta))
    cond = EstimationModel(uniform, np.stack([p1, 1.0 - p1], axis=1))
    want = scale * np.mean(s2v2 / (1.0 - (v * np.cos(theta)) ** 2))
    assert abs(sigma_squared(cond) - want) <= 1e-12 * want

    prior = PriorDensity(period, (1.0 + v * np.cos(theta)) / period)
    flat = EstimationModel(prior, np.ones((n_grid, 1)))
    want = scale * np.mean(s2v2 / (1.0 + v * np.cos(theta)))
    assert abs(sigma_squared(flat) - want) <= 1e-12 * want


@pytest.mark.parametrize("n_grid", [4, 8, 64, 128, 256])
def test_sigma_squared_of_step_model_is_divergent(n_grid):
    """A 0.8/0.2 step is divergent on every grid of 4 rows and more, also
    up to 128 rows, where its two jumps are more than 1 % of all jumps."""
    prior = PriorDensity.uniform(1.0, n_grid)
    p1 = np.where(prior.grid < 0.5, 0.8, 0.2)
    model = EstimationModel(prior, np.stack([p1, 1.0 - p1], axis=1))
    assert math.isinf(sigma_squared(model))
    assert fisher_bound_from_model(model).flags == ("divergent",)


@pytest.mark.parametrize("p1", [[0.8, 0.2], [0.95, 0.05]],
                         ids=["step", "cosine"])
def test_sigma_squared_needs_four_rows(p1):
    """On 2 rows both neighbours of a row are one row, so every central
    difference was 0: a 0.8/0.2 step gave sigma^2 0 instead of inf, and the
    cosine p1 = (1 + 0.9 cos 2 pi phi)/2 gave 0 instead of 0.14103."""
    prior = PriorDensity.uniform(1.0, 2)
    model = EstimationModel(prior, np.stack([p1, 1.0 - np.array(p1)], axis=1))
    with pytest.raises(ValidationError, match="at least 4 grid rows, got 2"):
        sigma_squared(model)


def test_sigma_squared_of_one_sample_spike_is_divergent():
    """Each jump of a one-sample spike has the other beside it; on a fine
    grid the spike is still a grid-scale feature."""
    prior = PriorDensity.uniform(1.0, 512)
    p1 = np.full(512, 0.5)
    p1[100] = 0.9
    model = EstimationModel(prior, np.stack([p1, 1.0 - p1], axis=1))
    assert math.isinf(sigma_squared(model))


def test_sigma_squared_of_sloped_zero_is_divergent():
    prior = PriorDensity.uniform(1.0, 512)
    p1 = np.abs(np.sin(2.0 * np.pi * prior.grid)) * 0.5
    p1[0] = 0.0
    p1[1] = 1e-20  # zero approached with a finite slope on one side
    model = EstimationModel(prior, np.stack([p1, 1.0 - p1], axis=1))
    assert math.isinf(sigma_squared(model))


def _two_outcomes(prior_values, p1):
    prior = PriorDensity(1.0, prior_values)
    return EstimationModel(prior, np.stack([p1, 1.0 - p1], axis=1))


def test_sigma_squared_sees_a_step_behind_the_other_factor():
    """In the joint p(phi) p(m|phi), a 1.05/0.95 step of one factor jumps
    no more than a steep sine of the other changes per row, so each
    factor is tested on its own."""
    phi = np.arange(512) / 512.0
    step = np.where(phi < 0.5, 1.05, 0.95)
    sine = 1.0 + 0.9 * np.sin(8.0 * np.pi * phi)
    assert math.isinf(sigma_squared(_two_outcomes(step, 0.5 * sine)))
    assert math.isinf(sigma_squared(_two_outcomes(sine, 0.5 * step)))


def test_sigma_squared_sees_a_sloped_zero_under_a_prior_tail():
    """Under a prior of about 1e-8, the joint slope into a conditional
    zero is below DERIV_FLOOR; the conditional's own slope is not."""
    phi = np.arange(512) / 512.0
    tail = 5e-7 + (1.0 - np.cos(TWO_PI * phi)) ** 8
    p1 = np.abs(np.sin(TWO_PI * phi)) * 0.5
    p1[0] = 0.0
    p1[1] = 1e-20
    model = _two_outcomes(tail / tail.mean(), p1)
    assert model.prior.values[0] < 1e-7
    assert math.isinf(sigma_squared(model))


def test_sigma_squared_flags_divergent_prior():
    """A step prior diverges even when no outcome depends on phi."""
    vals = np.where(np.arange(512) < 256, 2.0, 0.0)
    model = EstimationModel(PriorDensity(1.0, vals), np.ones((512, 1)))
    assert math.isinf(sigma_squared(model))
    rep = fisher_bound_from_model(model)
    assert math.isinf(rep.bound_bits) and math.isinf(rep.sigma2)
    assert rep.flags == ("divergent",)
    assert rep.prior_entropy_bits == model.prior.entropy_bits


def test_fisher_bound_from_model_shifts_by_the_prior():
    """On a period-L uniform prior, -log2 L + H(phi) = 0: the model route
    is fisher_bound of its sigma^2, with the prior entropy log2 L."""
    prior = PriorDensity.uniform(2.0, 1024)
    p1 = np.cos(np.pi * prior.grid / 2.0) ** 2
    model = EstimationModel(prior, np.stack([p1, 1.0 - p1], axis=1))
    rep = fisher_bound_from_model(model)
    plain = fisher_bound(sigma_squared(model))
    assert abs(rep.bound_bits - plain.bound_bits) < 1e-12
    assert rep.sigma2 == plain.sigma2 and rep.flags == plain.flags
    assert abs(rep.prior_entropy_bits - 1.0) < 1e-12


def test_fourier_bound_of_binary_superposition():
    """|psi> = (|0> + e^(i 2 pi phi)|1>)/sqrt(2) carries at most 1 bit."""
    phis = np.arange(256) / 256.0
    f = PeriodicGridFunction(1.0, 0.5 + 0.5 * np.exp(2j * np.pi * phis))
    rep = fourier_bound_from_overlap(f)
    assert abs(rep.bound_bits - 1.0) < 1e-10
    assert rep.flags == ()
    assert abs(rep.sigma2 - 0.5) < 1e-12  # sum k^2 f_k = 0.5 * 1
    ks, coeffs = fourier_modes(f, (-63, 63))
    d = dict(zip(ks.tolist(), coeffs.real))
    assert abs(d[0] - 0.5) < 1e-12 and abs(d[1] - 0.5) < 1e-12


def _spectral_route(route, states, k_side):
    """The overlap route (its window is |k| <= (G - 2) // 4) or the states
    route (window |k| <= k_side) on (G, dim) states of period 1."""
    if route == "overlap":
        return fourier_bound_from_overlap(
            PeriodicGridFunction(1.0, states @ states[0].conj()))
    prior = PriorDensity.uniform(1.0, states.shape[0])
    return fourier_bound_from_states(StateFamily(1.0, states), prior,
                                     (-k_side, k_side))


@pytest.mark.parametrize("route", ["overlap", "states"])
def test_spectral_routes_flag_truncated_spectrum(route):
    """On 8 points the window |k| <= 1 keeps half of the modes 0..3."""
    model = NoisyQpeModel("dephasing", 2, 1.0)
    rep = _spectral_route(route, purified_state_family(model, np.arange(8) / 8),
                          1)
    assert abs(rep.tail_mass_bound - 0.5) < 1e-12
    assert abs(rep.bound_bits - 1.0) < 1e-12  # the true value is 2 bits
    assert rep.flags == ("truncated_spectrum",)


def test_states_route_matches_overlap_route():
    phis = np.arange(256) / 256.0
    states = np.stack(
        [np.full(256, 1.0 + 0j), np.exp(2j * np.pi * phis)], axis=1
    ) / np.sqrt(2.0)
    family = StateFamily(1.0, states)
    prior = PriorDensity.uniform(1.0, 256)
    rep_states = fourier_bound_from_states(family, prior, (-8, 9))
    f = PeriodicGridFunction(1.0, states @ states[0].conj())
    rep_overlap = fourier_bound_from_overlap(f)
    assert abs(rep_states.bound_bits - rep_overlap.bound_bits) < 1e-10
    assert abs(rep_states.bound_bits - 1.0) < 1e-10


def test_states_route_rejects_mismatched_grids():
    phis = np.arange(64) / 64.0
    states = np.stack(
        [np.full(64, 1.0 + 0j), np.exp(2j * np.pi * phis)], axis=1
    ) / np.sqrt(2.0)
    family = StateFamily(1.0, states)
    with pytest.raises(ValidationError):
        fourier_bound_from_states(family, PriorDensity.uniform(1.0, 128), (-2, 2))


@pytest.mark.parametrize("family_period,prior_period",
                         [(1e-13, 1.5e-13), (1.5e-13, 1e-13)])
def test_states_route_rejects_tiny_periods_that_differ(family_period,
                                                       prior_period):
    """The period test is relative: 1e-13 and 1.5e-13 differ by a third.
    An absolute 1e-12 passed both orders, and the route returned a
    truncated report or raised a numerical failure (exit 3)."""
    family = StateFamily(family_period, _binary_family(64).states)
    prior = PriorDensity.uniform(prior_period, 64)
    with pytest.raises(ValidationError, match="share one grid"):
        fourier_bound_from_states(family, prior, (-2, 2))


def test_states_route_accepts_periods_equal_to_roundoff():
    family = StateFamily(1.0 + 1e-13, _binary_family(64).states)
    rep = fourier_bound_from_states(family, PriorDensity.uniform(1.0, 64),
                                    (-2, 2))
    assert rep.flags == ()
    assert rep.bound_bits == pytest.approx(1.0, abs=1e-9)


def test_state_family_validation():
    with pytest.raises(ValidationError):
        StateFamily(1.0, np.ones((64, 2)))  # norm sqrt(2), not 1
    with pytest.raises(ValidationError):
        StateFamily(1.0, np.ones(64))  # not 2-d


@pytest.mark.parametrize("period", [math.nan, math.inf, 0.0, -1.0])
def test_state_family_refuses_a_bad_period(period):
    """A NaN period reached the spectral route, which raised a numerical
    failure (exit 3) for what is bad input."""
    with pytest.raises(ValidationError, match="period must be finite and positive"):
        StateFamily(period, _binary_family(64).states)


def _binary_family(g):
    phis = np.arange(g) / g
    states = np.stack(
        [np.full(g, 1.0 + 0j), np.exp(2j * np.pi * phis)], axis=1
    ) / np.sqrt(2.0)
    return StateFamily(1.0, states)


def _random_states(rng, g, dim):
    states = rng.standard_normal((g, dim)) + 1j * rng.standard_normal((g, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return states


@pytest.mark.parametrize("order", ["C", "F"])
def test_state_family_keeps_complex128_states_without_a_copy(order):
    states = np.asarray(_random_states(np.random.default_rng(3), 64, 5),
                        order=order)
    assert np.shares_memory(StateFamily(1.0, states).states, states)


def test_state_family_rejects_nan_sample():
    states = _binary_family(64).states.copy()
    states[5, 1] = np.nan
    with pytest.raises(ValidationError):
        StateFamily(1.0, states)


def _overflowing_overlap():
    """Finite samples, f(0) = 1, whose FFT overflows to a NaN mass: at
    every odd point 1e308, the sum of two of which is inf."""
    values = np.full(64, 0.5)
    values[0] = 1.0
    values[1::2] = 1e308
    return PeriodicGridFunction(1.0, values)


def _nan_states():
    family = _binary_family(64)
    family.states[5, 1] = np.nan  # the array stays writable after validation
    return family


NON_FINITE_SPECTRA = {
    "overlap": lambda: fourier_bound_from_overlap(_overflowing_overlap()),
    "states": lambda: fourier_bound_from_states(
        _nan_states(), PriorDensity.uniform(1.0, 64), (-2, 2)),
}


@pytest.mark.parametrize("route", sorted(NON_FINITE_SPECTRA))
def test_spectral_routes_reject_non_finite_spectrum(route):
    """A spectrum mass that is not finite raises instead of reporting a
    bound (the overlap route returned bits null with exit 0)."""
    with np.errstate(all="ignore"), pytest.raises(NumericalFailureError,
                                                  match="not finite"):
        NON_FINITE_SPECTRA[route]()


def test_states_route_checks_alias_window():
    family = _binary_family(64)
    prior = PriorDensity.uniform(1.0, 64)
    fourier_bound_from_states(family, prior, (-15, 15))  # needs exactly 62
    with pytest.raises(ValidationError, match=r"resolve k in \[-16, 16\]"):
        fourier_bound_from_states(family, prior, (-16, 16))
    with pytest.raises(ValidationError):
        fourier_bound_from_states(family, prior, (3, 2))


def test_states_route_blocks_match_unblocked_fft():
    g = 64
    width = bounds._STATES_BLOCK // g
    dim = 3 * width + 7  # three full blocks and a partial one
    states = _random_states(np.random.default_rng(11), g, dim)
    phis = np.arange(g) / g
    density = 1.0 + 0.5 * np.cos(TWO_PI * phis)
    prior = PriorDensity(1.0, density)
    ks, weights = bounds._spectrum_from_states(StateFamily(1.0, states), prior,
                                               (-7, 8))
    coeffs = np.fft.fft(np.sqrt(density)[:, None] * states, axis=0) / g
    oracle = (np.abs(coeffs[np.mod(ks, g)]) ** 2).sum(axis=1)
    assert np.array_equal(ks, np.arange(-7, 9))
    assert np.max(np.abs(weights - oracle)) < 1e-12


def test_states_route_memory_is_input_plus_one_block():
    states = _random_states(np.random.default_rng(3), 256, 8192)  # 32 MiB
    prior = PriorDensity.uniform(1.0, 256)
    limit = states.nbytes / 4
    tracemalloc.start()
    try:
        family = StateFamily(1.0, states)
        family_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fourier_bound_from_states(family, prior, (-8, 8))
        route_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family.states is states
    assert family_peak < limit
    assert route_peak < limit


@settings(max_examples=50, deadline=None)
@given(
    kind=hst.sampled_from(CHANNEL_KINDS),
    n_qubits=hst.integers(1, 4),
    eta=hst.floats(0.0, 1.0),
    extra=hst.integers(0, 40),
)
def test_states_route_matches_chi_closed_form(kind, n_qubits, eta, extra):
    model = NoisyQpeModel(kind, n_qubits, eta)
    k_side = model.n_calls + 2
    g = 4 * k_side + 2 + 2 * extra  # the alias window's minimum grid and up
    prior = PriorDensity.uniform(1.0, g)
    family = StateFamily(1.0, purified_state_family(model, prior.grid))
    rep = fourier_bound_from_states(family, prior, (-k_side, k_side))
    assert abs(rep.bound_bits - chi_closed_form(model)) < 1e-8
    assert rep.flags == ()
    # the product spectrum's second moment: the variance of a sum of
    # independent 2^j-scaled Bernoulli(x_j) plus the square of its mean
    xs = mode_weight_args(model)
    mean = sum(2.0**j * x for j, x in enumerate(xs))
    sigma2 = sum(4.0**j * x * (1.0 - x) for j, x in enumerate(xs)) + mean**2
    assert abs(rep.sigma2 - sigma2) < 1e-12 * max(sigma2, 1.0)
    over = fourier_bound_from_overlap(overlap_function(model, g))
    assert abs(over.sigma2 - sigma2) < 1e-12 * max(sigma2, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    kind=hst.sampled_from(CHANNEL_KINDS),
    n_qubits=hst.integers(1, 6),
    eta=hst.floats(0.0, 1.0),
    period=hst.floats(0.1, 10.0),
)
def test_states_route_prior_term_is_invariant_under_the_period(
        kind, n_qubits, eta, period):
    """The channel family stretched to period L under the uniform prior:
    the spectrum is the period-1 one and -log2 L + H(phi) = 0, so the bound
    is chi on every period."""
    model = NoisyQpeModel(kind, n_qubits, eta)
    k_side = model.n_calls + 2
    prior = PriorDensity.uniform(period, 4 * k_side + 2)
    states = purified_state_family(model, prior.grid / period)
    rep = fourier_bound_from_states(StateFamily(period, states), prior,
                                    (-k_side, k_side))
    assert abs(rep.bound_bits - chi_closed_form(model)) < 1e-8
    assert rep.prior_entropy_bits == prior.entropy_bits


@settings(max_examples=60, deadline=None)
@given(
    k=hst.integers(1, 8),
    v=hst.floats(0.05, 0.99),
    extra=hst.integers(0, 300),
    period=hst.floats(0.1, 10.0),
)
def test_fisher_model_bound_is_invariant_under_the_period(k, v, extra,
                                                          period):
    """A cosine outcome model p1 = (1 + v cos 2 pi k phi / L) / 2 on the
    uniform period-L prior: sigma^2 scales as L^2 F with F as 1 / L^2, and
    the prior term -log2 L + H(phi) is 0, so the bound is the period-1 one.
    The prior term's roundoff is absolute, a few ulp of log2 L, up to 6e-13
    of the 0.0038-bit bound at k = 1, v = 0.05."""
    n_grid = 8 * k + 2 * extra

    def report(period):
        prior = PriorDensity.uniform(period, n_grid)
        p1 = 0.5 * (1.0 + v * np.cos(TWO_PI * k * prior.grid / period))
        model = EstimationModel(prior, np.stack([p1, 1.0 - p1], axis=1))
        return fisher_bound_from_model(model)

    got, want = report(period), report(1.0)
    assert abs(got.sigma2 - want.sigma2) <= 1e-12 * want.sigma2
    assert abs(got.bound_bits - want.bound_bits) <= (
        1e-12 * want.bound_bits + 1e-14)


def test_bound_report_json_schema():
    rep = fisher_bound(1.0 / (16.0 * np.pi**2))
    d = rep.to_json_dict()
    assert set(d) == {
        "method",
        "bound_bits",
        "sigma2",
        "prior_entropy_bits",
        "tail_mass_bound",
        "flags",
    }
    assert d["tail_mass_bound"] is None
    assert isinstance(d["flags"], list)
    # negative zero must not leak into serialized numbers
    assert math.copysign(1.0, d["prior_entropy_bits"]) == 1.0
    json.dumps(d)


def test_mle_gap_shrinks_to_limit():
    """fisher_bound - mle_lower_bound falls monotonically to log2(e/2)."""
    gaps = []
    for nf in (1e2, 1e3, 1e4, 1e5, 1e6):
        upper = fisher_bound(nf / (16.0 * np.pi**2))
        lower = mle_lower_bound(nf)
        gaps.append(upper.bound_bits - lower.bound_bits)
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert abs(gaps[-1] - MLE_GAP_LIMIT_BITS) < 0.01
    assert abs(MLE_GAP_LIMIT_BITS - np.log2(np.e / 2.0)) < 1e-15


def test_mle_lower_bound_validation():
    for fisher in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="positive for the MLE"):
            mle_lower_bound(fisher)
    with pytest.raises(ValidationError, match="fisher must be nonnegative"):
        companion_bound_comparison(math.nan)  # returned three NaNs


def test_companion_bound_ordering():
    for fval in np.logspace(-2, 6, 100):
        lo, mid, hi = companion_bound_comparison(fval)
        assert lo < mid < hi
    assert companion_bound_comparison(0.0) == (0.0, 0.0, 0.0)


def test_nonperiodic_gaussian_family():
    """Finite-support embedding settles once the window is wide enough."""
    sig = 0.05
    prior_fn = lambda x: np.exp(-(x**2) / (2 * sig**2)) / (
        sig * np.sqrt(2 * np.pi)
    )
    ks = np.arange(21)
    amps = np.ones(21) / np.sqrt(21.0)
    fam = lambda x: np.exp(2j * np.pi * np.outer(x, ks)) * amps
    rep = nonperiodic_fourier_bound(fam, prior_fn, (-0.5, 0.5))
    assert abs(rep.bound_bits - 2.311720837160207) < 1e-6
    deltas = [
        abs(b2 - b1)
        for (_, b1), (_, b2) in zip(rep.history, rep.history[1:])
    ]
    assert deltas and deltas[-1] < 1e-4
    assert "finite_support" in rep.flags
    assert rep.tail_mass_bound <= 1e-8


def test_nonperiodic_single_mode_floor():
    # one Fourier mode against a narrow Gaussian prior: the bound collapses
    # to the prior-independent floor log2(e/2) of the spectral route
    sig = 0.05
    prior_fn = lambda x: np.exp(-(x**2) / (2 * sig**2)) / (
        sig * np.sqrt(2 * np.pi)
    )
    const = lambda x: np.tile(np.array([1.0 + 0j, 0.0]), (len(x), 1))
    rep = nonperiodic_fourier_bound(const, prior_fn, (-0.5, 0.5))
    assert abs(rep.bound_bits - np.log2(np.e / 2.0)) < 1e-6


def test_nonperiodic_validation():
    fam = lambda x: np.tile(np.array([1.0 + 0j, 0.0]), (len(x), 1))
    prior_fn = lambda x: np.ones_like(x)
    with pytest.raises(ValidationError):
        nonperiodic_fourier_bound(fam, prior_fn, (0.5, 0.5))


def _unreached_prior(phis):
    raise AssertionError(f"prior_fn called on {len(phis)} points")


@pytest.mark.parametrize("support,match", [
    ((0.0, 2e4), r"grid of 5120002 points exceeds the 4194304-point cap"),
    ((0.0, math.inf), "support must be a finite interval"),
    ((-math.inf, 0.0), "support must be a finite interval"),
    ((-math.inf, math.inf), "support must be a finite interval"),
    ((0.0, 1e307), "support must be a finite interval"),
    ((0.0, math.nan), "nonempty interval"),
], ids=["over-cap", "inf-end", "minus-inf-end", "both-inf", "band-overflow",
        "nan-end"])
def test_nonperiodic_refuses_before_the_prior_sees_a_grid(support, match):
    """(0, 2e4) handed prior_fn a 5,120,002-point grid, over the cap, and
    an infinite end ended in OverflowError."""
    fam = lambda x: np.tile(np.array([1.0 + 0j, 0.0]), (len(x), 1))
    with pytest.raises(ValidationError, match=match):
        nonperiodic_fourier_bound(fam, _unreached_prior, support)


def scripted_nonperiodic(monkeypatch, script):
    """nonperiodic_fourier_bound on a flat family under a narrow Gaussian
    prior on (-0.5, 0.5), with each periodic evaluation replaced by
    script(window index, band attempt), which returns (bits, tail, flags).
    The windows are 4, 8, ..., 256, so the window index is log2(L / 4)."""
    attempts = {}

    def states_report(family, prior, k_range):
        window = round(math.log2(prior.period / 4.0))
        attempt = attempts[window] = attempts.get(window, -1) + 1
        bits, tail, flags = script(window, attempt)
        return BoundReport(method="fourier", bound_bits=bits,
                           prior_entropy_bits=-2.0, tail_mass_bound=tail,
                           flags=flags)

    monkeypatch.setattr(bounds, "fourier_bound_from_states", states_report)
    sig = 0.05
    prior_fn = lambda x: np.exp(-(x**2) / (2 * sig**2)) / (
        sig * np.sqrt(2 * np.pi)
    )
    const = lambda x: np.tile(np.array([1.0 + 0j, 0.0]), (len(x), 1))
    return nonperiodic_fourier_bound(const, prior_fn, (-0.5, 0.5))


def test_nonperiodic_band_never_captured(monkeypatch):
    with pytest.raises(NumericalFailureError, match="band cannot be widened"):
        scripted_nonperiodic(monkeypatch, lambda w, a: (1.0, 1e-6, ()))


def test_nonperiodic_slow_convergence_is_flagged(monkeypatch):
    """Seven windows whose last move is in (1e-4, 1e-3] bits."""
    rep = scripted_nonperiodic(monkeypatch,
                               lambda w, a: (1.0 + 5e-4 * w, 0.0, ()))
    assert rep.method == "fourier-nonperiodic"
    assert rep.flags == ("finite_support", "slow_convergence")
    assert rep.history == tuple((4.0 * 2**w, 1.0 + 5e-4 * w) for w in range(7))
    assert rep.bound_bits == 1.0 + 5e-4 * 6


def test_nonperiodic_no_convergence_raises(monkeypatch):
    """Seven windows whose last move is above 1e-3 bits."""
    with pytest.raises(NumericalFailureError, match="window doubling"):
        scripted_nonperiodic(monkeypatch,
                             lambda w, a: (1.0 + 2e-3 * w, 0.0, ()))


def test_nonperiodic_widened_band_keeps_the_states_report(monkeypatch):
    """The first band misses 1e-6 of the mass; the widened one captures
    all but 5e-9, which the states report flags itself."""
    def script(window, attempt):
        if window == 0 and attempt == 0:
            return 0.5, 1e-6, ("truncated_spectrum",)
        return 1.0 + 5e-5 * window, 5e-9, ("truncated_spectrum",)

    rep = scripted_nonperiodic(monkeypatch, script)
    assert rep.method == "fourier-nonperiodic"
    assert rep.flags == ("finite_support", "band_widened",
                         "truncated_spectrum")
    assert rep.history == ((4.0, 1.0), (8.0, 1.0 + 5e-5))
    assert (rep.bound_bits, rep.tail_mass_bound) == (1.0 + 5e-5, 5e-9)
    assert rep.prior_entropy_bits == -2.0


def test_entropic_uncertainty_nonnegative():
    """Phase and number entropies never sum below zero (seeded sweep)."""
    rng = np.random.default_rng(5)
    worst = np.inf
    for _ in range(300):
        n = int(rng.integers(2, 33))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c /= np.linalg.norm(c)
        phase_h, number_h, total = entropic_uncertainty_check(c)
        assert abs((phase_h + number_h) - total) < 1e-12
        worst = min(worst, total)
    assert worst > -1e-6


def test_entropic_uncertainty_single_mode():
    # a lone mode has flat phase density and zero number entropy
    phase_h, number_h, total = entropic_uncertainty_check(np.array([1.0]))
    assert abs(phase_h) < 1e-9
    assert number_h == 0.0
    assert abs(total) < 1e-9
