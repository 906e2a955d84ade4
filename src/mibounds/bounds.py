"""Mutual-information bounds for parameter-estimation strategies.

Two upper-bound routes for the information I(m:phi) carried by any
measurement of a phase-encoded family |psi_phi> under a prior p(phi):

* the spectral route: project the amplitude-weighted family onto Fourier
  modes, f_k = <psihat_k|psihat_k> / L, and bound
  I <= -sum f_k log2 f_k - log2 L + H(phi);
* the Fisher route: bound the spectrum's second moment by
  sigma^2 = (L^2 / 16 pi^2) * integral [pdot^2/p + p F] dphi and use the
  max-entropy envelope, I <= 0.5 log2(1 + 2 pi e sigma^2) - log2 L + H(phi).
  The integral is the Fisher information sum_m integral rdot_m^2 / r_m of
  the joint density r_m(phi) = p(phi) p(m|phi) (the Bayesian Cramer-Rao
  information of Van Trees), since sum_m pdot(m|phi) = 0 cancels the cross
  term. fisher_bound is the curve (numerics.fisher_curve_bits) of a sigma^2
  under the uniform period-1 prior; an outcome model goes through
  sigma_squared, one pass over its joint (scale numerics.fisher_sigma2),
  and fisher_bound_from_model, which adds its prior's -log2 L + H(phi).

A matching asymptotic lower bound for maximum-likelihood estimation and
an entropic uncertainty check for number/phase pairs live here too.

The inputs (PriorDensity, StateFamily, EstimationModel) and BoundReport
are immutable named tuples, as in numerics: a route that adjusts a
report returns a copy made with _replace.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._lazy import np
from .errors import NumericalFailureError, ValidationError
from .numerics import (
    LN2,
    NEGATIVE_WEIGHT_TOL,
    TWO_PI,
    PeriodicGridFunction,
    _check_alias_window,
    _check_period,
    check_periodic_grid,
    check_points,
    coefficients_to_density,
    differential_entropy,
    discrete_gaussian_fit,
    entropy_bits_of_weights,
    fisher_curve_bits,
    fisher_sigma2,
    fourier_modes,
    record,
)

# pointwise zero floors of sigma_squared, on its factors and its joint
PROB_FLOOR = 1e-14
DERIV_FLOOR = 1e-7

# complex elements per FFT block of the states route (1 MiB, cache-sized);
# its working memory is one block and that block's transform
_STATES_BLOCK = 1 << 16


class PriorDensity(record("PriorDensity", "period values entropy_bits")):
    """Prior p(phi) on a period-L grid; the spectral route weights the
    family by its amplitude sqrt(p).

    Built from (period, values), which pass PeriodicGridFunction's checks
    and differential_entropy's density rule; that rule also gives the
    computed field entropy_bits. The samples are kept with roundoff
    negatives clipped to 0.
    """

    __slots__ = ()

    def __new__(cls, period, values):
        grid = PeriodicGridFunction(period, np.asarray(values, dtype=float))
        return super().__new__(cls, period, np.clip(grid.values, 0.0, None),
                               differential_entropy(grid))

    # entropy_bits is computed, not an argument: copies and pickles rebuild
    # from (period, values), and _replace refuses a change to entropy_bits
    def __getnewargs__(self):
        return self.period, self.values

    def _replace(self, **changes):
        return type(self)(**{"period": self.period, "values": self.values,
                             **changes})

    n_grid = PeriodicGridFunction.n_grid
    grid = PeriodicGridFunction.grid
    from_callable = vars(PeriodicGridFunction)["from_callable"]

    @classmethod
    def uniform(cls, period, n_grid):
        # 1 / period is inf for a zero or subnormal period: no warning, as
        # the period and finite-values checks refuse it
        with np.errstate(over="ignore", divide="ignore"):
            density = np.float64(1.0) / period
        return cls(period, np.full(n_grid, density))


class StateFamily(record("StateFamily", "period states")):
    """Pure states |psi_phi> sampled on a period-L grid, one row per phi;
    the period must be finite and positive, as for PeriodicGridFunction.

    Weights see the family only through <psi_phi|psi_phi'>, so a fixed
    isometry of every state (as in purified_state_family) changes no bound.
    A complex128 array is kept without a copy, in its own memory layout,
    and validated in O(grid) extra memory. Column-major states (one
    contiguous column per state dimension, as purified_state_family
    returns) let the spectral route's axis-0 FFT read contiguous memory.
    """

    __slots__ = ()

    def __new__(cls, period, states):
        _check_period(period)
        st = np.asarray(states, dtype=complex)
        if st.ndim != 2:
            raise ValidationError("states must be a (grid, dim) array")
        check_periodic_grid(st.shape[0])
        # real/imag are views, so no array-sized temporaries; <= fails on NaN
        sq = np.einsum("ij,ij->i", st.real, st.real)
        sq += np.einsum("ij,ij->i", st.imag, st.imag)
        if not np.all(np.abs(np.sqrt(sq) - 1.0) <= 1e-8):
            raise ValidationError("states must be normalized to 1 within 1e-8")
        return super().__new__(cls, period, st)

    @property
    def n_grid(self):
        return self.states.shape[0]


class EstimationModel(record("EstimationModel", "prior conditional")):
    """Classical outcome model: prior plus p(m|phi) columns on its grid."""

    __slots__ = ()

    def __new__(cls, prior, conditional):
        cond = np.asarray(conditional, dtype=float)
        if cond.ndim != 2 or cond.shape[0] != prior.n_grid:
            raise ValidationError(
                "conditional must be (grid, outcomes) on the prior grid"
            )
        if not np.all(np.isfinite(cond)):
            raise ValidationError("conditional probabilities must be finite")
        if np.any(cond < -1e-12):
            raise ValidationError("conditional probabilities must be nonnegative")
        cond = np.clip(cond, 0.0, None)
        rows = cond.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-8:
            raise ValidationError("conditional rows must sum to 1 within 1e-8")
        return super().__new__(cls, prior, cond)


class BoundReport(namedtuple(
        "BoundReport",
        "method bound_bits prior_entropy_bits sigma2 tail_mass_bound flags"
        " history",
        defaults=(None, None, (), ()))):
    """One bound evaluation; serializes to a small flat JSON object.

    sigma2 is the spectrum's second moment: the Fisher route's budget, or
    sum k^2 f_k over a spectral report's window. It and tail_mass_bound
    may be None.
    """

    __slots__ = ()

    def to_json_dict(self):
        def num(value):
            # JSON has no inf or NaN, so a non-finite value prints as null;
            # +0.0 so a negative zero never leaks into serialized output
            finite = value is not None and math.isfinite(value)
            return float(value) + 0.0 if finite else None

        return {
            "method": self.method,
            "bound_bits": num(self.bound_bits),
            "sigma2": num(self.sigma2),
            "prior_entropy_bits": num(self.prior_entropy_bits),
            "tail_mass_bound": num(self.tail_mass_bound),
            "flags": list(self.flags),
        }


def _spectrum_from_states(family: StateFamily, prior: PriorDensity, k_range):
    if abs(family.period - prior.period) > 1e-12 or family.n_grid != prior.n_grid:
        raise ValidationError("state family and prior must share one grid")
    k_min, k_max = int(k_range[0]), int(k_range[1])
    g = family.n_grid
    _check_alias_window(g, k_min, k_max)
    ks = np.arange(k_min, k_max + 1)
    rows = np.mod(ks, g)
    q = np.sqrt(prior.values)[:, None]
    width = max(1, _STATES_BLOCK // g)
    power = np.zeros(ks.size)
    for lo in range(0, family.states.shape[1], width):
        coeffs = np.fft.fft(q * family.states[:, lo:lo + width], axis=0)[rows]
        power += (coeffs.real ** 2 + coeffs.imag ** 2).sum(axis=1)
    return ks, family.period * power / float(g) ** 2


def _spectral_report(ks, weights, prior_entropy_bits=0.0) -> BoundReport:
    """The spectral route's report for weights f_k on the window ks.

    Its bound is the spectrum entropy -sum f_k log2 f_k, the whole bound
    under a uniform prior, where -log2 L + H(phi) = 0, and its sigma2 the
    second moment sum k^2 f_k. Roundoff negatives are clipped to 0. Raises
    NumericalFailureError when the mass sum f_k is not finite or exceeds
    1 beyond 1e-9; 1 - mass bounds the weight outside the window, and more
    than 1e-9 of it flags "truncated_spectrum".
    """
    w = np.clip(weights, 0.0, None)
    total = float(w.sum())
    if not total <= 1.0 + 1e-9:  # fails on NaN and inf too
        raise NumericalFailureError(
            f"spectrum mass {total:.12g} is not finite or exceeds 1; "
            "grid or inputs are inconsistent"
        )
    tail = max(0.0, 1.0 - total)
    return BoundReport(
        method="fourier",
        bound_bits=entropy_bits_of_weights(w),
        prior_entropy_bits=prior_entropy_bits,
        sigma2=float((ks.astype(float) ** 2 * w).sum()),
        tail_mass_bound=tail,
        flags=("truncated_spectrum",) if tail > 1e-9 else (),
    )


def _with_prior_term(report: BoundReport, prior: PriorDensity) -> BoundReport:
    """report shifted by its prior's term -log2 L + H(phi)."""
    bound = report.bound_bits - np.log2(prior.period) + prior.entropy_bits
    return report._replace(bound_bits=float(bound),
                           prior_entropy_bits=float(prior.entropy_bits))


def fourier_bound_from_states(
    family: StateFamily, prior: PriorDensity, k_range
) -> BoundReport:
    """Spectral upper bound from explicit state samples.

    Computes f_k = L * sum_d |(1/L) integral q psi_d e^(-i2pi k phi/L)|^2
    over the requested index window and returns
    -sum f_k log2 f_k - log2 L + H(phi).

    The FFT runs along phi over column blocks of about 1 MiB, so peak
    memory is the input array plus one block. Each block keeps the
    family's layout: on a column-major family every transform reads one
    contiguous column, on a row-major one it reads a strided column.
    Both give identical weights. Raises NumericalFailureError when the
    spectrum mass is not finite or exceeds 1.
    """
    return _with_prior_term(
        _spectral_report(*_spectrum_from_states(family, prior, k_range)), prior)


def fourier_bound_from_overlap(f: PeriodicGridFunction) -> BoundReport:
    """Spectral upper bound from an overlap function f(phi) = <psi_0|psi_phi>.

    Valid for unitary encodings under the uniform prior, where the linear
    Fourier coefficients of f are exactly the spectral weights f_k on the
    widest window the grid resolves, |k| <= (G - 2) // 4. Requires
    f(0) = 1 within 1e-8.
    """
    if abs(f.values[0] - 1.0) > 1e-8:
        raise ValidationError("overlap must satisfy f(0) = 1 within 1e-8")
    half = (f.n_grid - 2) // 4
    ks, coeffs = fourier_modes(f, (-half, half))
    if np.max(np.abs(coeffs.imag)) > 1e-9:
        raise NumericalFailureError("overlap spectrum has non-real coefficients")
    if np.any(coeffs.real < -NEGATIVE_WEIGHT_TOL):
        raise NumericalFailureError(
            "overlap spectrum has negative weights beyond tolerance"
        )
    # the uniform prior's entropy log2 L cancels in the bound
    return _spectral_report(ks, coeffs.real, float(np.log2(f.period)))


def _has_step(f):
    """Grid-scale jump test per column: the largest |delta| against 10x a
    slope scale, the smaller of the larger jump beside it and the 0.99
    quantile of all jumps. The sides see a step on a coarse grid, where
    its two jumps are more than 1 % of all; the quantile sees a one-sample
    spike or a step spread over two rows on a fine one."""
    d = np.abs(np.roll(f, -1, axis=0) - f)
    cols = np.arange(f.shape[1])
    i = d.argmax(axis=0)
    jump = d[i, cols]
    sides = np.maximum(d[i - 1, cols], d[(i + 1) % len(d), cols])
    scale = np.minimum(sides, np.quantile(d, 0.99, axis=0))
    # a jump below 1e-5 of its column is too small to matter even as a step
    big = jump > 1e-5 * f.max(axis=0)
    return bool(np.any(big & (jump > 10.0 * scale)))


def sigma_squared(model: EstimationModel) -> float:
    """Second-moment budget (L^2 / 16 pi^2) integral [pdot^2/p + p F] dphi
    of an outcome model, on the grid and prior of model.prior.

    The integral is the Fisher information sum_m integral rdot_m^2 / r_m
    of the joint r_m(phi) = p(phi) p(m|phi); the cross term vanishes as
    sum_m pdot(m|phi) = 0. Derivatives are second-order central
    differences on the periodic grid. Where r < PROB_FLOOR with centered
    slope below DERIV_FLOOR the quotient takes its limit at a quadratic
    touch, 2 rddot, or 0 at a flat zero.

    A grid-scale step in the prior or an outcome column gives inf
    (divergent) instead of a huge finite number, and so does a zero
    approached with slope (|slope| >= DERIV_FLOOR where the value is below
    PROB_FLOOR) in the prior, an outcome column or a joint column. The
    factors are tested on their own because a step or a sloped zero of
    one can hide in the joint behind the other: a 1.05/0.95 prior step
    beside a steep conditional, or a conditional zero under a prior tail
    of 1e-8. The pass runs on the unit period u = phi / L, on the density
    L p(phi) and the step 1 / G, so the floors apply per unit period: to
    the cells of L p(phi), p(m|phi) and their product, and to slopes
    d/du = L d/dphi. sigma^2 is invariant under L, and no L, however
    extreme, overflows the step or a slope.

    A 2-row grid (grids are even) is bad input: both neighbours of a row
    are the same row, so every central difference would be 0.
    """
    prior = model.prior
    if prior.n_grid < 4:
        raise ValidationError(
            f"a Fisher integral needs at least 4 grid rows, got {prior.n_grid}")
    h = 1.0 / prior.n_grid
    p = prior.values[:, None] * prior.period
    f = np.hstack([p, model.conditional, p * model.conditional])
    j = f.shape[1] - model.conditional.shape[1]  # the joint columns start here
    up, down = np.roll(f, -1, axis=0), np.roll(f, 1, axis=0)
    fdot = (up - down) / (2.0 * h)
    tiny = f < PROB_FLOOR
    if _has_step(f[:, :j]) or np.any(tiny & (np.abs(fdot) >= DERIV_FLOOR)):
        return float("inf")
    r, rdot, tiny = f[:, j:], fdot[:, j:], tiny[:, j:]
    touch = 2.0 * np.maximum((up[:, j:] - 2.0 * r + down[:, j:]) / (h * h), 0.0)
    quotient = np.where(tiny, touch, rdot ** 2 / np.where(tiny, 1.0, r))
    return fisher_sigma2(float(quotient.sum() * h))


def fisher_bound(sigma2: float) -> BoundReport:
    """Fisher-route bound 0.5 log2(1 + 2 pi e sigma^2) under the uniform
    period-1 prior, where -log2 L + H(phi) = 0.

    sigma^2 is in spectral units; a constant Fisher information F gives
    sigma^2 = F / (16 pi^2). An infinite (or NaN) sigma^2 gives an
    infinite bound flagged "divergent".

    bound_bits is always the paper's curve. That curve bounds the spectrum
    entropy only where it is at least H*(sigma^2), the largest entropy an
    integer spectrum with second moment sigma^2 can have (the entropy of
    discrete_gaussian_fit). For sigma below about 0.034 it is not, and the
    report carries the flag "below_max_entropy_envelope".
    """
    if sigma2 < 0.0:
        raise ValidationError("sigma2 must be nonnegative")
    if not math.isfinite(sigma2):
        return BoundReport(method="fisher", bound_bits=float("inf"),
                           prior_entropy_bits=0.0, sigma2=float("inf"),
                           flags=("divergent",))
    curve = fisher_curve_bits(sigma2)
    # measured, the curve exceeds H* for every sigma >= 0.5, still by
    # 4.2e-8 bits at sigma = 1e3 (the margin tends to 1/(2 pi e sigma^2 ln 4));
    # so solving only below sigma = 1 misses no flag, keeps a huge sigma
    # (M = 30) away from the solver's support cap and numpy unloaded
    flags = ()
    if sigma2 < 1.0 and discrete_gaussian_fit(sigma2)[1] > curve:
        flags = ("below_max_entropy_envelope",)
    return BoundReport(method="fisher", bound_bits=curve,
                       prior_entropy_bits=0.0, sigma2=float(sigma2),
                       flags=flags)


def fisher_bound_from_model(model: EstimationModel) -> BoundReport:
    """Fisher-route bound of an outcome model: fisher_bound of its
    sigma_squared, shifted by -log2 L + H(phi) of its prior."""
    return _with_prior_term(fisher_bound(sigma_squared(model)), model.prior)


def nonperiodic_fourier_bound(family_fn, prior_fn, support) -> BoundReport:
    """Spectral bound for a prior supported on a finite interval.

    Embeds the problem in a periodic window 4 times the support,
    evaluates the periodic bound, and doubles the window, at most 6
    times, until two successive values agree within 1e-4 bits. The
    density of Fourier modes grows with the window, approaching the
    continuous-spectrum bound.

    family_fn(phis) must return normalized states (len(phis), dim);
    prior_fn(phis) the prior density, zero outside `support`. The band
    kept on each side starts at 16 cycles per unit phi and is doubled
    while the out-of-band spectral mass exceeds 1e-8: a fixed mass
    deficit eps would otherwise bias the bound by -eps bits per window
    doubling and fake a drift.

    Returns the last window's fourier_bound_from_states report as method
    "fourier-nonperiodic", history the (window, bits) pairs, and flags
    "finite_support", "band_widened" (the band was doubled),
    "slow_convergence" (the last doubling moved 1e-4 to 1e-3 bits), then
    the states report's own: "truncated_spectrum" if the band missed 1e-9
    to 1e-8 of the mass, as a Gaussian sigma = 0.1 prior on (-0.5, 0.5)
    does (9.0e-9). Raises ValidationError for a support end that is not
    finite and for a window whose grid would exceed MAX_POINTS, before
    prior_fn sees it; NumericalFailureError if the band cannot be made
    wide enough or the last doubling moved more than 1e-3 bits.
    """
    a, b_end = float(support[0]), float(support[1])
    if not b_end > a:
        raise ValidationError("support must be a nonempty interval (a, b)")
    mid = 0.5 * (a + b_end)
    history = []
    k_band = 16.0
    window = 4.0 * (b_end - a)
    # an infinite end, or a width whose band count is past float range;
    # a finite one too wide for the grid cap is refused in the loop
    if not math.isfinite(k_band * window):
        raise ValidationError("support must be a finite interval")
    for _ in range(7):
        for _ in range(7):
            n_side = int(np.ceil(k_band * window))
            n_grid = max(4 * n_side + 2, 256)  # even, as the grids need
            check_points(n_grid, f"window {window:g}: grid")
            h = window / n_grid
            phis = mid - 0.5 * window + np.arange(n_grid) * h
            dens = np.clip(np.asarray(prior_fn(phis), dtype=float), 0.0, None)
            dens[(phis < a) | (phis > b_end)] = 0.0
            mass = dens.sum() * h
            if mass <= 0.0:
                raise ValidationError("prior density vanishes on its support")
            if abs(mass - 1.0) > 1e-3:
                raise ValidationError(
                    f"prior mass on support is {mass:.6g}, expected about 1")
            prior = PriorDensity(window, dens / mass)  # renormalized exactly
            family = StateFamily(window, family_fn(phis))
            rep = fourier_bound_from_states(family, prior, (-n_side, n_side))
            if rep.tail_mass_bound <= 1e-8:
                break
            k_band *= 2.0
        else:
            raise NumericalFailureError(
                "spectral band cannot be widened enough to capture the family")
        delta = abs(rep.bound_bits - history[-1][1]) if history else math.inf
        history.append((window, rep.bound_bits))
        if delta < 1e-4:
            break
        window *= 2.0
    else:  # seven windows and the last doubling still moved the bound
        if delta > 1e-3:
            raise NumericalFailureError(
                f"window doubling still moves the bound by {delta:.3g} bits")
    flags = ("finite_support",)
    if k_band > 16.0:
        flags += ("band_widened",)
    if delta >= 1e-4:
        flags += ("slow_convergence",)
    return rep._replace(method="fourier-nonperiodic", flags=flags + rep.flags,
                        history=tuple(history))


def mle_lower_bound(fisher: float) -> BoundReport:
    """Asymptotic achievable information 0.5 log2(F / (2 pi e)) on a
    period-1 prior, F the total Fisher information of all repetitions.

    Large-F maximum-likelihood performance; meaningful once F is well
    above 2 pi e, hence the "asymptotic" flag.
    """
    if not fisher > 0.0:  # fails on NaN too
        raise ValidationError("fisher must be positive for the MLE estimate")
    return BoundReport(method="mle-lower", prior_entropy_bits=0.0,
                       bound_bits=0.5 * math.log2(fisher / (TWO_PI * math.e)),
                       flags=("asymptotic",))


MLE_GAP_LIMIT_BITS = math.log2(math.e / 2.0)  # about 0.4427


def companion_bound_comparison(fisher: float):
    """The Fisher-route bound against two weaker closed forms.

    Returns (fisher_form, sqrt_form, reference_form), sigma^2 = F / 16 pi^2:
      fisher_form    = 0.5 log2(1 + 2 pi e sigma^2), the Fisher route
      sqrt_form      = log2(1 + sqrt(2 pi e sigma^2))
      reference_form = log2(1 + 0.5 sqrt(F))
    with fisher_form <= sqrt_form <= reference_form for every F >= 0.
    """
    if not fisher >= 0.0:  # fails on NaN too
        raise ValidationError("fisher must be nonnegative")
    sigma2 = fisher_sigma2(fisher)
    fisher_form = fisher_curve_bits(sigma2)
    sqrt_form = math.log1p(math.sqrt(TWO_PI * math.e * sigma2)) / LN2
    reference_form = math.log1p(0.5 * math.sqrt(fisher)) / LN2
    return fisher_form, sqrt_form, reference_form


def entropic_uncertainty_check(c):
    """Number/phase entropic uncertainty for amplitudes c_k, k = 0..len-1.

    Returns (phase_entropy_bits, number_entropy_bits, total_bits) where
    the phase entropy is the differential entropy of
    p(theta) = |sum_k c_k e^(i 2 pi k theta)|^2 and the number entropy is
    the Shannon entropy of |c_k|^2, on max(8192, 2 len(c)) points. The
    total is never below zero up to quadrature error; it approaches zero
    for single-mode states.
    """
    c = np.asarray(c, dtype=complex)
    weights = np.abs(c) ** 2
    if abs(weights.sum() - 1.0) > 1e-8:
        raise ValidationError("amplitudes must satisfy sum |c_k|^2 = 1")
    density = coefficients_to_density(c, max(8192, 2 * c.size))
    # the synthesized density integrates to sum |c|^2 exactly (Parseval)
    phase_entropy = differential_entropy(density)
    number_entropy = entropy_bits_of_weights(weights)
    return phase_entropy, number_entropy, phase_entropy + number_entropy
