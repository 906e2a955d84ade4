"""Periodic-grid numerics: Fourier weights, entropies, max-entropy spectra.

Conventions used throughout the package:

* a function on a period-L interval is sampled at phi_j = j*L/G for
  j = 0..G-1 (uniform grid, no endpoint duplication), and integrals are
  rectangle sums (L/G) * sum(...), which are spectrally accurate for
  smooth periodic integrands;
* Fourier index k runs over the integers, with linear coefficient
  c_k = (1/L) * integral f(phi) exp(-i 2 pi k phi / L) dphi;
* every entropy is reported in bits; internally entropies are accumulated
  with natural logs and divided by LN2 once.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GridTooCoarseError,
    NonNormalizedDensityError,
    NumericalFailureError,
    ValidationError,
)

LN2 = float(np.log(2.0))
TWO_PI = 2.0 * np.pi

# weights this far below zero are treated as roundoff and clipped
NEGATIVE_WEIGHT_TOL = 1e-10


def entropy_bits_of_weights(w):
    """-sum w*log2(w) with the 0*log(0) = 0 convention; w need not sum to 1."""
    w = np.asarray(w, dtype=float)
    if np.any(w < -NEGATIVE_WEIGHT_TOL):
        raise ValidationError("negative weight beyond roundoff tolerance")
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(-(w * np.log(w)).sum() / LN2)


def check_periodic_grid(n_grid):
    """A periodic grid has an even number of points, at least 2: even G
    keeps the Nyquist bookkeeping in the FFT paths unambiguous."""
    if n_grid < 2 or n_grid % 2 != 0:
        raise ValidationError("grid size must be even and at least 2")


# the most points the package allocates for one grid or integer support
# (64 MiB of complex128); a larger request is bad input, refused before
# anything is allocated
MAX_POINTS = 2**22


def check_points(n_points, what):
    if n_points > MAX_POINTS:
        raise DomainError(
            f"{what} of {n_points} points exceeds the {MAX_POINTS}-point cap"
        )


@dataclass(frozen=True)
class PeriodicGridFunction:
    """Samples of a period-L function at phi_j = j*L/G, j = 0..G-1."""

    period: float
    values: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.period) and self.period > 0.0):
            raise ValidationError("period must be finite and positive")
        vals = np.atleast_1d(np.asarray(self.values))
        if vals.ndim != 1:
            raise ValidationError("values must be a one-dimensional array")
        check_periodic_grid(vals.size)
        if not np.all(np.isfinite(vals)):
            raise ValidationError("values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def n_grid(self):
        return self.values.size

    @property
    def grid(self):
        return np.arange(self.n_grid) * (self.period / self.n_grid)

    @classmethod
    def from_callable(cls, fn, period, n_grid):
        phis = np.arange(n_grid) * (period / n_grid)
        return cls(period, np.asarray(fn(phis)))


@dataclass(frozen=True)
class FourierSpectrum:
    """Nonnegative Fourier weights f_k on an integer index window.

    tail_mass_bound is 1 - sum(weights) when the originating function
    carried unit Parseval mass, so weights outside [k_min, k_max] can hold
    at most that much probability; it is 0.0 when no such normalization
    was available.
    """

    ks: np.ndarray
    weights: np.ndarray
    tail_mass_bound: float = 0.0

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=int)
        w = np.asarray(self.weights, dtype=float).copy()
        if ks.shape != w.shape or ks.ndim != 1:
            raise ValidationError("ks and weights must be matching 1-d arrays")
        if np.any(w < -NEGATIVE_WEIGHT_TOL):
            raise ValidationError("spectrum weight below -1e-10")
        w[w < 0.0] = 0.0
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "weights", w)
        if not (0.0 <= self.tail_mass_bound <= 1.0 + 1e-9):
            raise ValidationError("tail_mass_bound outside [0, 1]")

    def total_mass(self):
        return float(self.weights.sum())

    def entropy_bits(self):
        return entropy_bits_of_weights(self.weights)

    def second_moment(self):
        """sum_k k^2 f_k over the stored window."""
        return float((self.ks.astype(float) ** 2 * self.weights).sum())


def _check_alias_window(n_grid, k_min, k_max):
    # rectangle-rule projections alias k and k +/- G; keep the requested
    # window well inside one alias period
    if k_min > k_max:
        raise ValidationError("k_min must not exceed k_max")
    need = 2 * (abs(k_min) + abs(k_max)) + 2
    if n_grid < need:
        raise GridTooCoarseError(
            f"grid of {n_grid} points cannot resolve k in [{k_min}, {k_max}]"
            f" (needs at least {need})"
        )


def fourier_modes(f: PeriodicGridFunction, k_range):
    """Linear Fourier coefficients c_k = (1/L) integral f e^(-i2pi k phi/L).

    Parameters
    ----------
    f : PeriodicGridFunction
    k_range : (k_min, k_max) inclusive integer window

    Returns
    -------
    ks : int array
    coeffs : complex array

    Exact (to roundoff) for trigonometric polynomials whose modes fit in
    the anti-aliasing window G >= 2*(|k_min| + |k_max|) + 2.
    """
    k_min, k_max = int(k_range[0]), int(k_range[1])
    g = f.n_grid
    _check_alias_window(g, k_min, k_max)
    ks = np.arange(k_min, k_max + 1)
    dft = np.fft.fft(f.values) / g  # index m holds c_m for 0 <= m < G
    return ks, dft[np.mod(ks, g)]


def differential_entropy(density: PeriodicGridFunction) -> float:
    """-integral p log2 p over one period by the rectangle rule, in bits.

    Requires real nonnegative samples integrating to 1 within 1e-6.
    May be negative for densities concentrated below unit scale.
    """
    vals = density.values
    if np.iscomplexobj(vals):
        if np.max(np.abs(vals.imag)) > 1e-12:
            raise ValidationError("density has a non-negligible imaginary part")
        vals = vals.real
    if np.any(vals < -1e-12):
        raise ValidationError("density has negative samples")
    p = np.clip(vals, 0.0, None)
    h = density.period / density.n_grid
    total = float(p.sum() * h)
    if abs(total - 1.0) > 1e-6:
        raise NonNormalizedDensityError(
            f"density integrates to {total:.9g}, expected 1 within 1e-6"
        )
    pos = p[p > 0.0]
    return float(-(pos * np.log(pos)).sum() * h / LN2)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2(1-x) on [0, 1], in bits."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"binary entropy argument {x!r} outside [0, 1]")
    out = 0.0
    if 0.0 < x:
        out -= x * np.log(x)
    if x < 1.0:
        out -= (1.0 - x) * np.log(1.0 - x)
    return float(out / LN2)


def synthesized_density(c, n_grid):
    """|sum_k c_k e^(i 2 pi j k / G)|^2 at j = 0..G-1 for G >= len(c), by
    one zero-padded FFT: raw samples for any G, without validation."""
    padded = np.zeros(n_grid, dtype=complex)
    padded[: c.size] = c
    return np.abs(np.fft.ifft(padded) * n_grid) ** 2


def coefficients_to_density(c, n_grid) -> PeriodicGridFunction:
    """Density |sum_k c_k e^(i 2 pi k theta)|^2 on a period-1 grid.

    c holds complex amplitudes for k = 0..len(c)-1; synthesis is done by
    zero-padded FFT, exact for n_grid >= 2*len(c).
    """
    c = np.asarray(c, dtype=complex)
    n_grid = int(n_grid)
    if n_grid < 2 * c.size:
        raise GridTooCoarseError(
            f"synthesis grid {n_grid} too coarse for {c.size} amplitudes"
        )
    return PeriodicGridFunction(1.0, synthesized_density(c, n_grid))


def discrete_gaussian_fit(sigma2: float):
    """Max-entropy integer spectrum with unit mass and second moment sigma2.

    The maximizer is the discrete Gaussian f_k = exp(-lam k^2) / Z (Jaynes,
    Phys. Rev. 106, 620 (1957)), returned as f_k = exp(-k^2 / (2 b^2)) /
    (sqrt(2 pi) c) with b = 1/sqrt(2 lam) and c = Z / sqrt(2 pi). Newton
    steps in log lam solve log m(lam) = log sigma2 for the second moment m,
    with d log m / d log lam = -lam Var(k^2) / m, starting from
    lam = 1/(2 sigma2) when sigma2 >= 1/4 and from the three-point value
    log(2 (1 - sigma2) / sigma2) below it. log m is summed in log space,
    so a subnormal sigma2 (lam near 745) loses nothing; at most four
    evaluations were needed over 3300 log-spaced sigma2 in [5e-324, 1e9].
    The support is |k| <= 10 sigma + 12, where the dropped weights are
    below exp(-50) of the peak.

    Returns
    -------
    b, c : floats of the fitted form
    spectrum : FourierSpectrum with the fitted weights

    Raises
    ------
    DomainError if sigma2 is negative or not finite, or if the support
    needs more than MAX_POINTS points (sigma above about 2.1e5), before it
    is allocated; NumericalFailureError if the fitted spectrum misses
    either constraint by more than 1e-10.
    """
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise DomainError("sigma2 must be finite and nonnegative")
    if sigma2 == 0.0:
        # degenerate limit: all mass at k = 0
        spectrum = FourierSpectrum(np.array([0]), np.array([1.0]))
        return 0.0, 1.0 / np.sqrt(TWO_PI), spectrum

    k_max = int(10.0 * np.sqrt(sigma2) + 12.0)
    check_points(2 * k_max + 1, f"sigma2={sigma2:g}: integer support")
    k2 = np.arange(1, k_max + 1, dtype=float) ** 2
    log_target = np.log(sigma2)
    if sigma2 >= 0.25:
        lam = 0.5 / sigma2
    else:
        lam = np.log(2.0 * (1.0 - sigma2)) - log_target
    for _ in range(50):
        # u_k = exp(-lam (k^2 - 1)) for k >= 1 has u_1 = 1, so the sums
        # never underflow; exp(-lam) enters only through log1p
        u = np.exp(-lam * (k2 - 1.0))
        s0, s2, s4 = u.sum(), (k2 * u).sum(), (k2 * k2 * u).sum()
        log_m = np.log(2.0 * s2) - lam - np.log1p(2.0 * np.exp(-lam) * s0)
        step = (log_m - log_target) / (-lam * (s4 / s2 - np.exp(log_m)))
        lam *= np.exp(-step)
        # quadratic convergence: after a step this small log lam is at
        # roundoff, where further steps only flip its last bit
        if abs(step) <= 1e-10:
            break

    ks = np.arange(-k_max, k_max + 1)
    weights = np.exp(-lam * ks.astype(float) ** 2)
    z = float(weights.sum())
    spectrum = FourierSpectrum(ks, weights / z, tail_mass_bound=0.0)

    # both constraints must hold to 1e-10 relative or the fit is no good
    mass = spectrum.total_mass()
    moment = spectrum.second_moment()
    if abs(mass - 1.0) > 1e-10 or abs(moment - sigma2) > 1e-10 * max(sigma2, 1e-30):
        raise NumericalFailureError(
            f"constraints not met: mass={mass:.15g}, moment={moment:.15g}"
        )
    return float(1.0 / np.sqrt(2.0 * lam)), float(z / np.sqrt(TWO_PI)), spectrum


def gaussian_entropy_vs_bound(sigma_grid):
    """Entropy of the fitted Gauss-like spectrum against 0.5*log2(1+2 pi e s^2).

    Returns a list of (sigma, entropy_bits, bound_bits, margin_bits) rows,
    margin = bound - entropy. No sign is enforced here: the reference
    curve dips below the achievable entropy for sigma under about 0.034,
    and the rows report whatever comes out.
    """
    rows = []
    for sigma in np.asarray(sigma_grid, dtype=float):
        _, _, spectrum = discrete_gaussian_fit(sigma * sigma)
        entropy = spectrum.entropy_bits()
        bound = 0.5 * np.log2(1.0 + TWO_PI * np.e * sigma * sigma)
        rows.append((float(sigma), entropy, float(bound), float(bound - entropy)))
    return rows
