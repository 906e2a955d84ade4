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
    BracketFailureError,
    DomainError,
    GridTooCoarseError,
    NonNormalizedDensityError,
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
    normalized: bool = True

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

    def as_dict(self):
        return {int(k): float(w) for k, w in zip(self.ks, self.weights)}


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


def fourier_coefficients(f: PeriodicGridFunction, k_range) -> FourierSpectrum:
    """Squared-magnitude Fourier weights |c_k|^2 of a grid function.

    Treats f as a scalar state family under the uniform prior, so the
    weight at index k is |(1/L) integral f e^(-i 2 pi k phi / L) dphi|^2.
    The weights sum to the mean square (1/L) integral |f|^2 dphi; only
    when that mass is 1 does tail_mass_bound report 1 - sum(weights).
    """
    ks, coeffs = fourier_modes(f, k_range)
    w = np.abs(coeffs) ** 2
    parseval_mass = float(np.mean(np.abs(f.values) ** 2))
    normalized = abs(parseval_mass - 1.0) <= 1e-8
    tail = max(0.0, 1.0 - float(w.sum())) if normalized else 0.0
    return FourierSpectrum(ks, w, tail_mass_bound=tail, normalized=normalized)


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


def _gauss_cut(b):
    """Support half-width: terms below 1e-18 of the peak are dropped."""
    return int(np.ceil(b * np.sqrt(2.0 * np.log(1e18)))) + 2


def _gauss_sums(b):
    """S0 = sum exp(-k^2/2b^2) and S2 = sum k^2 exp(-k^2/2b^2) over integers.

    The discarded tail beyond _gauss_cut(b) is smaller than the returned
    values by many orders of magnitude.
    """
    if b <= 0.0:
        return 1.0, 0.0
    k_cut = _gauss_cut(b)
    k = np.arange(-k_cut, k_cut + 1, dtype=float)
    w = np.exp(-(k * k) / (2.0 * b * b))
    return float(w.sum()), float((k * k * w).sum())


def discrete_gaussian_fit(sigma2: float):
    """Gauss-like integer spectrum with unit mass and second moment sigma2.

    Solves f_k = exp(-k^2 / (2 b^2)) / (sqrt(2 pi) c) subject to
    sum f_k = 1 and sum k^2 f_k = sigma2, bisecting on b (the map
    b -> second moment is monotone).

    Returns
    -------
    b, c : floats of the fitted form
    spectrum : FourierSpectrum with the fitted weights

    Raises
    ------
    DomainError if the bracket end would need an integer support of more
    than MAX_POINTS points; BracketFailureError if the bracket
    [max(sigma/10, 1e-6), 10 sigma + 10] does not straddle the target.
    """
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise DomainError("sigma2 must be finite and nonnegative")
    if sigma2 == 0.0:
        # degenerate limit: all mass at k = 0
        spectrum = FourierSpectrum(np.array([0]), np.array([1.0]))
        return 0.0, 1.0 / np.sqrt(TWO_PI), spectrum

    sigma = float(np.sqrt(sigma2))
    lo, hi = max(sigma / 10.0, 1e-6), 10.0 * sigma + 10.0
    # the bracket end b = 10 sigma + 10 reaches the cap at sigma ~ 2.3e4
    check_points(2 * _gauss_cut(hi) + 1, f"sigma2={sigma2:g}: integer support")

    def excess(b):
        s0, s2 = _gauss_sums(b)
        return s2 / s0 - sigma2

    if not (excess(lo) < 0.0 < excess(hi)):
        raise BracketFailureError(
            f"no sign change for sigma2={sigma2:g} on [{lo:g}, {hi:g}]"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    b = 0.5 * (lo + hi)

    s0, s2 = _gauss_sums(b)
    c = s0 / np.sqrt(TWO_PI)
    k_cut = _gauss_cut(b)
    ks = np.arange(-k_cut, k_cut + 1)
    weights = np.exp(-(ks.astype(float) ** 2) / (2.0 * b * b)) / s0
    spectrum = FourierSpectrum(ks, weights, tail_mass_bound=0.0)

    # both constraints must hold to 1e-10 relative or the fit is no good
    mass = spectrum.total_mass()
    moment = spectrum.second_moment()
    if abs(mass - 1.0) > 1e-10 or abs(moment - sigma2) > 1e-10 * max(sigma2, 1e-30):
        raise BracketFailureError(
            f"constraints not met: mass={mass:.15g}, moment={moment:.15g}"
        )
    return float(b), float(c), spectrum


def gaussian_entropy_vs_bound(sigma_grid):
    """Entropy of the fitted Gauss-like spectrum against 0.5*log2(1+2 pi e s^2).

    Returns a list of (sigma, entropy_bits, bound_bits, margin_bits) rows,
    margin = bound - entropy. No sign is enforced here: the reference
    curve is known to dip below the achievable entropy for sigma roughly
    under 0.037, and the rows report whatever comes out.
    """
    rows = []
    for sigma in np.asarray(sigma_grid, dtype=float):
        _, _, spectrum = discrete_gaussian_fit(sigma * sigma)
        entropy = spectrum.entropy_bits()
        bound = 0.5 * np.log2(1.0 + TWO_PI * np.e * sigma * sigma)
        rows.append((float(sigma), entropy, float(bound), float(bound - entropy)))
    return rows
