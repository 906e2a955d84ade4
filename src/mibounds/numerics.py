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

Records (here PeriodicGridFunction and FourierSpectrum) are immutable
named tuples that validate and normalize their fields in __new__. They
compare as tuples, _asdict gives their fields, and _replace builds a
copy through the same checks.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._lazy import np
from .errors import NumericalFailureError, ValidationError

LN2 = math.log(2.0)
TWO_PI = 2.0 * math.pi

# weights this far below zero are treated as roundoff and clipped
NEGATIVE_WEIGHT_TOL = 1e-10


def entropy_bits_of_weights(w):
    """-sum w*log2(w) along the last axis with the 0*log(0) = 0 convention;
    w need not sum to 1. A 1-d w gives a float, a (..., n) w one entropy
    per row; both sum every term, so a row gives its 1-d value exactly.
    A point mass gives +0.0."""
    w = np.asarray(w, dtype=float)
    if (w < -NEGATIVE_WEIGHT_TOL).any():
        raise ValidationError("negative weight beyond roundoff tolerance")
    xlogx = np.log(np.where(w > 0.0, w, 1.0))  # log 1 = 0 gives 0 log 0 = 0
    xlogx *= w
    h = -xlogx.sum(axis=-1) / LN2 + 0.0  # the sum is -0.0 for a point mass
    return float(h) if w.ndim == 1 else h


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
        raise ValidationError(
            f"{what} of {n_points} points exceeds the {MAX_POINTS}-point cap")


def record(typename, field_names):
    """A named-tuple base for a record that validates in its __new__:
    _make, and so _replace, build through that __new__ too."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


class PeriodicGridFunction(record("PeriodicGridFunction", "period values")):
    """Samples of a period-L function at phi_j = j*L/G, j = 0..G-1."""

    __slots__ = ()

    def __new__(cls, period, values):
        if not (np.isfinite(period) and period > 0.0):
            raise ValidationError("period must be finite and positive")
        vals = np.atleast_1d(np.asarray(values))
        if vals.ndim != 1:
            raise ValidationError("values must be a one-dimensional array")
        check_periodic_grid(vals.size)
        if not np.all(np.isfinite(vals)):
            raise ValidationError("values must be finite")
        return super().__new__(cls, period, vals)

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


class FourierSpectrum(record("FourierSpectrum", "ks weights")):
    """Nonnegative Fourier weights f_k on an integer index window; weights
    down to -1e-10 are roundoff and clipped to 0."""

    __slots__ = ()

    def __new__(cls, ks, weights):
        ks = np.asarray(ks, dtype=int)
        w = np.asarray(weights, dtype=float)
        if ks.shape != w.shape or ks.ndim != 1:
            raise ValidationError("ks and weights must be matching 1-d arrays")
        if np.any(w < -NEGATIVE_WEIGHT_TOL):
            raise ValidationError("spectrum weight below -1e-10")
        return super().__new__(cls, ks, np.clip(w, 0.0, None))

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
        raise ValidationError(
            f"grid of {n_grid} points cannot resolve k in [{k_min}, {k_max}]"
            f" (needs at least {need})")


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
    # an overflow to inf or NaN stays quiet: the callers' checks refuse it
    with np.errstate(over="ignore", invalid="ignore"):
        dft = np.fft.fft(f.values) / g  # index m holds c_m for 0 <= m < G
    return ks, dft[np.mod(ks, g)]


def differential_entropy(density: PeriodicGridFunction) -> float:
    """-integral p log2 p = h * entropy_bits_of_weights(p) over one period
    by the rectangle rule of step h, in bits; may be negative.

    The package's one density rule: samples below -1e-12 are refused, the
    rest clipped to 0, and they must integrate to 1 within 1e-6.
    """
    if np.any(density.values < -1e-12):
        raise ValidationError("density has negative samples")
    p = np.clip(density.values, 0.0, None)
    h = density.period / density.n_grid
    total = float(p.sum() * h)
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(
            f"density integrates to {total:.9g}, expected 1 within 1e-6")
    return h * entropy_bits_of_weights(p)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2(1-x) on [0, 1], in bits."""
    if not (0.0 <= x <= 1.0):
        raise ValidationError(f"binary entropy argument {x!r} outside [0, 1]")
    out = 0.0
    if 0.0 < x:
        out -= x * math.log(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log(1.0 - x)
    return float(out / LN2)


def fisher_curve_bits(sigma2: float) -> float:
    """Fisher curve 0.5 log2(1 + 2 pi e sigma^2); log1p keeps a tiny sigma2."""
    return 0.5 * math.log1p(TWO_PI * math.e * sigma2) / LN2


def fisher_sigma2(fisher: float) -> float:
    """The Fisher route's scale sigma^2 = F / (16 pi^2) on the unit period."""
    return 1.0 / (16.0 * math.pi**2) * fisher


def synthesized_density(c, n_grid):
    """|sum_k c_k e^(i 2 pi j k / G)|^2 at j = 0..G-1 for G >= K, along
    the last axis of c: a (..., K) c gives (..., G) densities from one
    zero-padded FFT, row for row the 1-d values. Raw samples for any G,
    without validation."""
    return np.abs(np.fft.ifft(c, n_grid) * n_grid) ** 2


def coefficients_to_density(c, n_grid) -> PeriodicGridFunction:
    """Density |sum_k c_k e^(i 2 pi k theta)|^2 on a period-1 grid.

    c holds complex amplitudes for k = 0..len(c)-1; synthesis is done by
    zero-padded FFT, exact for n_grid >= 2*len(c).
    """
    c = np.asarray(c, dtype=complex)
    n_grid = int(n_grid)
    if n_grid < 2 * c.size:
        raise ValidationError(
            f"synthesis grid {n_grid} too coarse for {c.size} amplitudes")
    return PeriodicGridFunction(1.0, synthesized_density(c, n_grid))


def discrete_gaussian_fit(sigma2: float):
    """(lam, H*) of the max-entropy integer spectrum with unit mass and
    second moment sigma2, the discrete Gaussian f_k = exp(-lam k^2) / Z.

    Its entropy H* = (lam sigma2 + ln Z) / ln 2 (Jaynes, Phys. Rev. 106,
    620 (1957)) comes from the dual solve; no spectrum is built. Newton
    steps in log lam solve log m(lam) = log sigma2 for the second moment m,
    with d log m / d log lam = -lam Var(k^2) / m, starting from
    lam = 1/(2 sigma2) when sigma2 >= 1/4 and from the three-point value
    log(2 (1 - sigma2) / sigma2) below it. log m is summed in log space,
    so a subnormal sigma2 (lam near 745) loses nothing; at most four
    evaluations were needed over 3300 log-spaced sigma2 in [5e-324, 1e9].
    The one-sided sums run over 1 <= k <= 10 sigma + 12, where the dropped
    weights are below exp(-50) of the peak. sigma2 = 0 gives (inf, 0.0).

    Raises ValidationError if sigma2 is negative or not finite, or if the
    support needs more than MAX_POINTS points (sigma above about 2.1e5),
    before anything is allocated; NumericalFailureError if the second
    moment at the returned lam misses sigma2 by more than 1e-10 relative.
    The mass is 1 by construction.
    """
    if not (np.isfinite(sigma2) and sigma2 >= 0.0):
        raise ValidationError("sigma2 must be finite and nonnegative")
    if sigma2 == 0.0:
        return float("inf"), 0.0

    k_max = int(10.0 * np.sqrt(sigma2) + 12.0)
    check_points(2 * k_max + 1, f"sigma2={sigma2:g}: integer support")
    k2 = np.arange(1, k_max + 1, dtype=float) ** 2
    log_target = np.log(sigma2)

    def dual_sums(lam):
        # u_k = exp(-lam (k^2 - 1)) for k >= 1 has u_1 = 1, so the sums
        # never underflow; exp(-lam) enters only through ln Z = log1p(...)
        u = np.exp(-lam * (k2 - 1.0))
        s0, s2, s4 = u.sum(), (k2 * u).sum(), (k2 * k2 * u).sum()
        log_z = np.log1p(2.0 * np.exp(-lam) * s0)
        return s2, s4, log_z, np.log(2.0 * s2) - lam - log_z

    if sigma2 >= 0.25:
        lam = 0.5 / sigma2
    else:
        lam = np.log(2.0 * (1.0 - sigma2)) - log_target
    for _ in range(50):
        s2, s4, _, log_m = dual_sums(lam)
        step = (log_m - log_target) / (-lam * (s4 / s2 - np.exp(log_m)))
        lam *= np.exp(-step)
        # quadratic convergence: after a step this small log lam is at
        # roundoff, where further steps only flip its last bit
        if abs(step) <= 1e-10:
            break

    # the moment and ln Z at the returned lam, not at the last iterate
    _, _, log_z, log_m = dual_sums(lam)
    moment = np.exp(log_m)
    if abs(moment - sigma2) > 1e-10 * max(sigma2, 1e-30):
        raise NumericalFailureError(
            f"second moment {moment:.15g} misses sigma2={sigma2:.15g}"
        )
    return float(lam), float((lam * sigma2 + log_z) / LN2)


def gaussian_entropy_vs_bound(sigma_grid):
    """Entropy of the fitted Gauss-like spectrum against 0.5*log2(1+2 pi e s^2).

    Returns a list of (sigma, entropy_bits, bound_bits, margin_bits) rows,
    margin = bound - entropy. No sign is enforced here: the reference
    curve dips below the achievable entropy for sigma under about 0.034,
    and the rows report whatever comes out.
    """
    rows = []
    for sigma in np.asarray(sigma_grid, dtype=float):
        _, entropy = discrete_gaussian_fit(sigma * sigma)
        bound = fisher_curve_bits(sigma * sigma)
        rows.append((float(sigma), entropy, bound, bound - entropy))
    return rows
