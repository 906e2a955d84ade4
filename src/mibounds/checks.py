"""Check registry behind the `check` CLI command and the acceptance criteria.

Each check is one function, registered in SUITES under its suite, that
tests one documented property of the library against a threshold written
once, in its body. The acceptance criteria call the same functions on
larger domains: a domain value a criterion widens is a keyword argument
whose default is the `check` domain (small, fast and seeded).
A check returns a CheckResult. run_suite passes each check the run
values its signature names: `rng`, one generator seeded by `seed` and
shared by the suite's checks in order, `seed` and `trials`; so suites
are deterministic for a fixed seed.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

import numpy as np

from .bounds import (
    EstimationModel,
    MLE_GAP_LIMIT_BITS,
    PriorDensity,
    companion_bound_comparison,
    entropic_uncertainty_check,
    fisher_bound,
    fourier_bound_from_overlap,
    mle_lower_bound,
    nonperiodic_fourier_bound,
    sigma_squared,
)
from .channels import (
    CHANNEL_KINDS,
    NoisyQpeModel,
    chi_closed_form,
    dephasing_qfi,
    overlap_function,
    purified_state_family,
)
from .errors import ValidationError
from .numerics import (
    PeriodicGridFunction,
    discrete_gaussian_fit,
    entropy_bits_of_weights,
    fourier_modes,
    gaussian_entropy_vs_bound,
)
from .protocols import (
    EntangledState,
    circulant_mi,
    covariant_posterior,
    fourier_bound_ceiling,
    optimize_en_state,
    posterior_entropy,
    random_seed_pair,
    two_seed_experiment,
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


SUITES = {"numerics": [], "bounds": [], "channels": [], "protocols": []}


def _check(suite):
    """Register a check returning (passed, detail) as suite.<its name>."""
    def register(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            passed, detail = fn(*args, **kwargs)
            return CheckResult(suite, fn.__name__, bool(passed), detail)
        SUITES[suite].append(run)
        return run
    return register


@_check("numerics")
def trig_poly_exact():
    """Exact weights of a trigonometric polynomial with known modes."""
    coeffs = {0: 0.3, 1: 0.5, -2: 0.2, 5: -0.4}
    grid = PeriodicGridFunction.from_callable(
        lambda p: sum(c * np.exp(2j * np.pi * k * p) for k, c in coeffs.items()),
        1.0, 256,
    )
    ks, modes = fourier_modes(grid, (-8, 8))
    weights = dict(zip(ks.tolist(), np.abs(modes) ** 2))
    err = max(abs(weights[k] - c * c) for k, c in coeffs.items())
    return err < 1e-12, f"max weight error {err:.3e}"


@_check("numerics")
def parseval_tail(rng):
    """Parseval on a random normalized mode vector; the tail never grows."""
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    c /= np.linalg.norm(c)
    f = PeriodicGridFunction.from_callable(
        lambda p: sum(ck * np.exp(2j * np.pi * k * p) for k, ck in enumerate(c)),
        1.0, 128,
    )
    masses = []
    tails = []
    for k_hi in (8, 12, 16):
        mass = float((np.abs(fourier_modes(f, (-2, k_hi))[1]) ** 2).sum())
        masses.append(mass)
        tails.append(max(0.0, 1.0 - mass))
    ok = abs(masses[-1] - 1.0) < 1e-8 and all(
        t2 <= t1 + 1e-12 for t1, t2 in zip(tails, tails[1:])
    )
    return ok, f"mass {masses[-1]:.12f}, tails {tails}"


@_check("numerics")
def gaussian_fit_constraints():
    """exp(-lam k^2) / Z on the solver's support meets both constraints."""
    worst = 0.0
    for s2 in (0.25, 1.0, 25.0):
        lam, _ = discrete_gaussian_fit(s2)
        k_max = int(10.0 * np.sqrt(s2) + 12.0)
        k2 = np.arange(-k_max, k_max + 1).astype(float) ** 2
        weights = np.exp(-lam * k2)
        weights /= weights.sum()
        worst = max(worst, abs(weights.sum() - 1.0),
                    abs((k2 * weights).sum() - s2) / s2)
    return worst < 1e-10, f"worst constraint error {worst:.3e}"


@_check("numerics")
def entropy_vs_bound_scan():
    """Max-entropy spectrum entropy stays under 0.5 log2(1 + 2 pi e s^2)."""
    table = gaussian_entropy_vs_bound(np.logspace(-2, 2, 200))
    margins = np.array([row[3] for row in table])
    i_min = int(np.argmin(margins))
    return margins.min() >= -1e-9, (
        f"min margin {margins.min():.3e} bits at sigma={table[i_min][0]:.4g}, "
        f"{int((margins < -1e-9).sum())}/{len(table)} rows below -1e-9"
    )


@_check("numerics")
def entropy_concavity(rng):
    """Shannon entropy is concave on random pairs of distributions."""
    worst = np.inf
    for _ in range(20):
        p = rng.random(16)
        q = rng.random(16)
        p /= p.sum()
        q /= q.sum()
        lam = rng.random()
        mix = lam * p + (1 - lam) * q
        worst = min(worst, entropy_bits_of_weights(mix)
                    - lam * entropy_bits_of_weights(p)
                    - (1 - lam) * entropy_bits_of_weights(q))
    return worst > -1e-12, f"min concavity gap {worst:.3e}"


@_check("bounds")
def fisher_closed_form():
    """Fisher route on the exactly solvable constant-Fisher model."""
    rep = fisher_bound(PriorDensity.uniform(1.0, 4096),
                       fisher_avg=4.0 * np.pi**2)
    expected = 0.5 * np.log2(1.0 + np.e * np.pi / 2.0)
    return (abs(rep.bound_bits - expected) < 1e-12,
            f"bound {rep.bound_bits:.12f} vs {expected:.12f}")


@_check("bounds")
def sigma2_cosine_model():
    """sigma^2 of the cosine two-outcome model approaches 1/4."""
    prior = PriorDensity.uniform(1.0, 4096)
    phis = prior.grid
    cond = np.stack(
        [np.cos(np.pi * phis) ** 2, np.sin(np.pi * phis) ** 2], axis=1
    )
    s2, flags = sigma_squared(prior, model=EstimationModel(prior, cond))
    return abs(s2 - 0.25) < 1e-5 and not flags, f"sigma2 {s2:.8f}"


@_check("bounds")
def fourier_below_fisher(ms=(1, 2, 3), n_grid=None):
    """The spectral route (overlaps on n_grid) never exceeds the Fisher one."""
    worst = np.inf
    for kind in CHANNEL_KINDS:
        for m in ms:
            for eta in (0.25, 0.5, 0.75, 1.0):
                fr = fourier_bound_from_overlap(
                    overlap_function(NoisyQpeModel(kind, m, eta), n_grid))
                fb = fisher_bound(
                    PriorDensity.uniform(1.0, 512),
                    sigma2=fr.spectrum.second_moment(),
                )
                worst = min(worst, fb.bound_bits - fr.bound_bits)
    return worst > -1e-9, f"min fisher-fourier gap {worst:.3e} bits"


@_check("bounds")
def companion_ordering():
    """0.5 log2(1+eF/8pi) < log2(1+sqrt(eF/8pi)) < log2(1+sqrt(F)/2)."""
    worst = np.inf
    for fval in np.logspace(-2, 6, 100):
        lo, mid, hi = companion_bound_comparison(float(fval))
        worst = min(worst, mid - lo, hi - mid)
    return worst > 0.0, (f"min strict separation {worst:.3e} bits over "
                         f"100 F values")


@_check("bounds")
def mle_gap_limit(n_grid=4096):
    """The Fisher-MLE gap falls strictly to within 0.01 bits of log2(e/2)."""
    prior = PriorDensity.uniform(1.0, n_grid)
    gaps = [fisher_bound(prior, fisher_avg=nf).bound_bits
            - mle_lower_bound(nf).bound_bits
            for nf in (1e2, 1e3, 1e4, 1e5, 1e6)]
    falling = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    return falling and abs(gaps[-1] - MLE_GAP_LIMIT_BITS) < 0.01, (
        f"gap {gaps[0]:.4f} -> {gaps[-1]:.6f} at NF=1e+06 vs "
        f"{MLE_GAP_LIMIT_BITS:.6f}, strictly falling={falling}"
    )


def _narrow_gaussian(x):
    sig = 0.05
    return np.exp(-x**2 / (2 * sig**2)) / (sig * np.sqrt(2 * np.pi))


@_check("bounds")
def nonperiodic_window_doubling():
    """Finite-support embedding: the last window doubling settles."""
    ks = np.arange(21)
    amps = np.ones(21) / np.sqrt(21.0)
    fam = lambda x: np.exp(2j * np.pi * np.outer(x, ks)) * amps
    rep = nonperiodic_fourier_bound(fam, _narrow_gaussian, (-0.5, 0.5))
    deltas = [abs(b2 - b1) for (_, b1), (_, b2) in zip(rep.history,
                                                       rep.history[1:])]
    return bool(deltas) and deltas[-1] < 1e-4, (
        f"bound {rep.bound_bits:.7f} bits, last doubling moved "
        f"{deltas[-1]:.3e} bits"
    )


@_check("bounds")
def nonperiodic_flat_family():
    """A phase-independent family floors at the minimum-uncertainty value."""
    const = lambda x: np.tile(np.array([1.0 + 0j, 0.0]), (len(x), 1))
    rep = nonperiodic_fourier_bound(const, _narrow_gaussian, (-0.5, 0.5))
    floor = float(np.log2(np.e / 2.0))
    return abs(rep.bound_bits - floor) < 1e-6, (
        f"bound {rep.bound_bits:.9f} vs min-uncertainty floor {floor:.9f}"
    )


@_check("bounds")
def entropic_uncertainty(rng, n_states=200, n_max=63):
    """Phase/number entropy sum is nonnegative on random states, N <= n_max."""
    worst = np.inf
    for _ in range(n_states):
        n = int(rng.integers(2, n_max + 2))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c /= np.linalg.norm(c)
        worst = min(worst, entropic_uncertainty_check(c)[2])
    return worst > -1e-6, f"min entropy sum {worst:.3e} bits"


@_check("channels")
def closed_form_vs_numeric(ms=range(1, 7), etas=np.linspace(0.0, 1.0, 5)):
    """Closed-form chi agrees with the overlap route's FFT spectrum."""
    worst = 0.0
    for kind in CHANNEL_KINDS:
        for m in ms:
            for eta in etas:
                model = NoisyQpeModel(kind, m, float(eta))
                numeric = fourier_bound_from_overlap(overlap_function(model))
                worst = max(worst, abs(numeric.bound_bits
                                       - chi_closed_form(model)))
    return worst < 1e-8, f"max |difference| {worst:.3e} bits"


@_check("channels")
def noiseless_saturation(ms=range(1, 11)):
    """chi(dephasing, M, eta = 1) = M bits."""
    worst = max(abs(chi_closed_form(NoisyQpeModel("dephasing", m, 1.0)) - m)
                for m in ms)
    return worst < 1e-12, f"max |chi - M| {worst:.3e} bits"


@_check("channels")
def purification_overlap():
    """The purified family reproduces the product overlap pointwise."""
    worst = 0.0
    for kind in CHANNEL_KINDS:
        model = NoisyQpeModel(kind, 3, 0.7)
        f_direct = overlap_function(model, 256)
        phis = f_direct.grid[::8]  # aligned subset, no interpolation error
        states = purified_state_family(model, phis)
        f_from_states = states @ states[0].conj()
        worst = max(worst, float(np.max(np.abs(
            f_from_states - f_direct.values[::8]))))
    return worst < 1e-8, f"max |mismatch| {worst:.3e}"


@_check("channels")
def qfi_monotone_in_M():
    """The dephasing QFI grows with the qubit count."""
    qfis = [dephasing_qfi(NoisyQpeModel("dephasing", m, 0.9))
            for m in range(1, 6)]
    ok = all(q2 > q1 > 0.0 for q1, q2 in zip(qfis, qfis[1:]))
    return ok, f"QFI(M=1..5) = {[f'{q:.4g}' for q in qfis]}"


@_check("protocols")
def mi_entropy_duality(rng):
    """Circulant MI equals minus the posterior entropy."""
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        c = rng.standard_normal(n)
        c /= np.linalg.norm(c)
        state = EntangledState(c)
        ent = posterior_entropy(state, 512)
        mi = circulant_mi(covariant_posterior(state, 512).values)
        worst = max(worst, abs(mi + ent))
    return worst < 1e-6, f"max |MI + H| {worst:.3e} bits"


@_check("protocols")
def ceiling_respected(rng):
    """Information never exceeds the spectrum-entropy ceiling."""
    worst = np.inf
    for _ in range(50):
        n = int(rng.integers(2, 33))
        c = rng.standard_normal(n)
        c /= np.linalg.norm(c)
        state = EntangledState(c)
        worst = min(worst, fourier_bound_ceiling(state)
                    + posterior_entropy(state))
    return worst > -1e-6, f"min ceiling slack {worst:.3e} bits"


@_check("protocols")
def optimizer_improves(seed, n_values=(7,), restarts=4):
    """Optimized states gain 1e-3 bits on flat weights, under log2(N + 1)."""
    ok = True
    details = []
    for n_calls in n_values:
        _, entropy, mi, _ = optimize_en_state(n_calls, restarts=restarts,
                                              seed=seed)
        gain = posterior_entropy(EntangledState.uniform(n_calls)) - entropy
        ceiling = np.log2(n_calls + 1)
        ok = ok and gain >= 1e-3 and mi <= ceiling + 1e-6
        details.append(f"N={n_calls}: gain {gain:.4f}, mi {mi:.4f} "
                       f"<= {ceiling:.0f}")
    return ok, "; ".join(details)


@_check("protocols")
def two_seed_inequalities(rng, trials=100):
    """Merging seeds never beats the single seed nor the split pair, and
    the split pair never beats the single seed."""
    worst_always = worst_conv = worst_wonder = np.inf
    failures = 0
    for _ in range(int(trials)):
        pair = random_seed_pair(int(rng.integers(2, 5)), rng)
        res = two_seed_experiment(pair, 256)
        worst_always = min(worst_always, res.mi_single - res.mi_merged)
        worst_conv = min(worst_conv, res.mi_split - res.mi_merged)
        worst_wonder = min(worst_wonder, res.mi_single - res.mi_split)
        if (not res.always_ok) or (not res.fromconv_ok) or res.wonder_violated:
            failures += 1
    return failures == 0, (
        f"{failures}/{trials} violations; min margins: merged<=single "
        f"{worst_always:.3e}, merged<=split {worst_conv:.3e}, "
        f"split<=single {worst_wonder:.3e}"
    )


def run_suite(name, seed=0, trials=100):
    """Run one named suite (or `all`) and return CheckResult rows."""
    if int(trials) < 1:
        raise ValidationError("trials must be at least 1")
    if name == "all":
        return [row for suite in SUITES
                for row in run_suite(suite, seed=seed, trials=trials)]
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}")
    context = {"rng": np.random.default_rng(seed), "seed": seed,
               "trials": trials}
    return [
        check(**{k: v for k, v in context.items()
                 if k in inspect.signature(check).parameters})
        for check in SUITES[name]
    ]
