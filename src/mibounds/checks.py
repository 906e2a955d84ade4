"""Invariant suites behind the `check` CLI command.

Every check is a small, fast, seeded computation that exercises one
documented property of the library and reports pass/fail with a short
numeric detail string. Suites are deterministic for a fixed seed.
"""

from __future__ import annotations

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
    chi_numeric,
    dephasing_qfi,
    overlap_function,
    purified_state_family,
)
from .errors import ValidationError
from .numerics import (
    PeriodicGridFunction,
    discrete_gaussian_fit,
    entropy_bits_of_weights,
    fourier_coefficients,
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


def _result(suite, name, passed, detail):
    return CheckResult(suite, name, bool(passed), detail)


def run_numerics_checks(seed=0):
    results = []

    # exactness on a trigonometric polynomial with known weights
    coeffs = {0: 0.3, 1: 0.5, -2: 0.2, 5: -0.4}
    grid = PeriodicGridFunction.from_callable(
        lambda p: sum(c * np.exp(2j * np.pi * k * p) for k, c in coeffs.items()),
        1.0,
        256,
    )
    spec = fourier_coefficients(grid, (-8, 8))
    err = max(
        abs(spec.as_dict().get(k, 0.0) - c * c) for k, c in coeffs.items()
    )
    results.append(_result("numerics", "trig_poly_exact", err < 1e-12,
                           f"max weight error {err:.3e}"))

    # Parseval on a random normalized mode vector; tail never grows with range
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    c /= np.linalg.norm(c)
    f = PeriodicGridFunction.from_callable(
        lambda p: sum(ck * np.exp(2j * np.pi * k * p) for k, ck in enumerate(c)),
        1.0, 128,
    )
    masses = []
    tails = []
    for k_hi in (8, 12, 16):
        s = fourier_coefficients(f, (-2, k_hi))
        masses.append(s.total_mass())
        tails.append(s.tail_mass_bound)
    ok = abs(masses[-1] - 1.0) < 1e-8 and all(
        t2 <= t1 + 1e-12 for t1, t2 in zip(tails, tails[1:])
    )
    results.append(_result("numerics", "parseval_tail", ok,
                           f"mass {masses[-1]:.12f}, tails {tails}"))

    # two-constraint discrete-Gaussian solver
    worst = 0.0
    for s2 in (0.25, 1.0, 25.0):
        _, _, spectrum = discrete_gaussian_fit(s2)
        worst = max(
            worst,
            abs(spectrum.total_mass() - 1.0),
            abs(spectrum.second_moment() - s2) / s2,
        )
    results.append(_result("numerics", "gaussian_fit_constraints",
                           worst < 1e-10, f"worst constraint error {worst:.3e}"))

    # entropy of the fit against the closed-form ceiling over the scan
    table = gaussian_entropy_vs_bound(np.logspace(-2, 2, 200))
    margins = np.array([row[3] for row in table])
    i_min = int(np.argmin(margins))
    results.append(_result(
        "numerics", "entropy_vs_bound_scan", margins.min() >= -1e-9,
        f"min margin {margins.min():.3e} bits at sigma={table[i_min][0]:.4g} "
        f"({int((margins < -1e-9).sum())}/200 below tolerance)",
    ))

    # Shannon entropy concavity on random pairs
    worst = np.inf
    for _ in range(20):
        p = rng.random(16)
        q = rng.random(16)
        p /= p.sum()
        q /= q.sum()
        lam = rng.random()
        mix = lam * p + (1 - lam) * q
        worst = min(
            worst,
            entropy_bits_of_weights(mix)
            - lam * entropy_bits_of_weights(p)
            - (1 - lam) * entropy_bits_of_weights(q),
        )
    results.append(_result("numerics", "entropy_concavity", worst > -1e-12,
                           f"min concavity gap {worst:.3e}"))
    return results


def _three_outcome_model(n_grid=4096):
    """Smooth three-outcome measurement used as the Fisher-route workload."""
    prior = PriorDensity.uniform(1.0, n_grid)
    phis = prior.grid
    alphas = (0.9, -0.5, -0.4)
    cond = np.stack(
        [(1.0 + a * np.cos(2.0 * np.pi * phis)) / 3.0 for a in alphas], axis=1
    )
    return EstimationModel(prior, cond)


def run_bounds_checks(seed=0):
    results = []

    # Fisher route on the exactly solvable constant-Fisher model
    prior = PriorDensity.uniform(1.0, 4096)
    rep = fisher_bound(prior, fisher_avg=4.0 * np.pi**2)
    expected = 0.5 * np.log2(1.0 + np.e * np.pi / 2.0)
    results.append(_result(
        "bounds", "fisher_closed_form",
        abs(rep.bound_bits - expected) < 1e-12,
        f"bound {rep.bound_bits:.12f} vs {expected:.12f}",
    ))

    # sigma^2 of the cosine two-outcome model approaches 1/4
    phis = prior.grid
    cond = np.stack(
        [np.cos(np.pi * phis) ** 2, np.sin(np.pi * phis) ** 2], axis=1
    )
    s2, flags = sigma_squared(prior, model=EstimationModel(prior, cond))
    results.append(_result("bounds", "sigma2_cosine_model",
                           abs(s2 - 0.25) < 1e-5 and not flags,
                           f"sigma2 {s2:.8f}"))

    # spectral route never exceeds the Fisher route on the channels
    worst = np.inf
    for kind in CHANNEL_KINDS:
        for m in (1, 2, 3):
            for eta in (0.25, 0.5, 0.75, 1.0):
                model = NoisyQpeModel(kind, m, eta)
                fr = fourier_bound_from_overlap(overlap_function(model))
                fb = fisher_bound(
                    PriorDensity.uniform(1.0, 512),
                    sigma2=fr.spectrum.second_moment(),
                )
                worst = min(worst, fb.bound_bits - fr.bound_bits)
    results.append(_result("bounds", "fourier_below_fisher", worst > -1e-9,
                           f"min fisher-fourier gap {worst:.3e} bits"))

    # companion-bound ordering over a log grid
    worst = np.inf
    for fval in np.logspace(-2, 6, 100):
        lo, mid, hi = companion_bound_comparison(fval)
        worst = min(worst, mid - lo, hi - mid)
    results.append(_result("bounds", "companion_ordering", worst > 0.0,
                           f"min separation {worst:.3e} bits"))

    # MLE gap decreases toward log2(e/2)
    prior_gap = None
    ok = True
    for nf in (1e2, 1e3, 1e4, 1e5, 1e6):
        up = fisher_bound(prior, fisher_avg=nf)
        lo = mle_lower_bound(1, nf)
        gap = up.bound_bits - lo.bound_bits
        if prior_gap is not None and gap > prior_gap:
            ok = False
        prior_gap = gap
    ok = ok and abs(prior_gap - MLE_GAP_LIMIT_BITS) < 0.01
    results.append(_result("bounds", "mle_gap_limit", ok,
                           f"gap at NF=1e6: {prior_gap:.6f} vs "
                           f"{MLE_GAP_LIMIT_BITS:.6f}"))

    # finite-support embedding: window doubling settles, flat family floors
    sig = 0.05
    gauss = lambda x: np.exp(-x**2 / (2 * sig**2)) / (sig * np.sqrt(2 * np.pi))
    ks = np.arange(21)
    amps = np.ones(21) / np.sqrt(21.0)
    fam = lambda x: np.exp(2j * np.pi * np.outer(x, ks)) * amps
    rep = nonperiodic_fourier_bound(fam, gauss, (-0.5, 0.5))
    deltas = [abs(b2 - b1) for (_, b1), (_, b2) in zip(rep.history,
                                                       rep.history[1:])]
    results.append(_result("bounds", "nonperiodic_window_doubling",
                           deltas and deltas[-1] < 1e-4,
                           f"last doubling moved {deltas[-1]:.3e} bits"))
    const = lambda x: np.tile(np.array([1.0 + 0j, 0.0]), (len(x), 1))
    rep0 = nonperiodic_fourier_bound(const, gauss, (-0.5, 0.5))
    floor = float(np.log2(np.e / 2.0))
    results.append(_result(
        "bounds", "nonperiodic_flat_family",
        abs(rep0.bound_bits - floor) < 1e-6,
        f"bound {rep0.bound_bits:.9f} vs min-uncertainty floor {floor:.9f}",
    ))

    # phase/number entropic uncertainty on random states
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(200):
        n = int(rng.integers(2, 65))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c /= np.linalg.norm(c)
        worst = min(worst, entropic_uncertainty_check(c)[2])
    results.append(_result("bounds", "entropic_uncertainty", worst > -1e-6,
                           f"min entropy sum {worst:.3e} bits"))
    return results


def run_channels_checks(seed=0):
    results = []

    worst = 0.0
    for kind in CHANNEL_KINDS:
        for m in range(1, 7):
            for eta in np.linspace(0.0, 1.0, 5):
                model = NoisyQpeModel(kind, m, float(eta))
                worst = max(worst, abs(chi_numeric(model)
                                       - chi_closed_form(model)))
    results.append(_result("channels", "closed_form_vs_numeric",
                           worst < 1e-8, f"max |difference| {worst:.3e} bits"))

    worst = 0.0
    for m in range(1, 11):
        worst = max(worst, abs(chi_closed_form(
            NoisyQpeModel("dephasing", m, 1.0)) - m))
    results.append(_result("channels", "noiseless_saturation", worst < 1e-12,
                           f"max |chi - M| {worst:.3e} bits"))

    # purification reproduces the product overlap pointwise
    worst = 0.0
    for kind in CHANNEL_KINDS:
        model = NoisyQpeModel(kind, 3, 0.7)
        f_direct = overlap_function(model, 256)
        phis = f_direct.grid[::8]  # aligned subset, no interpolation error
        states = purified_state_family(model, phis)
        f_from_states = states @ states[0].conj()
        worst = max(worst, float(np.max(np.abs(
            f_from_states - f_direct.values[::8]))))
    results.append(_result("channels", "purification_overlap", worst < 1e-8,
                           f"max |mismatch| {worst:.3e}"))

    qfis = [dephasing_qfi(m, 0.9) for m in range(1, 6)]
    ok = all(q2 > q1 > 0.0 for q1, q2 in zip(qfis, qfis[1:]))
    results.append(_result("channels", "qfi_monotone_in_M", ok,
                           f"QFI(M=1..5) = {[f'{q:.4g}' for q in qfis]}"))
    return results


def run_protocols_checks(seed=0, trials=100):
    results = []
    rng = np.random.default_rng(seed)

    # duality: circulant MI equals minus the posterior entropy
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        c = rng.standard_normal(n)
        c /= np.linalg.norm(c)
        state = EntangledState(c)
        ent = posterior_entropy(state, 512)
        mi = circulant_mi(covariant_posterior(state, 512).values)
        worst = max(worst, abs(mi + ent))
    results.append(_result("protocols", "mi_entropy_duality", worst < 1e-6,
                           f"max |MI + H| {worst:.3e} bits"))

    # information never exceeds the spectrum-entropy ceiling
    worst = np.inf
    for _ in range(50):
        n = int(rng.integers(2, 33))
        c = rng.standard_normal(n)
        c /= np.linalg.norm(c)
        state = EntangledState(c)
        worst = min(worst, fourier_bound_ceiling(state)
                    + posterior_entropy(state))
    results.append(_result("protocols", "ceiling_respected", worst > -1e-6,
                           f"min ceiling slack {worst:.3e} bits"))

    # optimizer beats the uniform start and stays below the ceiling
    state, ent, mi, _ = optimize_en_state(7, restarts=4, seed=seed)
    ent_uniform = posterior_entropy(EntangledState.uniform(7))
    ok = ent <= ent_uniform - 1e-4 and mi <= np.log2(8.0) + 1e-6
    results.append(_result("protocols", "optimizer_improves", ok,
                           f"entropy {ent:.6f} vs uniform {ent_uniform:.6f}"))

    # two-seed bookkeeping over seeded random pairs
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
    results.append(_result(
        "protocols", "two_seed_inequalities", failures == 0,
        f"{failures}/{trials} violations; min margins: merged<=single "
        f"{worst_always:.3e}, merged<=split {worst_conv:.3e}, "
        f"split<=single {worst_wonder:.3e}",
    ))
    return results


SUITES = {
    "numerics": run_numerics_checks,
    "bounds": run_bounds_checks,
    "channels": run_channels_checks,
    "protocols": run_protocols_checks,
}


def run_suite(name, seed=0, trials=100):
    """Run one named suite (or `all`) and return CheckResult rows."""
    if int(trials) < 1:
        raise ValidationError("trials must be at least 1")
    if name == "all":
        rows = []
        for suite in ("numerics", "bounds", "channels", "protocols"):
            rows.extend(run_suite(suite, seed=seed, trials=trials))
        return rows
    if name not in SUITES:
        raise ValidationError(f"unknown suite {name!r}")
    if name == "protocols":
        return SUITES[name](seed=seed, trials=trials)
    return SUITES[name](seed=seed)
