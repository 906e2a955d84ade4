"""Acceptance gate: twelve numbered criteria, one verdict line each.

Each test prints `criterion NN <name>: PASS/FAIL (...)` and then asserts,
so the pytest report carries exactly one pass/fail line per criterion.
Criteria 01-07, 09 and 11 run a check of the `mibounds.checks` registry
on their own, larger domain; each keeps only its time budget, its line
and its assert, so every invariant and threshold is written once, in the
registry. Criterion 10 adds a states-versus-overlap route comparison to
the registry's fourier_below_fisher check. Criterion 08 is written here
on top of `mibounds.qpe_strategy`: it calls enhancement_term,
block_size_crossing and optimal_block_size rather than its own argmax.
Criterion 12 runs `figure` and `check` twice through the CLI. Criterion 03 fails by design: the reference curve
0.5*log2(1+2 pi e s^2) genuinely dips below the max-entropy spectrum
entropy for sigma under about 0.034, and the scan reports that instead of
hiding it.
"""

import time

import numpy as np

from mibounds import checks
from mibounds.bounds import (
    PriorDensity,
    StateFamily,
    fourier_bound_from_overlap,
    fourier_bound_from_states,
)
from mibounds.channels import (
    CHANNEL_KINDS,
    NoisyQpeModel,
    overlap_function,
    purified_state_family,
)
from mibounds.cli import main
from mibounds.qpe_strategy import (
    block_size_crossing,
    enhancement_term,
    optimal_block_size,
)


def _verdict(number, name, passed, detail):
    line = f"criterion {number:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return line


def _criterion(number, name, budget_s, check, **domain):
    """Run a registry check on the criterion's domain; a budget_s of None
    sets no time limit."""
    t0 = time.monotonic()
    result = check(**domain)
    elapsed = time.monotonic() - t0
    ok = result.passed and (budget_s is None or elapsed < budget_s)
    line = _verdict(number, name, ok, f"{result.detail}, {elapsed:.1f} s")
    assert ok, line


def test_criterion_01_noiseless_saturation():
    """chi(dephasing, M, eta=1) = M bits exactly for M = 1..20, under 1 s."""
    _criterion(1, "noiseless-saturation", 1.0, checks.noiseless_saturation,
               ms=range(1, 21))


def test_criterion_02_closed_form_vs_numeric():
    """Closed-form chi agrees with the overlap route across the channel
    grid, M <= 8."""
    _criterion(2, "oracle-equivalence", 30.0, checks.closed_form_vs_numeric,
               ms=range(1, 9), etas=np.linspace(0.0, 1.0, 11))


def test_criterion_03_entropy_under_reference_curve():
    """Spectrum entropy vs 0.5*log2(1+2 pi e sigma^2) over 200 sigma values.

    Fails honestly: the reference curve undershoots the max-entropy
    spectrum for sigma below about 0.034 (worst around -5.8e-4 bits near
    sigma = 0.02), so the registry's margin floor cannot hold there.
    """
    _criterion(3, "entropy-vs-reference-curve", 10.0,
               checks.entropy_vs_bound_scan)


def test_criterion_04_mle_gap_limit():
    """Upper-lower gap falls strictly to log2(e/2) on a 2048-point prior."""
    _criterion(4, "gap-convergence", None, checks.mle_gap_limit, n_grid=2048)


def test_criterion_05_companion_bound_ordering():
    """0.5 log2(1+eF/8pi) <= log2(1+sqrt(eF/8pi)) <= log2(1+sqrt(F)/2)."""
    _criterion(5, "bound-chain-ordering", None, checks.companion_ordering)


def test_criterion_06_entropic_uncertainty():
    """1000 seeded random states with N <= 64 keep H(error)+H(weights) >= 0."""
    _criterion(6, "entropic-uncertainty", 60.0, checks.entropic_uncertainty,
               rng=np.random.default_rng(2024), n_states=1000, n_max=64)


def test_criterion_07_en_optimization():
    """Optimized states beat flat weights at N = 7, 31, 255 within budget."""
    _criterion(7, "en-optimization", 300.0, checks.optimizer_improves,
               seed=7, n_values=(7, 31, 255), restarts=8)


def test_criterion_08_transition_structure():
    """Block enhancement: increasing in M at eta=1, M=1 leads at strong noise."""
    at_one = [enhancement_term(m, 1.0) for m in range(1, 6)]
    increasing = all(v2 > v1 for v1, v2 in zip(at_one, at_one[1:]))

    crossings = {m: block_size_crossing(1, m) for m in (2, 3, 4, 5)}
    located = True
    for m, c in crossings.items():
        below = enhancement_term(1, c - 1e-6) - enhancement_term(m, c - 1e-6)
        above = enhancement_term(1, c + 1e-6) - enhancement_term(m, c + 1e-6)
        located = located and below > 0.0 > above

    # below every crossing the single-qubit block is the best of M <= 5
    eta_star = min(crossings.values())
    leads = all(optimal_block_size(float(eta), m_max=5) == 1
                for eta in np.linspace(0.05, eta_star - 1e-4, 40))
    ok = increasing and located and eta_star > 0.0 and leads
    line = _verdict(8, "transition-structure", ok,
                    f"eta* = {eta_star:.9f} (M=1 vs 2 at "
                    f"{crossings[2]:.9f}), crossings bracketed to 1e-6")
    assert ok, line


def test_criterion_09_two_seed_experiment():
    """120 seeded seed-pair trials: merging never beats the single seed or
    the split pair, and splitting never beats the single seed."""
    _criterion(9, "two-seed-experiment", 300.0, checks.two_seed_inequalities,
               rng=np.random.default_rng(77), trials=120)


def test_criterion_10_path_consistency():
    """States route == overlap route; spectral bound <= Fisher bound."""
    t0 = time.monotonic()
    worst_eq = 0.0
    prior = PriorDensity.uniform(1.0, 512)
    for kind in CHANNEL_KINDS:
        for m in range(1, 7):
            for eta in (0.25, 0.5, 0.75, 1.0):
                model = NoisyQpeModel(kind, m, eta)
                family = StateFamily(
                    1.0, purified_state_family(model, prior.grid)
                )
                k_side = model.n_calls + 2
                rep_states = fourier_bound_from_states(
                    family, prior, (-k_side, k_side)
                )
                rep_overlap = fourier_bound_from_overlap(
                    overlap_function(model, 512)
                )
                worst_eq = max(
                    worst_eq,
                    abs(rep_states.bound_bits - rep_overlap.bound_bits),
                )
    ordering = checks.fourier_below_fisher(ms=range(1, 7), n_grid=512)
    elapsed = time.monotonic() - t0
    ok = worst_eq < 1e-8 and ordering.passed
    line = _verdict(10, "path-consistency", ok,
                    f"max route mismatch {worst_eq:.3e} bits, "
                    f"{ordering.detail}, {elapsed:.1f} s")
    assert ok, line


def test_criterion_11_nonperiodic_stability():
    """Window doubling settles the finite-support bound."""
    _criterion(11, "nonperiodic-stability", None,
               checks.nonperiodic_window_doubling)


def test_criterion_12_determinism(tmp_path, capsys):
    """Repeated figure and check commands write byte-identical CSVs."""
    fig_dir = tmp_path / "fig"
    fig_args = ["figure", "b_sigma", "--n-sigma", "25",
                "--out-dir", str(fig_dir), "--svg", "--seed", "0"]
    assert main(fig_args) == 0
    csv_1 = (fig_dir / "b_sigma.csv").read_bytes()
    svg_1 = (fig_dir / "b_sigma.svg").read_bytes()
    assert main(fig_args) == 0
    same_fig = (
        (fig_dir / "b_sigma.csv").read_bytes() == csv_1
        and (fig_dir / "b_sigma.svg").read_bytes() == svg_1
    )

    chk_path = tmp_path / "checks.csv"
    chk_args = ["check", "protocols", "--trials", "20", "--seed", "5",
                "--out", str(chk_path)]
    assert main(chk_args) == 0
    chk_1 = chk_path.read_bytes()
    assert main(chk_args) == 0
    same_chk = chk_path.read_bytes() == chk_1
    capsys.readouterr()

    ok = same_fig and same_chk
    line = _verdict(12, "determinism", ok,
                    f"figure identical={same_fig}, check identical={same_chk}")
    assert ok, line
