"""Entangled covariant protocols: posteriors, optimization, seed splitting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from mibounds import protocols
from mibounds.errors import DomainError, GridTooCoarseError, ValidationError
from mibounds.protocols import (
    EntangledState,
    SeedPair,
    circulant_mi,
    covariant_posterior,
    default_grid,
    discrete_mi,
    fourier_bound_ceiling,
    optimize_en_state,
    posterior_entropy,
    random_seed_pair,
    two_seed_experiment,
)


def test_entangled_state_validation():
    with pytest.raises(ValidationError):
        EntangledState(np.array([1.0, 1.0]))  # norm sqrt(2)
    st = EntangledState.uniform(3)
    assert st.n_calls == 3
    assert np.allclose(st.coefficients, 0.5)
    for bad in (np.nan, np.inf):  # fails closed: NaN compares False
        with pytest.raises(ValidationError):
            EntangledState(np.array([bad, 0.0]))


def test_posterior_is_fejer_kernel_for_uniform_weights():
    """Flat amplitudes give the Fejer kernel error density."""
    for n_calls in (1, 3, 6):
        n = n_calls + 1
        post = covariant_posterior(EntangledState.uniform(n_calls), 512)
        theta = post.grid
        num = np.sin(np.pi * n * theta) ** 2
        den = n * np.sin(np.pi * theta) ** 2
        want = np.divide(num, den, out=np.full(512, float(n)), where=den > 1e-300)
        assert np.max(np.abs(post.values - want)) < 1e-9
        assert abs(post.values.mean() - 1.0) < 1e-12


def test_uniform_posterior_entropies():
    # single call: H = -log2(e/2) up to quadrature error
    h1 = posterior_entropy(EntangledState.uniform(1))
    assert abs(h1 - (-np.log2(np.e / 2.0))) < 1e-9
    # three calls on a fine grid, frozen reference value
    h3 = posterior_entropy(EntangledState.uniform(3), 65536)
    assert abs(h3 - (-1.1258392552595438)) < 1e-10


def test_fourier_bound_ceiling():
    for n_calls in (1, 3, 15):
        st = EntangledState.uniform(n_calls)
        assert abs(fourier_bound_ceiling(st) - np.log2(n_calls + 1)) < 1e-12


def test_posterior_entropy_grid_guard():
    with pytest.raises(GridTooCoarseError):
        posterior_entropy(EntangledState.uniform(7), 8)
    assert default_grid(7) == 128


def test_mi_never_exceeds_ceiling():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n_calls = int(rng.integers(1, 12))
        c = rng.standard_normal(n_calls + 1)
        c /= np.linalg.norm(c)
        st = EntangledState(c)
        mi = -posterior_entropy(st)
        assert mi <= fourier_bound_ceiling(st) + 1e-9


def test_optimizer_recovers_single_call_optimum():
    """For one call the flat state (1,1)/sqrt(2) is already optimal."""
    st, entropy, mi, trace = optimize_en_state(1, restarts=4, seed=0)
    assert np.max(np.abs(np.abs(st.coefficients) - 1.0 / np.sqrt(2.0))) < 1e-6
    assert abs(entropy - (-np.log2(np.e / 2.0))) < 1e-8
    assert abs(mi + entropy) < 1e-15
    assert len(trace) == 4


def test_optimizer_known_small_optima():
    # two calls: cosine-window profile (1/2, 1/sqrt(2), 1/2)
    st2, e2, _, _ = optimize_en_state(2, restarts=4, seed=0)
    assert np.max(np.abs(st2.coefficients - np.array(
        [0.5, 1.0 / np.sqrt(2.0), 0.5]))) < 1e-5
    assert abs(e2 - (-0.8853900818788714)) < 1e-7
    # three calls: frozen optimum, symmetric profile
    st3, e3, _, _ = optimize_en_state(3, restarts=4, seed=0)
    assert abs(e3 - (-1.2397963176231686)) < 1e-7
    c3 = st3.coefficients
    assert np.max(np.abs(c3 - c3[::-1])) < 1e-5


def test_optimizer_beats_flat_weights():
    st, entropy, mi, _ = optimize_en_state(7, restarts=6, seed=0)
    uniform = posterior_entropy(EntangledState.uniform(7))
    assert entropy < uniform - 0.2  # about 0.21 bits at N = 7
    assert mi <= fourier_bound_ceiling(st) + 1e-9
    assert st.coefficients.sum() > 0.0


def test_optimizer_calls_module_minimize_once_per_start(monkeypatch):
    """optimize_en_state resolves protocols.minimize at call time, so a
    rebinding of the module attribute sees every restart."""
    results = []
    original = protocols.minimize

    def counting(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(protocols, "minimize", counting)
    optimize_en_state(7, restarts=2)
    assert len(results) == 2
    for res in results:  # the fields the benchmark tracer reads
        assert res.nit >= 1 and res.nfev >= res.nit and res.success is True


def _scipy_minimize(fun, x0, *, ftol, gtol, maxiter):
    """Oracle: scipy's L-BFGS-B without bounds, on the same options."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, jac=True, method="L-BFGS-B",
                          options={"ftol": ftol, "gtol": gtol,
                                   "maxiter": maxiter})


@pytest.mark.parametrize("n_calls", [1, 2, 3, 7, 31, 255])
def test_lbfgs_matches_scipy_lbfgsb(monkeypatch, n_calls):
    """Same starts, grid and stop options: the in-package L-BFGS and
    scipy's L-BFGS-B reach the same entropies, and ours spends at most
    5 % more objective evaluations."""
    runs = {}
    for name, fn in (("ours", protocols.minimize), ("scipy", _scipy_minimize)):
        log = []

        def recording(*args, fn=fn, log=log, **kwargs):
            log.append(fn(*args, **kwargs))
            return log[-1]

        monkeypatch.setattr(protocols, "minimize", recording)
        runs[name] = optimize_en_state(n_calls, restarts=8, seed=3), log
    (ours, ours_log), (oracle, oracle_log) = runs["ours"], runs["scipy"]
    assert abs(ours[1] - oracle[1]) <= 1e-10
    assert np.max(np.abs(np.array(ours[3]) - np.array(oracle[3]))) <= 1e-10
    assert all(res.success for res in ours_log + oracle_log)
    nfev = [sum(res.nfev for res in log) for log in (ours_log, oracle_log)]
    assert nfev[0] <= 1.05 * nfev[1]


def _rosenbrock(x):
    a, b = x
    value = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    grad = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                     200.0 * (b - a * a)])
    return value, grad


def test_lbfgs_solves_rosenbrock():
    res = protocols.minimize(_rosenbrock, [-1.2, 1.0], ftol=1e-15,
                             gtol=1e-10, maxiter=1000)
    assert res.success and res.message
    assert np.max(np.abs(res.x - 1.0)) <= 1e-6
    assert res.fun == _rosenbrock(res.x)[0]
    assert 1 <= res.nit < res.nfev


def test_lbfgs_reports_maxiter_as_not_converged():
    res = protocols.minimize(_rosenbrock, [-1.2, 1.0], ftol=1e-15,
                             gtol=1e-10, maxiter=2)
    assert res.success is False and "maxiter" in res.message
    assert res.nit == 2 and res.nfev >= 3


def test_lbfgs_stops_at_a_stationary_start():
    res = protocols.minimize(_rosenbrock, [1.0, 1.0], ftol=1e-12,
                             gtol=1e-9, maxiter=10)
    assert res.success and res.nit == 0 and res.nfev == 1


def _full_spectrum_oracle(c, n_grid):
    """Oracle: entropy in bits and its gradient in c by complex FFTs over
    the whole grid, the form the optimizer used before the half spectrum."""
    padded = np.zeros(n_grid, dtype=complex)
    padded[: c.size] = c
    amp = np.fft.ifft(padded) * n_grid
    p = np.abs(amp) ** 2
    logp = np.log(np.maximum(p, 1e-300))
    val = -(p * logp).sum() / (n_grid * np.log(2.0))
    w = (1.0 + logp) * np.conj(amp)
    g_c = -(2.0 / np.log(2.0)) * np.real(np.fft.ifft(w)[: c.size])
    return float(val), g_c


@settings(max_examples=40, deadline=None)
@given(n=hst.integers(1, 300), flat=hst.booleans(),
       seed=hst.integers(0, 2**32 - 1), grid_frac=hst.floats(0.0, 1.0))
def test_half_spectrum_matches_full_spectrum_oracle(n, flat, seed, grid_frac):
    """Even and odd grids in [2n, 8n+8]; flat states put exact zeros in p."""
    n_grid = 2 * n + int(round(grid_frac * (6 * n + 8)))
    if flat:
        c = np.full(n, 1.0 / np.sqrt(n))
    else:
        c = np.random.default_rng(seed).standard_normal(n)
        c /= np.linalg.norm(c)
    val, g_c = protocols._entropy_and_grad(c, n_grid, grad=True)
    want_val, want_g = _full_spectrum_oracle(c, n_grid)
    assert abs(val - want_val) < 1e-12
    assert val == protocols._entropy_and_grad(c, n_grid)
    assert np.linalg.norm(g_c - want_g) <= 1e-12 * np.linalg.norm(want_g)


def test_projected_gradient_matches_finite_differences():
    """Central differences of H(x / |x|), the optimizer's objective."""
    rng = np.random.default_rng(17)

    def objective(x):
        return protocols._entropy_and_grad(x / np.linalg.norm(x), n_grid)

    for n, n_grid in ((2, 6), (5, 17), (12, 64), (40, 333)):
        x = rng.standard_normal(n) + 0.5
        r = np.linalg.norm(x)
        c = x / r
        _, g_c = protocols._entropy_and_grad(c, n_grid, grad=True)
        g_x = (g_c - (g_c @ c) * c) / r
        for _ in range(3):
            d = rng.standard_normal(n)
            h = 1e-6
            fd = (objective(x + h * d) - objective(x - h * d)) / (2.0 * h)
            assert abs(fd - g_x @ d) < 1e-6 * max(1.0, abs(fd))


@pytest.mark.parametrize("n_calls, n_grid", [(3, 9), (5, 16), (7, None)])
def test_optimizer_entropy_is_posterior_entropy(n_calls, n_grid):
    """Optimizer and posterior_entropy evaluate one shared objective."""
    state, entropy, _, trace = optimize_en_state(n_calls, restarts=2,
                                                 n_grid=n_grid)
    assert entropy == posterior_entropy(state, n_grid) == min(trace)


def test_optimizer_and_posterior_entropy_run_no_complex_fft(monkeypatch):
    """Real amplitudes need only the real-input transforms."""
    calls = []
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    state = optimize_en_state(31, restarts=2)[0]
    posterior_entropy(state)
    posterior_entropy(EntangledState.uniform(31), 65)
    assert calls == []


def test_optimizer_deterministic_per_seed():
    a = optimize_en_state(4, restarts=3, seed=11)
    b = optimize_en_state(4, restarts=3, seed=11)
    assert np.array_equal(a[0].coefficients, b[0].coefficients)
    assert a[1] == b[1] and a[3] == b[3]


def test_discrete_mi_matches_posterior_entropy():
    """MI of the circulant joint equals minus the error-density entropy."""
    rng = np.random.default_rng(9)
    for _ in range(8):
        n_calls = int(rng.integers(1, 6))
        c = rng.standard_normal(n_calls + 1)
        c /= np.linalg.norm(c)
        n_grid = 512
        padded = np.zeros(n_grid, dtype=complex)
        padded[: n_calls + 1] = c
        r = np.abs(np.fft.ifft(padded) * n_grid) ** 2
        idx = np.mod(
            np.arange(n_grid)[None, :] - np.arange(n_grid)[:, None], n_grid
        )
        joint = r[idx] / (n_grid * n_grid)
        mi = discrete_mi(joint)
        h = posterior_entropy(EntangledState(c), n_grid)
        assert abs(mi + h) < 1e-9


def test_discrete_mi_validation():
    with pytest.raises(DomainError):
        discrete_mi(np.array([[0.5, -0.1], [0.3, 0.3]]))
    with pytest.raises(DomainError):
        discrete_mi(np.zeros((4, 4)))
    with pytest.raises(DomainError):
        discrete_mi(np.array([[np.nan, 1.0], [0.5, 0.5]]))
    # independent rows and columns carry no information
    assert abs(discrete_mi(np.full((8, 8), 1.0 / 64.0))) < 1e-12


def _circulant_matrix(r):
    """Oracle: the explicit joint P[s, t] = r((t - s) mod G) / G^2."""
    n_grid = r.size
    idx = np.mod(np.arange(n_grid)[None, :] - np.arange(n_grid)[:, None], n_grid)
    return r[idx] / (n_grid * n_grid)


@settings(max_examples=60, deadline=None)
@given(hst.lists(hst.one_of(hst.just(0.0), hst.floats(1e-6, 1e3)),
                 min_size=2, max_size=256).filter(any))
def test_circulant_mi_matches_matrix_oracle(weights):
    r = np.array(weights)
    assert abs(circulant_mi(r) - discrete_mi(_circulant_matrix(r))) < 1e-12


def test_circulant_mi_validation():
    with pytest.raises(DomainError):
        circulant_mi(np.array([0.5, -0.1, 0.3]))
    with pytest.raises(DomainError):
        circulant_mi(np.zeros(4))
    for bad in (np.nan, np.inf):  # refused, not carried into the MI
        with pytest.raises(DomainError):
            circulant_mi(np.array([bad, 1.0, 0.5, 0.5]))
    assert abs(circulant_mi(np.ones(8))) < 1e-12
    assert circulant_mi(np.array([0.0, 0.0, 2.0, 0.0])) == 2.0


@settings(max_examples=40, deadline=None)
@given(arrays(float, hst.tuples(hst.integers(1, 5), hst.integers(2, 64)),
              elements=hst.one_of(hst.just(0.0), hst.floats(1e-6, 1e3)))
       .filter(lambda r: r.any(axis=1).all()))
def test_circulant_mi_rows_match_one_dimensional_calls(r):
    """A (k, G) call gives each row's MI exactly, rows with zeros too."""
    for mi, row in zip(circulant_mi(r), r):
        assert mi == circulant_mi(row)


def test_circulant_mi_checks_every_row():
    bad_rows = ([0.5, -0.1, 0.3, 0.2], [0.0] * 4,
                [np.nan, 1.0, 0.5, 0.5], [np.inf, 1.0, 0.5, 0.5])
    for row in range(3):
        for bad in bad_rows:
            r = np.ones((3, 4))
            r[row] = bad
            with pytest.raises(DomainError):
                circulant_mi(r)


def _synthesized_oracle(coeffs, n_grid):
    padded = np.zeros(n_grid, dtype=complex)
    padded[: coeffs.size] = coeffs
    return np.abs(np.fft.ifft(padded) * n_grid) ** 2


def test_two_seed_matches_matrix_oracle():
    """Closed-form two-seed MIs equal discrete_mi of the G x G joints."""
    rng = np.random.default_rng(5)
    n_grid = 256
    for _ in range(50):
        pair = random_seed_pair(int(rng.integers(2, 5)), rng)
        c = pair.state.coefficients
        r_single = _synthesized_oracle(c, n_grid)
        r_1 = _synthesized_oracle(np.conj(pair.a) * c, n_grid)
        r_2 = _synthesized_oracle(np.conj(pair.b) * c, n_grid)
        split = sum(r.mean() * discrete_mi(_circulant_matrix(r))
                    for r in (r_1, r_2) if r.mean() > 1e-12)
        res = two_seed_experiment(pair, n_grid)
        assert abs(res.mi_single - discrete_mi(_circulant_matrix(r_single))) < 1e-12
        assert abs(res.mi_merged - discrete_mi(_circulant_matrix(r_1 + r_2))) < 1e-12
        assert abs(res.mi_split - split) < 1e-12


@hst.composite
def _seed_trials(draw):
    """(c, a, b, G): a real unit-norm state of N = 1..6 calls, seeds with
    random split fractions and random phases, and 8(N+1) <= G <= 64."""
    n = draw(hst.integers(2, 7))
    unit = hst.lists(hst.floats(0.0, 1.0), min_size=n, max_size=n)
    c = np.array(draw(hst.lists(hst.floats(-1.0, 1.0), min_size=n, max_size=n)
                      .filter(lambda v: np.linalg.norm(v) > 0.1)))
    u, phase_a, phase_b = (np.array(draw(unit)) for _ in range(3))
    a = np.sqrt(u) * np.exp(2j * np.pi * phase_a)
    b = np.sqrt(1.0 - u) * np.exp(2j * np.pi * phase_b)
    return c / np.linalg.norm(c), a, b, draw(hst.integers(8 * n, 64))


@settings(max_examples=60, deadline=None)
@given(_seed_trials())
@example((np.full(4, 0.5), np.zeros(4, complex), np.exp(0.3j * np.arange(4)), 33))
@example((np.array([0.6, 0.8]), np.array([1.0, 1j]), np.zeros(2, complex), 16))
def test_two_seed_matches_per_seed_oracles(trial):
    """The batched trial against each seed's own zero-padded FFT and the
    G x G circulant matrix, complex seeds and odd grids included."""
    c, a, b, n_grid = trial
    r_single, r_1, r_2 = (_synthesized_oracle(v, n_grid)
                          for v in (c, np.conj(a) * c, np.conj(b) * c))
    lambdas = (r_1.mean(), r_2.mean())
    single = discrete_mi(_circulant_matrix(r_single))
    merged = discrete_mi(_circulant_matrix(r_1 + r_2))
    split = sum(lam * discrete_mi(_circulant_matrix(r))
                for lam, r in zip(lambdas, (r_1, r_2)) if lam > 1e-12)
    res = two_seed_experiment(SeedPair(EntangledState(c), a, b), n_grid)
    got = (res.lambda_1, res.lambda_2, res.mi_single, res.mi_split, res.mi_merged)
    assert np.max(np.abs(np.subtract(got, (*lambdas, single, split, merged)))) <= 1e-12
    assert res.always_ok == (merged <= single + 1e-9)
    assert res.fromconv_ok == (merged <= split + 1e-9)
    assert res.wonder_violated == (split > single + 1e-9)


def test_two_seed_large_grid_memory_is_linear():
    """G = 16384 needs O(G) memory, not a 2 GiB G x G index matrix."""
    pair = random_seed_pair(4, np.random.default_rng(3))
    tracemalloc.start()
    try:
        res = two_seed_experiment(pair, 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite([res.mi_single, res.mi_split, res.mi_merged]).all()
    assert res.always_ok
    assert peak < 8 * 2**20


def test_seed_pair_validation():
    st = EntangledState.uniform(3)
    good = np.full(4, 1.0 / np.sqrt(2.0), dtype=complex)
    SeedPair(st, good, good)
    with pytest.raises(ValidationError):
        SeedPair(st, good, np.full(4, 0.8, dtype=complex))
    with pytest.raises(ValidationError):
        SeedPair(st, good[:3], good[:3])
    zeros = np.zeros(4, dtype=complex)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            SeedPair(st, np.array([bad, 1, 1, 1], dtype=complex), zeros)
        with pytest.raises(ValidationError):
            SeedPair(st, np.ones(4, dtype=complex),
                     np.array([bad, 0, 0, 0], dtype=complex))


def test_two_seed_degenerate_split_changes_nothing():
    """Putting all weight on one seed reproduces the single-seed run."""
    st = EntangledState.uniform(3)
    res = two_seed_experiment(
        SeedPair(st, np.ones(4, dtype=complex), np.zeros(4, dtype=complex))
    )
    assert res.mi_single == res.mi_merged == res.mi_split
    assert res.lambda_2 == 0.0
    assert res.always_ok and res.fromconv_ok and not res.wonder_violated


def test_two_seed_balanced_split_changes_nothing():
    st = EntangledState.uniform(3)
    half = np.full(4, 1.0 / np.sqrt(2.0), dtype=complex)
    res = two_seed_experiment(SeedPair(st, half, half))
    assert abs(res.mi_merged - res.mi_single) < 1e-12
    assert abs(res.mi_split - res.mi_single) < 1e-12
    assert abs(res.lambda_1 - 0.5) < 1e-12


def test_two_seed_grid_guard():
    st = EntangledState.uniform(3)
    half = np.full(4, 1.0 / np.sqrt(2.0), dtype=complex)
    with pytest.raises(GridTooCoarseError):
        two_seed_experiment(SeedPair(st, half, half), n_grid=16)


def test_random_seed_pairs_keep_the_ordering():
    """Merging the split seeds never beats the plain covariant seed."""
    rng = np.random.default_rng(2)
    worst = np.inf
    for _ in range(60):
        n_calls = int(rng.choice([2, 3, 4]))
        pair = random_seed_pair(n_calls, rng)
        mods = np.abs(pair.a) ** 2 + np.abs(pair.b) ** 2
        assert np.max(np.abs(mods - 1.0)) < 1e-12
        assert np.max(np.abs(pair.a.imag)) == 0.0  # real seed draws
        res = two_seed_experiment(pair)
        assert res.always_ok
        assert res.fromconv_ok
        assert not res.wonder_violated
        worst = min(worst, res.mi_single - res.mi_merged)
    assert worst > 0.0


def test_random_seed_pair_uses_flat_base_state():
    rng = np.random.default_rng(0)
    pair = random_seed_pair(3, rng)
    assert np.allclose(pair.state.coefficients, 0.5)
