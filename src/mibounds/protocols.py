"""Entangled N-call protocols and covariant phase measurements.

An input state sum_k c_k |k> picks up phase e^(i 2 pi k phi) on mode k.
Under the uniform prior the covariant measurement returns an estimate
whose error theta = phi_est - phi has density
p(theta) = |sum_k c_k e^(i 2 pi k theta)|^2, and the information it
extracts is exactly minus the differential entropy of p. Optimizing the
real coefficients c over the unit sphere therefore minimizes the
posterior entropy; the spectrum entropy -sum c_k^2 log2 c_k^2 caps the
achievable information at log2(N+1). Real c make p even, so the entropy
and its gradient run real-input FFTs over half the grid. The optimizer
is the package's own numpy L-BFGS (minimize), so numpy is the only
run-time dependency. Each optimize_en_state call allocates one
half-spectrum workspace that every start and evaluation overwrites
(numpy.fft's out=, numpy >= 2.0), so no evaluation allocates an array
of grid size.

The two-seed experiment compares a single covariant seed against a pair
of seeds measured jointly or sorted into sub-ensembles, reporting the
mutual-information bookkeeping of each arrangement. Each joint density
on the (estimate, phase) torus is circulant, so its mutual information
has the closed form log2 G - H(r / sum r) in the error density r: a
trial synthesizes its three seed densities in one batched length-G FFT,
scores the circulant MIs row by row and needs O(G) memory.
"""

from __future__ import annotations

import math
from collections import namedtuple
from types import SimpleNamespace

from ._lazy import np
from .errors import ValidationError
from .numerics import (
    LN2,
    PeriodicGridFunction,
    check_points,
    coefficients_to_density,
    entropy_bits_of_weights,
    record,
    synthesized_density,
)


class EntangledState(record("EntangledState", "coefficients")):
    """Real amplitudes c_0..c_N on the phase modes, sum c_k^2 = 1."""

    __slots__ = ()

    def __new__(cls, coefficients):
        if np.iscomplexobj(coefficients):  # a float cast drops imaginary parts
            raise ValidationError("coefficients must be real")
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValidationError("coefficients must be a non-empty 1-d array")
        if not abs((c * c).sum() - 1.0) <= 1e-10:  # fails closed on NaN
            raise ValidationError("coefficients must satisfy sum c_k^2 = 1")
        return super().__new__(cls, c)

    @property
    def n_calls(self):
        return self.coefficients.size - 1

    @classmethod
    def uniform(cls, n_calls: int):
        if int(n_calls) < 0:
            raise ValidationError("n_calls must be nonnegative")
        n = int(n_calls) + 1
        return cls(np.full(n, 1.0 / np.sqrt(n)))


def default_grid(n_calls: int) -> int:
    """Synthesis grid 16*(N+1), the resolution used for posterior plots."""
    return 16 * (int(n_calls) + 1)


def covariant_posterior(state: EntangledState, n_grid=None) -> PeriodicGridFunction:
    """Error density p(theta) = |sum_k c_k e^(i 2 pi k theta)|^2 on [0, 1)."""
    if n_grid is None:
        n_grid = default_grid(state.n_calls)
    return coefficients_to_density(state.coefficients, n_grid)


def _entropy_grid(n_calls, n_grid):
    """The entropy quadrature grid for N calls: n_grid, by default
    max(16(N+1), 4096) because the integrand p log p has kinks at the
    zeros of p; at least 2(N+1) and at most MAX_POINTS."""
    if n_grid is None:
        n_grid = max(default_grid(n_calls), 4096)
    if n_grid < 2 * (n_calls + 1):
        raise ValidationError("entropy grid must be at least 2*(N+1)")
    check_points(n_grid, "entropy grid")
    return int(n_grid)


def _workspace(n_grid):
    """_entropy_and_grad's buffers on a G-point grid: the half spectrum,
    p and log p (G//2 + 1 each) and the irfft output (G)."""
    m = n_grid // 2 + 1
    return np.empty(m, complex), np.empty(m), np.empty(m), np.empty(n_grid)


def _entropy_and_grad(c, n_grid, grad=False, work=None):
    """-sum p log2 p / G over the G-point posterior of unit-norm real c,
    and with grad=True its gradient in c. Real c make p even, so rfft(c)_j
    = conj(amp_j), j = 0..G//2, holds every distinct sample once; all but
    j = 0 and, for even G, j = G/2 stand for two.

    Every call overwrites work, a _workspace(n_grid) (by default a fresh
    one); the returned gradient is a new array that shares none of it."""
    half, p, logp, full = _workspace(n_grid) if work is None else work
    np.fft.rfft(c, n_grid, out=half)
    np.square(half.real, out=p)
    np.square(half.imag, out=logp)  # logp holds imag^2 until the log
    p += logp
    np.log(np.maximum(p, 1e-300, out=logp), out=logp)
    plogp = 2.0 * (p @ logp) - p[0] * logp[0]
    if n_grid % 2 == 0:
        plogp -= p[-1] * logp[-1]
    val = -plogp / (n_grid * LN2)
    if not grad:
        return float(val)
    # dp_j/dc_k = 2 Re(conj(amp_j) e^{i 2 pi jk/G}): summed over j, one irfft
    logp += 1.0
    np.multiply(logp, half, out=half)
    g_c = -(2.0 / LN2) * np.fft.irfft(half, n_grid, out=full)[: c.size]
    return float(val), g_c


def posterior_entropy(state: EntangledState, n_grid=None) -> float:
    """Differential entropy of the covariant error density, in bits.

    Negative for concentrated posteriors; under the uniform prior the
    extracted information is exactly minus this value. The quadrature
    grid is _entropy_grid's. It is the optimizer's own half-spectrum
    objective: optimize_en_state(N, n_grid=G)[1] is this value on that G.
    """
    return _entropy_and_grad(state.coefficients,
                             _entropy_grid(state.n_calls, n_grid))


def fourier_bound_ceiling(state: EntangledState) -> float:
    """Spectrum entropy -sum c_k^2 log2 c_k^2, at most log2(N+1) bits."""
    return entropy_bits_of_weights(state.coefficients**2)


_HISTORY = 10         # (s, y) pairs kept: L-BFGS-B's default memory
_LINE_EVALS = 20      # evaluations per line search before it fails
_C1, _C2, _XTOL = 1e-3, 0.9, 0.1  # the dcsrch constants of L-BFGS-B
_STPMAX = 1e10        # largest step, L-BFGS-B's unconstrained bound


def minimize(fun, x0, *, ftol, gtol, maxiter):
    """Unconstrained L-BFGS (Nocedal, Math. Comp. 35, 773 (1980)).

    fun(x) returns (f, gradient). The search direction comes from the
    two-loop recursion over the last 10 (s, y) pairs, scaled by
    s.y / y.y of the newest; a pair with s.y <= eps * (-g.s) is skipped.
    Steps come from a Moré–Thuente strong-Wolfe line search (MINPACK-2
    dcsrch: c1 = 1e-3, c2 = 0.9, extrapolation by up to x4, safeguarded
    cubic interpolation), starting at 1/|g| on the first iteration and
    at 1 after it. A line search that fails (a NaN or infinite value or
    slope fails it too) clears the memory and retries along -g; failing
    with an empty memory stops the run.

    Stops, as scipy's L-BFGS-B does without bounds, when max|g| <= gtol,
    when (f_k - f_k+1) / max(|f_k|, |f_k+1|, 1) <= ftol, or, unconverged,
    after maxiter iterations. Returns a namespace with x, fun (the value
    at x), nit, nfev, success and message. optimize_en_state looks this
    name up at call time, so rebinding protocols.minimize (to wrap or
    count the calls) takes effect.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nit, nfev, pairs = 0, 1, []
    success, message = True, "max|g| <= gtol"
    while not np.max(np.abs(g)) <= gtol:  # a NaN gradient enters the loop
        if pairs:
            d, step = -_two_loop(g, pairs), 1.0
        else:
            d = -g
            step = min(1.0 / np.linalg.norm(g), _STPMAX) if nit == 0 else 1.0
        x_new, f_new, g_new, evals = _line_search(fun, x, f, g, d, step)
        nfev += evals
        if x_new is None:
            if pairs:
                pairs = []
                continue
            success, message = False, "line search failed along -g"
            break
        nit += 1
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > np.finfo(float).eps * -float(g @ s):
            pairs.append((s, y, 1.0 / sy, float(y @ y)))
            del pairs[:-_HISTORY]
        f_old, x, f, g = f, x_new, f_new, g_new
        if nit >= maxiter:
            success = False
            message = f"stopped after maxiter = {maxiter} iterations"
            break
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            message = "relative reduction of f <= ftol"
            break
    return SimpleNamespace(x=x, fun=f, nit=nit, nfev=nfev, success=success,
                           message=message)


def _two_loop(g, pairs):
    """Inverse L-BFGS Hessian times g, with H0 = (s.y / y.y) I."""
    q = g.copy()
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    _, _, rho, yy = pairs[-1]
    q *= 1.0 / (rho * yy)
    for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return q


def _line_search(fun, x, f0, g0, d, stp):
    """Moré–Thuente search along d from stp (MINPACK-2 dcsrch).

    Returns (x, f, g, evaluations) at the first step meeting the strong
    Wolfe conditions f <= f0 + c1 stp g0.d and |g.d| <= c2 |g0.d|, or at
    the step where rounding or the bracket width stops progress; x is
    None when d is not a descent direction, at a value or slope that is
    not finite, or after 20 evaluations.
    """
    ginit = float(g0 @ d)
    if not ginit < 0.0:
        return None, f0, g0, 0
    gtest = _C1 * ginit
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = ginit
    brackt, stage1 = False, True
    stmin, stmax = 0.0, stp + 4.0 * stp
    width, width1 = _STPMAX, 2.0 * _STPMAX
    for evals in range(1, _LINE_EVALS + 1):
        xt = x + stp * d
        f, g = fun(xt)
        dg = float(g @ d)
        if not (math.isfinite(f) and math.isfinite(dg)):
            return None, f0, g0, evals
        ftest = f0 + stp * gtest
        if stage1 and f <= ftest and dg >= 0.0:
            stage1 = False
        if (f <= ftest and abs(dg) <= -_C2 * ginit
                or brackt and (stp <= stmin or stp >= stmax
                               or stmax - stmin <= _XTOL * stmax)
                or stp == _STPMAX and f <= ftest and dg <= gtest):
            return xt, f, g, evals
        if stage1 and fx >= f > ftest:
            # first stage: step on psi(t) = f(t) - t*gtest, whose minimum
            # is bracketed sooner while f sits above the decrease line
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest,
                gy - gtest, stp, f - stp * gtest, dg - gtest, brackt,
                stmin, stmax)
            fx, fy = fx + stx * gtest, fy + sty * gtest
            gx, gy = gx + gtest, gy + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, dg, brackt, stmin, stmax)
        if brackt:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)  # bisect a slow bracket
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), _STPMAX)
        if brackt and (stp <= stmin or stp >= stmax
                       or stmax - stmin <= _XTOL * stmax):
            stp = stx  # no progress left: return to the best step
    return None, f0, g0, _LINE_EVALS


def _cubic_min(a, fa, da, b, fb, db):
    """(r, gamma): the minimizer a + r (b - a) of the cubic through
    (a, fa, fa') and (b, fb, fb'), with dcstep's overflow-safe scaling."""
    theta = 3.0 * (fa - fb) / (b - a) + da + db
    s = max(abs(theta), abs(da), abs(db))
    gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (da / s) * (db / s)))
    if b < a:
        gamma = -gamma
    return ((gamma - da) + theta) / (((gamma - da) + gamma) + db), gamma


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One MINPACK-2 dcstep: the next trial step from the best step stx,
    the other bracket end sty and the current step stp, and the updated
    bracket. Returns (stx, fx, dx, sty, fy, dy, next step, brackt)."""
    sgnd = dp * math.copysign(1.0, dx)
    if fp > fx:  # higher value: a minimum lies between stx and stp
        r, _ = _cubic_min(stx, fx, dx, stp, fp, dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        if abs(stpc - stx) < abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:  # lower value, slope changed sign: bracketed
        r, _ = _cubic_min(stp, fp, dp, stx, fx, dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):  # lower value, same sign, slope shrinking
        r, gamma = _cubic_min(stp, fp, dp, stx, fx, dx)
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            limit = stp + 0.66 * (sty - stp)
            stpf = min(limit, stpf) if stp > stx else max(limit, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = min(stpmax, max(stpmin, stpf))
    elif brackt:  # lower value, same sign, slope not shrinking
        r, _ = _cubic_min(stp, fp, dp, sty, fy, dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def optimize_en_state(n_calls: int, *, restarts=8, seed=0, n_grid=None):
    """Minimize the posterior entropy over real unit-norm amplitudes.

    Runs minimize (L-BFGS) in the ambient coordinates x with
    c = x / |x| (the objective is scale-free), from one uniform start
    plus seeded random restarts (each restart draws from its own RNG
    stream keyed by (seed, restart index)), and keeps the best minimum.
    `restarts` counts every start, the uniform one included, and must be
    at least 1. The entropy grid is _entropy_grid's.

    Returns (EntangledState, entropy_bits, mi_bits, trace) where
    mi_bits = -entropy_bits is the information extracted under the
    uniform prior and trace lists the converged entropy of every start.
    """
    n = int(n_calls) + 1
    if n < 1:
        raise ValidationError("n_calls must be nonnegative")
    if int(restarts) < 1:
        raise ValidationError("restarts must be at least 1")
    n_grid = _entropy_grid(int(n_calls), n_grid)
    work = _workspace(n_grid)  # shared by every start and evaluation

    def value_and_grad(x):
        r = np.linalg.norm(x)
        c = x / r
        val, g_c = _entropy_and_grad(c, n_grid, grad=True, work=work)
        return val, (g_c - float(g_c @ c) * c) / r  # without the scale direction

    starts = [np.full(n, 1.0)]
    for i in range(1, int(restarts)):
        stream = np.random.default_rng([int(seed), i])
        starts.append(np.abs(stream.standard_normal(n)) + 1e-3)

    best_c, best_val, trace = None, np.inf, []
    for x0 in starts:
        res = minimize(value_and_grad, x0, ftol=1e-12, gtol=1e-9,
                       maxiter=5000)
        # res.fun was computed from this same c: it is the entropy of c
        c = res.x / np.linalg.norm(res.x)
        val = res.fun
        trace.append(val)
        if val < best_val:
            best_val, best_c = val, c
    if best_c.sum() < 0.0:
        best_c = -best_c  # global sign is immaterial, report the positive rep
    return EntangledState(best_c), best_val, -best_val, tuple(trace)


class SeedPair(record("SeedPair", "state a b")):
    """Two covariant seeds splitting the all-ones seed: |a_n|^2+|b_n|^2 = 1."""

    __slots__ = ()

    def __new__(cls, state, a, b):
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        n = state.coefficients.size
        if a.shape != (n,) or b.shape != (n,):
            raise ValidationError("seed vectors must match the state length")
        mods = np.abs(a) ** 2 + np.abs(b) ** 2
        if not np.max(np.abs(mods - 1.0)) <= 1e-10:  # fails closed on NaN
            raise ValidationError(
                "seeds must satisfy |a_n|^2 + |b_n|^2 = 1 for every n"
            )
        return super().__new__(cls, state, a, b)


TwoSeedResult = namedtuple(
    "TwoSeedResult", "lambda_1 lambda_2 mi_single mi_split mi_merged"
    " always_ok fromconv_ok wonder_violated")


def discrete_mi(joint) -> float:
    """Mutual information in bits of a nonnegative matrix (renormalized)."""
    joint = np.asarray(joint, dtype=float)
    if np.any(joint < 0.0):
        raise ValidationError("joint weights must be nonnegative")
    mass = joint.sum()
    if not (math.isfinite(mass) and mass > 0.0):  # NaN or inf weights
        raise ValidationError("joint weights must have finite positive mass")
    p = joint / mass
    rows = p.sum(axis=1)
    cols = p.sum(axis=0)
    outer = rows[:, None] * cols[None, :]
    mask = p > 0.0
    return float((p[mask] * np.log(p[mask] / outer[mask])).sum() / LN2)


def circulant_mi(r):
    """Mutual information in bits of the joint P[s, t] = r((t - s) mod G).

    Row s indexes the estimate, column t the true phase under the uniform
    prior. Every row is a cyclic shift of r and every column has the same
    sum, so both marginals are uniform and MI = log2 G - H(r / sum r):
    the value discrete_mi gives for the G x G matrix, in O(G).

    Along the last axis: a 1-d r gives a float, a (k, G) r the MIs of
    its k rows, each of which must pass the weight checks.
    """
    r = np.asarray(r, dtype=float)
    if (r < 0.0).any():
        raise ValidationError("circulant weights must be nonnegative")
    mass = r.sum(axis=-1, keepdims=True)
    if not (mass.min() > 0.0 and mass.max() < np.inf):  # NaN or inf weights
        raise ValidationError(
            "circulant weights must have finite positive mass")
    mi = np.log2(r.shape[-1]) - entropy_bits_of_weights(r / mass)
    return float(mi) if r.ndim == 1 else mi


def two_seed_experiment(pair: SeedPair, n_grid=256) -> TwoSeedResult:
    """Compare one covariant seed against a split pair of seeds.

    Each seed's error density r is sampled on n_grid points; its joint
    with the true phase on the n_grid x n_grid (estimate, phase) torus is
    circulant, so every mutual information is circulant_mi(r), without
    forming the matrix. A trial synthesizes the three seed densities in
    one batched FFT, scores them in one circulant_mi call along the last
    axis, and needs O(n_grid) memory:

    * mi_single: the all-ones seed on the state;
    * mi_split:  lambda_1 I[q(.|1)] + lambda_2 I[q(.|2)], the outcome
      label i kept and each sub-ensemble renormalized;
    * mi_merged: the label discarded, densities summed.

    The attached booleans record mi_merged <= mi_single + 1e-9 (expected
    always), mi_merged <= mi_split + 1e-9 (convexity), and whether
    mi_split exceeds mi_single beyond 1e-9 (never observed).
    """
    n_grid = int(n_grid)
    c = pair.state.coefficients.astype(complex)
    if n_grid < 8 * c.size:
        raise ValidationError("two-seed grid must be at least 8*(N+1)")
    check_points(n_grid, "two-seed grid")

    # rows: the single seed, then seeds 1 and 2, from one batched FFT
    r = synthesized_density(
        np.stack((c, np.conj(pair.a) * c, np.conj(pair.b) * c)), n_grid)

    # seed masses must not depend on the true phase: column sums of the
    # conditional are constant by covariance, kept as an explicit check
    lambdas = r[1:].mean(axis=-1)
    if abs(lambdas.sum() - 1.0) > 1e-8:
        raise ValidationError("seed masses do not add to one")

    # zero-mass seeds have no MI and contribute nothing to the split
    kept = lambdas > 1e-12
    mi = circulant_mi(np.concatenate((r[:1], r[1:2] + r[2:], r[1:][kept])))
    mi_single, mi_merged = float(mi[0]), float(mi[1])
    mi_split = sum(lambdas[kept] * mi[2:], 0.0)

    return TwoSeedResult(
        lambda_1=float(lambdas[0]),
        lambda_2=float(lambdas[1]),
        mi_single=mi_single,
        mi_split=float(mi_split),
        mi_merged=mi_merged,
        always_ok=bool(mi_merged <= mi_single + 1e-9),
        fromconv_ok=bool(mi_merged <= mi_split + 1e-9),
        wonder_violated=bool(mi_split > mi_single + 1e-9),
    )


def random_seed_pair(n_calls: int, rng) -> SeedPair:
    """Draw a random real seed pair for the flat-amplitude state.

    Uniform weights are the reference input for which the all-ones seed
    is the matched covariant measurement; the merged-versus-single
    comparison is only meaningful against a matched reference. Each
    index splits its unit weight between the two seeds with an
    independent uniform fraction and independent random signs.
    """
    n = int(n_calls) + 1
    check_points(n, "seed pair")
    base_state = EntangledState.uniform(n_calls)
    u = rng.uniform(0.0, 1.0, size=n)
    a = np.sqrt(u) * rng.choice([-1.0, 1.0], size=n)
    b = np.sqrt(1.0 - u) * rng.choice([-1.0, 1.0], size=n)
    return SeedPair(base_state, a.astype(complex), b.astype(complex))
