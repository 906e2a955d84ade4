"""Dataset builders behind the `figure` CLI command.

Each builder returns one or more FigureData objects holding CSV columns
and rows together with the line series used for the SVG rendering. The
builders are deterministic for a fixed seed. Their parameters carry the
names of the `figure` options, which the CLI passes by name.
"""

from __future__ import annotations

from collections import namedtuple

from ._lazy import np
from .channels import NoisyQpeModel, chi_closed_form
from .errors import ValidationError
from .numerics import (
    check_periodic_grid,
    check_points,
    gaussian_entropy_vs_bound,
)
from .protocols import EntangledState, covariant_posterior, optimize_en_state
from .qpe_strategy import enhancement_term


# series holds the (label, xs, ys) triples for the SVG
FigureData = namedtuple(
    "FigureData", "name columns rows series title x_label y_label log_x",
    defaults=((), "", "", "", False))


def _eta_sweep(name, title, value, M_max, eta_min, eta_max, n_eta):
    """value(M, eta) on n_eta etas for M = 1..M_max: one (eta, M, value)
    row per point and one line per M."""
    if M_max < 1:
        raise ValidationError("M_max must be at least 1")
    # fails on NaN
    if not (0.0 <= eta_min <= 1.0 and 0.0 <= eta_max <= 1.0):
        raise ValidationError("eta must lie in [0, 1]")
    n, m_max = int(n_eta), int(M_max)
    check_points(n * m_max, "n_eta x M_max rows")
    # np.linspace's arithmetic, so the etas are its values bit for bit: a
    # step that underflows to 0 scales i / div by the span instead
    eta_min, eta_max = float(eta_min), float(eta_max)
    div = max(n - 1, 1)
    span = eta_max - eta_min
    step = span / div
    etas = [(i * step if step else i / div * span) + eta_min for i in range(n)]
    if n > 1:
        etas[-1] = eta_max
    rows = []
    series = []
    for m in range(1, m_max + 1):
        vals = [value(m, e) for e in etas]
        rows.extend((e, m, float(v)) for e, v in zip(etas, vals))
        series.append((f"M={m}", etas, vals))
    return [FigureData(name=name, columns=("eta", "M", "value_bits"),
                       rows=tuple(rows), series=tuple(series), title=title,
                       x_label="eta", y_label="bits")]


def figure_chi_qpe(kind="dephasing", M_max=5, eta_min=0.0, eta_max=1.0,
                   n_eta=101):
    """Spectrum entropy of noisy phase estimation versus noise strength."""
    return _eta_sweep(
        "chi_qpe", f"spectrum entropy, {kind} channel",
        lambda m, eta: chi_closed_form(NoisyQpeModel(kind, m, eta)),
        M_max, eta_min, eta_max, n_eta)


def figure_transition(eta_min=0.5, eta_max=1.0, M_max=5, n_eta=201):
    """Block-size enhancement term versus noise strength."""
    if not 0.0 < eta_min < eta_max <= 1.0:
        raise ValidationError("need 0 < eta_min < eta_max <= 1")
    return _eta_sweep("transition", "enhancement term per repetition",
                      enhancement_term, M_max, eta_min, eta_max, n_eta)


def figure_b_sigma(sigma_min=1e-2, sigma_max=1e2, n_sigma=200):
    """Max-entropy discrete Gaussian against its closed-form ceiling."""
    # an infinite end would make logspace warn before the fit rejects it
    if not 0.0 < sigma_min < sigma_max < np.inf:
        raise ValidationError("need 0 < sigma_min < sigma_max < inf")
    check_points(int(n_sigma), "n_sigma")
    sigmas = np.logspace(np.log10(float(sigma_min)), np.log10(float(sigma_max)),
                         int(n_sigma))
    table = gaussian_entropy_vs_bound(sigmas)
    rows = tuple((s, e, b, m) for s, e, b, m in table)
    return [
        FigureData(
            name="b_sigma",
            columns=("sigma", "entropy_bits", "bound_bits", "margin_bits"),
            rows=rows,
            series=(
                ("entropy", [r[0] for r in rows], [r[1] for r in rows]),
                ("bound", [r[0] for r in rows], [r[2] for r in rows]),
            ),
            title="discrete-Gaussian entropy vs. 0.5 log2(1+2 pi e sigma^2)",
            x_label="sigma",
            y_label="bits",
            log_x=True,
        )
    ]


def figure_entropy2(N=255, restarts=8, seed=7, grid=None):
    """Posterior densities and weight profiles, uniform vs. optimized state,
    for N calls; grid is the optimizer's grid and the plot's (None: each
    one's default, 16*(N+1) for the plot)."""
    if grid is not None:
        check_periodic_grid(grid)  # the plot needs it: fail before optimizing
    n_calls = int(N)
    optimal = optimize_en_state(n_calls, restarts=int(restarts),
                                seed=int(seed), n_grid=grid)[0]
    uniform = EntangledState.uniform(n_calls)
    post_u = covariant_posterior(uniform, grid)
    post_o = covariant_posterior(optimal, grid)
    thetas = post_u.grid
    rows = tuple(
        (float(t), float(pu), float(po))
        for t, pu, po in zip(thetas, post_u.values, post_o.values)
    )
    posterior = FigureData(
        name="entropy2",
        columns=("theta", "p_uniform", "p_optimal"),
        rows=rows,
        series=(
            ("uniform", list(thetas), list(post_u.values)),
            ("optimal", list(thetas), list(post_o.values)),
        ),
        title=f"posterior density, N={n_calls}",
        x_label="theta",
        y_label="density",
    )
    ks = np.arange(n_calls + 1)
    wu = uniform.coefficients**2
    wo = optimal.coefficients**2
    weights = FigureData(
        name="entropy2_weights",
        columns=("k", "weight_uniform", "weight_optimal"),
        rows=tuple((int(k), float(a), float(b)) for k, a, b in zip(ks, wu, wo)),
        series=(("uniform", list(ks), list(wu)), ("optimal", list(ks), list(wo))),
        title=f"squared amplitudes, N={n_calls}",
        x_label="k",
        y_label="weight",
    )
    return [posterior, weights]


FIGURES = {
    "chi_qpe": figure_chi_qpe,
    "transition": figure_transition,
    "b_sigma": figure_b_sigma,
    "entropy2": figure_entropy2,
}
