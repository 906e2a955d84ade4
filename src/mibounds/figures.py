"""Dataset builders behind the `figure` CLI command.

Each builder returns one or more FigureData objects holding CSV columns
and rows together with the line series used for the SVG rendering. The
builders are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import NoisyQpeModel, chi_closed_form
from .errors import ValidationError
from .numerics import check_periodic_grid, gaussian_entropy_vs_bound
from .protocols import EntangledState, covariant_posterior, optimize_en_state
from .qpe_strategy import enhancement_term


@dataclass(frozen=True)
class FigureData:
    name: str
    columns: tuple
    rows: tuple
    series: tuple = ()  # (label, xs, ys) triples for the SVG
    title: str = ""
    x_label: str = ""
    y_label: str = ""
    log_x: bool = False
    log_y: bool = False


def figure_chi_qpe(kind="dephasing", m_max=5, eta_min=0.0, eta_max=1.0,
                   n_eta=101):
    """Spectrum entropy of noisy phase estimation versus noise strength."""
    if m_max < 1:
        raise ValidationError("m_max must be at least 1")
    etas = np.linspace(float(eta_min), float(eta_max), int(n_eta))
    rows = []
    series = []
    for m in range(1, int(m_max) + 1):
        vals = [chi_closed_form(NoisyQpeModel(kind, m, float(e))) for e in etas]
        rows.extend((float(e), m, float(v)) for e, v in zip(etas, vals))
        series.append((f"M={m}", list(etas), vals))
    return [
        FigureData(
            name="chi_qpe",
            columns=("eta", "M", "value_bits"),
            rows=tuple(rows),
            series=tuple(series),
            title=f"spectrum entropy, {kind} channel",
            x_label="eta",
            y_label="bits",
        )
    ]


def figure_transition(eta_min=0.5, eta_max=1.0, m_max=5, n_eta=201):
    """Block-size enhancement term versus noise strength."""
    if m_max < 1:
        raise ValidationError("m_max must be at least 1")
    if not 0.0 < eta_min < eta_max <= 1.0:
        raise ValidationError("need 0 < eta_min < eta_max <= 1")
    etas = np.linspace(float(eta_min), float(eta_max), int(n_eta))
    rows = []
    series = []
    for m in range(1, int(m_max) + 1):
        vals = [enhancement_term(m, float(e)) for e in etas]
        rows.extend((float(e), m, float(v)) for e, v in zip(etas, vals))
        series.append((f"M={m}", list(etas), vals))
    return [
        FigureData(
            name="transition",
            columns=("eta", "M", "value_bits"),
            rows=tuple(rows),
            series=tuple(series),
            title="enhancement term per repetition",
            x_label="eta",
            y_label="bits",
        )
    ]


def figure_b_sigma(sigma_min=1e-2, sigma_max=1e2, n_sigma=200):
    """Max-entropy discrete Gaussian against its closed-form ceiling."""
    if not 0.0 < sigma_min < sigma_max:
        raise ValidationError("need 0 < sigma_min < sigma_max")
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


def figure_entropy2(n_calls=255, restarts=8, seed=7, n_grid=None):
    """Posterior densities and weight profiles, uniform vs. optimized state;
    n_grid (None: each default) is the optimizer's grid and the plot's."""
    if n_grid is not None:
        check_periodic_grid(n_grid)  # the plot needs it: fail before optimizing
    optimal = optimize_en_state(int(n_calls), restarts=int(restarts),
                                seed=int(seed), n_grid=n_grid)[0]
    return entropy2_datasets(optimal, n_grid)


def entropy2_datasets(optimal: EntangledState, n_grid=None):
    """entropy2's datasets for a given state, on n_grid points (16*(N+1))."""
    n_calls = optimal.n_calls
    uniform = EntangledState.uniform(n_calls)
    post_u = covariant_posterior(uniform, n_grid)
    post_o = covariant_posterior(optimal, n_grid)
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
