"""Bounds on the mutual information of phase-estimation strategies."""

__version__ = "0.1.0"

from .bounds import (
    MLE_GAP_LIMIT_BITS,
    BoundReport,
    EstimationModel,
    PriorDensity,
    StateFamily,
    companion_bound_comparison,
    entropic_uncertainty_check,
    fisher_bound,
    fisher_bound_from_model,
    fisher_profile,
    fourier_bound_from_overlap,
    fourier_bound_from_states,
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
from .numerics import (
    FourierSpectrum,
    PeriodicGridFunction,
    binary_entropy,
    differential_entropy,
    discrete_gaussian_fit,
    fourier_modes,
    gaussian_entropy_vs_bound,
)
from .protocols import (
    EntangledState,
    SeedPair,
    TwoSeedResult,
    covariant_posterior,
    fourier_bound_ceiling,
    optimize_en_state,
    posterior_entropy,
    random_seed_pair,
    two_seed_experiment,
)
from .qpe_strategy import enhancement_term
from .checks import CheckResult, run_suite
from .figures import FIGURES, FigureData
from .svgplot import render_line_plot
