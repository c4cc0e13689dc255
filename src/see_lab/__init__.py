"""Spectral-Galerkin lab for stochastic evolution equations reflected in the
closed unit ball: path simulation (projected and penalized schemes), coupled
two-trajectory experiments, and Monte Carlo certification of exponential
ergodicity, including a 2D damped Navier-Stokes instance."""

__version__ = "0.1.0"

from .coefficients import (
    ModelSpec,
    benchmark_model,
    build_model,
    check_antisymmetry,
    check_form_bounds,
    default_model,
    eval_bilinear,
    eval_drift,
    eval_noise,
    lipschitz_probe,
    trilinear_form,
)
from .coupling import (
    CoupledPath,
    DistanceParams,
    d_distance,
    girsanov_shift,
    select_delta,
    simulate_coupled,
)
from .dynamics import (
    PathSample,
    StepperConfig,
    discrete_obstacle_inequality,
    penalization_convergence_study,
    project_ball,
    simulate_path,
    step_penalized,
    step_projected,
)
from .ergodicity import (
    ErgodicityReport,
    EstimateSeries,
    MonteCarloPlan,
    Verdict,
    contraction_check,
    d_small_check,
    exp_integrability_estimate,
    feller_modulus_estimate,
    fit_exponential_rate,
    fourth_moment_estimate,
    invariance_residual,
    lyapunov_check,
    occupation_sampler,
    run_ergodicity_battery,
    wasserstein_upper,
    weighted_contraction_estimate,
)
from .errors import ConfigError, DivergedError, SeeLabError, ValidationError
from .nse import NseModel, build_nse_model, nse_trilinear, nse_verdicts
from .rng import gaussian_increments
from .spectral import (
    H1Report,
    SpectralBasis,
    StateVector,
    build_basis,
    h_norm,
    poincare_gap_check,
    project_low_modes,
    v_norm,
    v_star_norm,
    validate_h1,
)
