"""Total cascade size of a branching process with Gamma(2, p) generations.

A population starts at mass one; given the current generation mass x
the next one is Gamma(2x, p).  The package evaluates the exact density
of the total mass ever alive, its tail asymptote, moments, extinction
probabilities, an atomized negative-binomial pmf that converges to the
density, and Monte Carlo engines that sample the same law.
"""

from .errors import (
    CascadeError,
    ConvergenceError,
    CriticalityError,
    DomainError,
    NoSignChangeError,
    ToleranceError,
)
from .numerics import (
    Interval,
    QuadratureResult,
    integrate_adaptive,
    lambert_w_m1,
    log_gamma,
    solve_bracketed,
)
from .continuum import (
    DensityTable,
    ExtinctionReport,
    ModelParams,
    Moments,
    NormalizationCheck,
    asymptotic_log_density,
    density,
    density_table,
    extinction,
    extinction_gap_root,
    log_density,
    moments,
    numeric_moments,
    verify_normalization,
)
from .discrete import (
    CascadePmf,
    DiscreteMoments,
    DiscretizationParams,
    cascade_log_pmf,
    cascade_pmf_table,
    discrete_moments,
    gamma_density_limit_check,
    martingale_alpha,
    nb_log_pmf,
    rescaled_density_estimate,
)
from .simulate import (
    CHUNK_TRIALS,
    HIST_BINS,
    HIST_EDGES,
    HIST_HI,
    HIST_LO,
    SimConfig,
    SimSummary,
    rng_stream,
    run_campaign,
)

__version__ = "0.1.0"

__all__ = [
    "CascadeError",
    "ConvergenceError",
    "CriticalityError",
    "DomainError",
    "NoSignChangeError",
    "ToleranceError",
    "Interval",
    "QuadratureResult",
    "integrate_adaptive",
    "lambert_w_m1",
    "log_gamma",
    "solve_bracketed",
    "DensityTable",
    "ExtinctionReport",
    "ModelParams",
    "Moments",
    "NormalizationCheck",
    "asymptotic_log_density",
    "density",
    "density_table",
    "extinction",
    "extinction_gap_root",
    "log_density",
    "moments",
    "numeric_moments",
    "verify_normalization",
    "CascadePmf",
    "DiscreteMoments",
    "DiscretizationParams",
    "cascade_log_pmf",
    "cascade_pmf_table",
    "discrete_moments",
    "gamma_density_limit_check",
    "martingale_alpha",
    "nb_log_pmf",
    "rescaled_density_estimate",
    "CHUNK_TRIALS",
    "HIST_BINS",
    "HIST_EDGES",
    "HIST_HI",
    "HIST_LO",
    "SimConfig",
    "SimSummary",
    "rng_stream",
    "run_campaign",
    "__version__",
]
