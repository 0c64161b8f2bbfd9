"""Two-way reflecting-surface links: simulation, closed-form analysis, and
max-min phase optimization."""

from .analytic import (GammaApproxParams, asymptotic_outage, asymptotic_se,
                       delta_p, delta_r, gamma_approx_params, kl_divergence_gamma_fit,
                       outage_clt, outage_exact_L1, outage_gamma_Lge2,
                       outage_phase_error_uniform_pi, scheme_crossover_dbm,
                       se_exact_L1, se_gamma, se_phase_error_uniform_pi)
from .channel import (NonReciprocalChannel, Reciprocity, ReciprocalChannel,
                      Scheme, SystemConfig, UniformPhaseError, VonMisesPhaseError,
                      sample_channels, sinr_nonreciprocal, sinr_reciprocal,
                      sweep_rho)
from .mc import (McEstimate, NoCrossoverError, collect_gains, find_crossover,
                 outage_from_gains, se_from_gains)
from .numerics import (NonConvergenceError, QuadratureSpec, digamma, erf,
                       regularized_gamma_p)
from .optim import (MaxMinResult, OptimMethod, SolverFailureError,
                    build_quadratic_forms, gaussian_randomization,
                    greedy_iterative, optimal_phase_reciprocal, sdp_maxmin,
                    solve_maxmin)

__version__ = "0.1.0"
