"""Harmonic oscillator networks as effective quantum environments.

Message passing on locally tree-like interaction graphs closes on the two
kernels of the effective environment each oscillator sees; this package
computes the resulting fixed points, phase boundaries, time-domain kernels by
two independent routes, exact finite-tree oracles, finite-window response
machinery, and the replica-symmetric stability analysis, with a CLI on top.
"""

from .model import (ModelParams, critical_coupling, derive_params,
                    fixed_point_exists, lambda_star, sqrt_argument)
from .laplace import (CavityKernel, closed_form_fixed_point,
                      fourier_fixed_point, g0_laplace, map_orbit,
                      quadratic_residual, real_multiplier, uniform_map,
                      vernon_imag)
from .tree_bp import (TreeGraph, build_chain, build_tree, depth_convergence,
                      output_environment, root_output_message)
from .timedomain import (TimeKernel, bessel_kernel, branch_cut_kernel,
                         forward_laplace, spectral_density,
                         spectral_density_sine_transform)
from .finite_time import (ThermalState, TwoTimeKernel, bare_response,
                          ode_response_check, response_from_twinning,
                          thermal_init, time_grid, twinning_solve,
                          vernon_imag_finite, vernon_real_full)
from .oracle import (mode_decomposition, oracle_kernel_laplace,
                     oracle_time_kernel)
from .rs import (DisorderSpec, Population, population_init, population_step,
                 population_stats, variance_gain)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "derive_params", "critical_coupling", "lambda_star",
    "fixed_point_exists", "sqrt_argument",
    "CavityKernel", "g0_laplace", "vernon_imag", "uniform_map",
    "closed_form_fixed_point", "map_orbit", "fourier_fixed_point",
    "real_multiplier", "quadratic_residual",
    "TreeGraph", "build_chain", "build_tree", "root_output_message",
    "output_environment", "depth_convergence",
    "TimeKernel", "branch_cut_kernel", "bessel_kernel",
    "spectral_density", "spectral_density_sine_transform", "forward_laplace",
    "ThermalState", "TwoTimeKernel", "thermal_init", "twinning_solve",
    "vernon_imag_finite", "vernon_real_full", "ode_response_check",
    "response_from_twinning", "bare_response", "time_grid",
    "oracle_kernel_laplace", "mode_decomposition", "oracle_time_kernel",
    "DisorderSpec", "Population", "population_init", "population_step",
    "population_stats", "variance_gain",
    "__version__",
]
