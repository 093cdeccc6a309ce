"""Scale covariance: the same answer in any units.

With kappa = C/(m omega0^2) held fixed, the model has one shape in each
domain: k(lambda) = m omega0^2 f(lambda/omega0) and k(tau) = m omega0^3
g(omega0 tau).  Rescaling omega0 by 2^a, m by 2^c and C by 2^(c+2a) is exact
in floating point, so every evaluator here must return its unscaled values
times the exact power of two, bit for bit, with no tolerance.

Not covered yet: the routes with absolute floors, which read differently in
other units (ROADMAP item 29) -- the max(1, |x|) stop rule of
``laplace._orbit_ends`` (``map_orbit``, ``depth_convergence``, the
``fixed-point`` and ``orbit`` commands), the same floor in
``ode_response_check``, and ``twinning_solve``'s residual, divided by
max(1, max|G[0]|).
"""

import math

import numpy as np
import pytest

import netbath as nb

N, OMEGA0, C, M = 4, 1.0, 0.3, 1.0
TREE = nb.build_tree(N - 1, 5)
LAM = np.logspace(-1, 1, 9)
NU = np.linspace(0.0, 3.0, 13)
TAU = np.linspace(0.0, 20.0, 41)

# the exponents of the grid's scale and of the values' scale, per unit of a
# and of c: Laplace and Fourier values m omega0^2 f(x / omega0), time values
# m omega0^3 g(omega0 tau)
FREQUENCY, TIME = (1, 2, 1), (-1, 3, 1)

EVALUATORS = {
    "closed_form_fixed_point": (nb.closed_form_fixed_point, LAM, FREQUENCY),
    "oracle_kernel_laplace": (lambda p, x: nb.oracle_kernel_laplace(TREE, p, x), LAM,
                              FREQUENCY),
    "root_output_message": (lambda p, x: nb.root_output_message(TREE, p, x), LAM,
                            FREQUENCY),
    "output_environment": (
        lambda p, x: nb.output_environment(TREE, p, TREE.n_nodes // 2, x).values,
        LAM, FREQUENCY),
    "fourier_fixed_point": (nb.fourier_fixed_point, NU, FREQUENCY),
    "spectral_density": (nb.spectral_density, NU, FREQUENCY),
    "variance_gain": (nb.variance_gain, LAM, (1, 0, 0)),
    "branch_cut_kernel": (lambda p, x: nb.branch_cut_kernel(p, x).values, TAU, TIME),
    "bessel_kernel": (lambda p, x: nb.bessel_kernel(p, x).values, TAU, TIME),
    "oracle_time_kernel": (lambda p, x: nb.oracle_time_kernel(TREE, p, x).values, TAU,
                           TIME),
}

# (a, c): omega0 alone, m alone, and both, by 2^-40 .. 2^40
SCALES = [(a, c) for e in (-40, -12, 0, 12, 40) for a, c in ((e, 0), (0, e), (e, e))]


@pytest.mark.parametrize("name", EVALUATORS)
def test_power_of_two_units_scale_the_values_exactly(name):
    evaluate, grid, (grid_a, value_a, value_c) = EVALUATORS[name]
    ref = np.asarray(evaluate(nb.derive_params(N, OMEGA0, C, M), grid))
    assert np.all(np.isfinite(ref)) and np.any(ref != 0)
    for a, c in SCALES:
        params = nb.derive_params(N, math.ldexp(OMEGA0, a), math.ldexp(C, c + 2 * a),
                                  math.ldexp(M, c))
        got = np.asarray(evaluate(params, np.ldexp(grid, grid_a * a)))
        # a complex value as its real and imaginary floats
        want = np.ldexp(ref.view(np.float64), value_a * a + value_c * c).view(ref.dtype)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (a, c)
