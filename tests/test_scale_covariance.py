"""Scale covariance: the same answer in any units.

With kappa = C/(m omega0^2) held fixed, the model has one shape in each
domain: k(lambda) = m omega0^2 f(lambda/omega0) and k(tau) = m omega0^3
g(omega0 tau).  Rescaling omega0 by 2^a, m by 2^c and C by 2^(c+2a) is exact
in floating point, so every evaluator here must return its unscaled values
times the exact power of two, bit for bit, with no tolerance.

The finite window joins them: its dressed response row, at the step
``fine_step``, and the residual of its solve, relative to max|G[0]|; and the
backward response of ``ode_response_check``, whose stop rule is relative to
max|q|, scales with its drive.

The orbits of the uniform map join them: ``laplace._orbit_ends`` (behind
``map_orbit``, ``depth_convergence`` and the ``fixed-point`` and ``orbit``
commands) stops on |x_{i+1} - x_i| <= tol |x_i|, with no absolute floor, so
its step counts and stop reasons are the same in any units.
"""

import math

import numpy as np
import pytest

import netbath as nb
from netbath.laplace import _orbit_ends

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


def _upstream(params, T):
    """The finite-time command's upstream on 0..T at the step fine_step: the
    branch-cut kernel, stationary."""
    times = nb.time_grid(T, params.fine_step)
    return nb.TwoTimeKernel.from_stationary(
        times, lambda u: nb.branch_cut_kernel(params, u).values)


def test_power_of_two_units_scale_the_window_solve_exactly():
    # time scales by 2^-a and G = (2/(m omega)) sin(omega u) + ... by
    # 2^(-a-c); M = dt^2 A K is unitless, so the residual reads the same
    params = nb.derive_params(N, OMEGA0, C, M)
    upstream = _upstream(params, 6.0)
    ref = nb.twinning_solve(upstream, params)
    assert upstream.times.size > 100 and 0.0 < ref.residual <= 1e-14
    for a, c in SCALES:
        params = nb.derive_params(N, math.ldexp(OMEGA0, a), math.ldexp(C, c + 2 * a),
                                  math.ldexp(M, c))
        scaled = _upstream(params, math.ldexp(6.0, -a))
        got = nb.twinning_solve(scaled, params)
        assert scaled.times.tobytes() == np.ldexp(upstream.times, -a).tobytes(), (a, c)
        assert got.G.values[0].tobytes() == \
            np.ldexp(ref.G.values[0], -a - c).tobytes(), (a, c)
        assert got.residual == ref.residual, (a, c)


def test_backward_response_scales_with_its_drive_exactly():
    # the equation is linear in the drive, and the stop rule is relative to
    # max|q|, so a drive scaled by 2^e takes the same sweeps to q 2^e
    params = nb.derive_params(N, OMEGA0, C, M)
    upstream = _upstream(params, 6.0)
    drive = np.exp(-0.5 * ((upstream.times - 1.5) / 0.15) ** 2)
    ref = nb.ode_response_check(upstream, params, drive)
    assert np.any(ref != 0)
    for e in (-40, -12, 12, 40):
        got = nb.ode_response_check(upstream, params, np.ldexp(drive, e))
        assert got.tobytes() == np.ldexp(ref, e).tobytes(), e


def test_power_of_two_units_scale_the_orbits_exactly():
    # 65 lambdas: the lockstep body until 32 are live, then the float
    # steps; each orbit takes the same steps to the same stop, its iterates
    # times m omega0^2
    lam = np.logspace(-1, 1, 65)
    ref = _orbit_ends(nb.derive_params(N, OMEGA0, C, M), lam, 2000, 1e-12)
    assert set(ref[2]) == {"converged"} and ref[1].max() > ref[1].min()
    for a, c in SCALES:
        params = nb.derive_params(N, math.ldexp(OMEGA0, a), math.ldexp(C, c + 2 * a),
                                  math.ldexp(M, c))
        final, taken, stop, orbit = _orbit_ends(params, np.ldexp(lam, a), 2000, 1e-12)
        assert np.array_equal(stop, ref[2]) and np.array_equal(taken, ref[1]), (a, c)
        assert final.tobytes() == np.ldexp(ref[0], 2 * a + c).tobytes(), (a, c)
        assert orbit.tobytes() == np.ldexp(ref[3], 2 * a + c).tobytes(), (a, c)


@pytest.mark.parametrize("frac", [0.5, 0.9])
def test_orbit_reads_the_phase_in_any_units(frac):
    # n = 2 at C = 2 C*: below lambda* there is no fixed point, and the
    # orbit still moves after 20,000 steps, near-periodic, at omega0 = m =
    # 2^-20 as at 1
    for e in (0, -20):
        omega0 = m = math.ldexp(1.0, e)
        params = nb.derive_params(2, omega0, 2.0 * nb.critical_coupling(2, omega0, m), m)
        report = nb.map_orbit(params, frac * nb.lambda_star(params), steps=20000)
        assert report.classification == "near-periodic", e
        assert report.orbit.size == 20001, e
