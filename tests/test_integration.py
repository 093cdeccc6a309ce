"""Cross-module consistency at randomized ordered-phase parameter points.

Each drawn network must satisfy, simultaneously: closed form == iteration,
forward transform of the band-quadrature kernel == closed form, agreement of
the two time-domain routes, oracle == message passing, and the variance-gain
identity.  Seeds are fixed; the draws cover degrees with and without a
finite critical coupling.
"""

import math

import numpy as np
import pytest

import netbath as nb


def _draw_params(rng):
    n = int(rng.integers(2, 9))
    omega0 = float(rng.uniform(0.5, 8.0))
    m = float(rng.uniform(0.2, 2.0))
    c_star = nb.critical_coupling(n, omega0, m)
    scale = c_star if c_star is not None else m * omega0**2
    C = float(rng.uniform(0.05, 0.8) * scale)
    return nb.derive_params(n, omega0, C, m)


@pytest.mark.parametrize("seed", range(8))
def test_pipeline_consistency(seed):
    rng = np.random.default_rng(1000 + seed)
    p = _draw_params(rng)
    lam_grid = np.logspace(-1, 2, 12)

    # fixed point: closed form vs iteration, quadratic residual
    for lam in lam_grid:
        closed = nb.closed_form_fixed_point(p, lam)
        it = nb.map_orbit(p, lam, steps=200000, tol=1e-13)
        assert it.classification == "converged"
        assert it.final == pytest.approx(closed, rel=1e-10)
        assert abs(nb.quadratic_residual(p, lam, closed)) <= \
            1e-12 * max(1.0, abs(closed))

    # forward transform closes on the Laplace side
    T = 15.0
    step = 1.0 / (20.0 * p.lambda_pp)
    n_pts = int(math.ceil(T / step / 4.0)) * 4
    tau = np.linspace(0.0, T, n_pts + 1)
    lam = np.array([3.0, 6.0])
    res = nb.forward_laplace(nb.branch_cut_kernel(p, tau), lam)
    ref = nb.closed_form_fixed_point(p, lam)
    assert np.max(np.abs(res.kernel.values - ref) / np.abs(ref)) <= 1e-6

    # the two inversion routes agree
    tau_s = np.linspace(0.0, 3.0, 601)
    bc = nb.branch_cut_kernel(p, tau_s)
    bs = nb.bessel_kernel(p, tau_s)
    rms = np.sqrt(np.mean((bc.values - bs.values) ** 2)) \
        / np.sqrt(np.mean(bc.values ** 2))
    assert rms <= 1e-4

    # oracle equivalence on a chain
    chain = nb.build_chain(30)
    lam6 = np.logspace(-0.5, 1.5, 6)
    bp = nb.root_output_message(chain, p, lam6)
    orc = nb.oracle_kernel_laplace(chain, p, lam6)
    assert np.max(np.abs(orc - bp) / np.abs(bp)) <= 1e-10

    # variance-gain identity
    for lam_v in (lam_grid[0], lam_grid[-1]):
        g = nb.variance_gain(p, lam_v)
        alg = 4.0 * nb.closed_form_fixed_point(p, lam_v) ** 4 \
            / ((p.n - 1) ** 3 * p.C**4)
        assert g == pytest.approx(alg, rel=1e-12)
