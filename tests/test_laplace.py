import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import netbath as nb
from netbath.errors import DomainError, ShapeError, SingularTransformError
from netbath.laplace import CavityKernel, OrbitReport, detect_near_cycle

K_STAR_NARROW_LAM0 = 0.0729206334100700298717568095  # 30-digit evaluation


def test_g0_values(narrow_band):
    assert nb.g0_laplace(narrow_band, 0.0) == pytest.approx(4.0 / 110.0, rel=1e-14)
    assert nb.g0_laplace(narrow_band, 1e8) < 1e-15
    doubled = nb.derive_params(5, 10.0, 1.0, 1.0)
    # at fixed lambda and fixed omega_sq the response halves with doubled mass
    lam = 3.0
    p_ref = nb.derive_params(5, math.sqrt(110.0 - 5 * 1.0 / 1.0), 1.0, 1.0)
    assert p_ref.omega_sq == pytest.approx(110.0, rel=1e-12)
    assert nb.g0_laplace(p_ref, lam) == pytest.approx(
        0.5 * nb.g0_laplace(narrow_band, lam), rel=1e-12)
    assert doubled.omega_sq != narrow_band.omega_sq  # mass shifts omega too


def test_vernon_imag_free_branch(narrow_band):
    lam = 2.0
    out = nb.vernon_imag(0.0, narrow_band, narrow_band.C, lam)
    assert out == pytest.approx(
        narrow_band.C**2 / 2 * nb.g0_laplace(narrow_band, lam), rel=1e-14)


def test_vernon_imag_fixed_point_consistency(narrow_band, lambda_grid):
    # the single-branch message reproduces itself through one more edge
    for lam in lambda_grid:
        k_n = nb.closed_form_fixed_point(narrow_band, lam)
        branch = nb.vernon_imag(k_n, narrow_band, narrow_band.C, lam)
        assert branch * (narrow_band.n - 1) == pytest.approx(k_n, rel=1e-12)


def test_vernon_imag_pole(narrow_band):
    lam = 1.0
    k_pole = 1.0 / nb.g0_laplace(narrow_band, lam)
    with pytest.raises(SingularTransformError):
        nb.vernon_imag(k_pole, narrow_band, narrow_band.C, lam)


def test_uniform_map_examples(narrow_band):
    assert nb.uniform_map(0.0, narrow_band, 0.0) == pytest.approx(
        8.0 / 110.0, rel=1e-14)
    p0 = nb.derive_params(5, 10.0, 0.0, 0.5)
    assert nb.uniform_map(0.0, p0, 1.0) == 0.0
    k = nb.closed_form_fixed_point(narrow_band, 2.0)
    assert nb.uniform_map(k, narrow_band, 2.0) == pytest.approx(k, rel=1e-12)


def test_closed_form_values(narrow_band):
    assert nb.closed_form_fixed_point(narrow_band, 0.0) == pytest.approx(
        K_STAR_NARROW_LAM0, rel=1e-13)
    p0 = nb.derive_params(5, 10.0, 0.0, 0.5)
    assert nb.closed_form_fixed_point(p0, 3.0) == 0.0


def test_closed_form_tail(narrow_band, wide_band):
    # k* ~ (n-1) C^2 / (m lambda^2) at large lambda
    for p in (narrow_band, wide_band):
        lam = 1e4 * p.lambda_pp
        ratio = nb.closed_form_fixed_point(p, lam) * p.m * lam**2 \
            / ((p.n - 1) * p.C**2)
        assert ratio == pytest.approx(1.0, rel=1e-6)


def test_closed_form_domain_error():
    c2 = nb.critical_coupling(2, 1.0, 1.0)
    p = nb.derive_params(2, 1.0, 2.0 * c2, 1.0)
    with pytest.raises(DomainError) as err:
        nb.closed_form_fixed_point(p, 0.5)
    assert err.value.lambda_star == pytest.approx(1.0, rel=1e-12)


@given(st.integers(2, 10), st.floats(0.5, 15.0), st.floats(0.0, 3.0),
       st.floats(0.2, 3.0), st.floats(0.0, 50.0))
def test_quadratic_residual_property(n, omega0, c, m, lam):
    p = nb.derive_params(n, omega0, c, m)
    if not nb.fixed_point_exists(p, lam):
        return
    k = nb.closed_form_fixed_point(p, lam)
    res = nb.quadratic_residual(p, lam, k)
    assert abs(res) <= 1e-12 * max(1.0, abs(k))


@given(st.integers(2, 10), st.floats(0.5, 15.0), st.floats(0.0, 3.0),
       st.floats(0.2, 3.0), st.floats(0.0, 50.0))
def test_minus_branch_bound(n, omega0, c, m, lam):
    p = nb.derive_params(n, omega0, c, m)
    if not nb.fixed_point_exists(p, lam):
        return
    k = nb.closed_form_fixed_point(p, lam)
    assert k <= p.m * (lam**2 + p.omega_sq) / 4.0 * (1 + 1e-12)


def test_iteration_monotone_and_convergent(narrow_band):
    res = nb.map_orbit(narrow_band, 1.0, tol=1e-12)
    assert res.classification == "converged"
    assert np.all(np.diff(res.orbit) >= -1e-15)
    assert res.final == pytest.approx(
        nb.closed_form_fixed_point(narrow_band, 1.0), rel=1e-10)
    assert res.orbit[-1] <= nb.closed_form_fixed_point(narrow_band, 1.0) * (1 + 1e-12)


def test_iteration_decoupled_converges_immediately():
    p0 = nb.derive_params(5, 10.0, 0.0, 0.5)
    res = nb.map_orbit(p0, 1.0)
    assert res.classification == "converged"
    assert res.orbit.size - 1 == 1 and res.final == 0.0


def test_iteration_detects_recurrence_in_disordered_phase():
    c2 = nb.critical_coupling(2, 1.0, 1.0)
    p = nb.derive_params(2, 1.0, 2.0 * c2, 1.0)
    res = nb.map_orbit(p, 0.5, steps=4000)
    assert res.classification == "near-periodic"
    assert res.orbit.size - 1 == 4000
    assert res.period is not None and res.period > 1


def test_map_orbit_stops_at_the_pole(narrow_band):
    # a start value at 1/G0 sends the edge update into its pole: the orbit
    # stops there instead of continuing through infinity
    x0 = 1.0 / nb.g0_laplace(narrow_band, 1.0)
    res = nb.map_orbit(narrow_band, 1.0, x0=x0)
    assert res.classification == "pole"
    assert res.final == x0 and res.orbit.size == 1 and res.period is None
    with pytest.raises(DomainError):
        nb.map_orbit(narrow_band, 1.0, tol=-1.0)


def _map_orbit_reference(params, lam, x0=0.0, steps=2000, tol=1e-12):
    """The orbit loop as it was, one :func:`uniform_map` call per step."""
    x = float(x0)
    orbit = [x]
    for _ in range(steps):
        try:
            x_next = nb.uniform_map(x, params, lam)
        except SingularTransformError:
            return OrbitReport(classification="pole", final=x,
                               orbit=np.asarray(orbit),
                               diameter=float(np.ptp(orbit)))
        orbit.append(x_next)
        if abs(x_next - x) <= tol * max(1.0, abs(x)):
            return OrbitReport(classification="converged", final=x_next,
                               orbit=np.asarray(orbit),
                               diameter=float(np.ptp(orbit)))
        x = x_next
    orbit = np.asarray(orbit)
    period, rec_err = detect_near_cycle(orbit[-min(1024, orbit.size):])
    cls = "near-periodic" if period is not None and period > 1 else "wandering"
    return OrbitReport(classification=cls, final=float(orbit[-1]), orbit=orbit,
                       diameter=float(np.ptp(orbit)), period=period,
                       recurrence_error=rec_err)


def _orbit_draws(count, seed):
    """Seeded (params, lam, x0, steps, tol): ordered and disordered regimes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(2, 5)), rng.uniform(0.5, 2.0)
        c_star = nb.critical_coupling(n, 1.0, m)
        p = nb.derive_params(n, 1.0, c_star * rng.uniform(0.3, 3.0), m)
        l_star = nb.lambda_star(p)
        lam = l_star * rng.uniform(0.2, 1.5) if l_star else rng.uniform(0.05, 3.0)
        x0 = float(rng.choice([0.0, rng.uniform(-3.0, 3.0)]))
        yield (p, lam, x0, int(rng.integers(50, 400)),
               float(rng.choice([0.0, 1e-12, 1e-9])))


def test_map_orbit_matches_uniform_map_loop(narrow_band):
    # G0 is taken once per orbit, not once per step: the same floats in the
    # same order, so orbits agree bit for bit with the per-step loop
    g0 = nb.g0_laplace(narrow_band, 1.0)
    c_half = narrow_band.C**2 / 2.0
    # a start at the pole, and one whose first image lands on it
    poles = [(narrow_band, 1.0, 1.0 / g0, 2000, 1e-12),
             (narrow_band, 1.0, (1.0 - (narrow_band.n - 1) * c_half * g0**2) / g0,
              2000, 1e-12)]
    seen = set()
    for case in poles + list(_orbit_draws(300, seed=2026)):
        got, ref = nb.map_orbit(*case), _map_orbit_reference(*case)
        assert got.orbit.tobytes() == ref.orbit.tobytes()
        assert (got.classification, got.period, got.orbit.size) == \
            (ref.classification, ref.period, ref.orbit.size)
        assert (got.final, got.diameter, got.recurrence_error) == \
            (ref.final, ref.diameter, ref.recurrence_error)
        seen.add(got.classification)
    assert [nb.map_orbit(*case).orbit.size for case in poles] == [1, 2]
    assert seen == {"pole", "converged", "near-periodic", "wandering"}


def test_detect_near_cycle_exact_two_cycle():
    orbit = np.array([0.3, 1.7] * 200)
    period, err = detect_near_cycle(orbit)
    assert period == 2 and err < 1e-12


def test_fourier_continuation(narrow_band, wide_band):
    for p in (narrow_band, wide_band):
        # nu = 0 continuation agrees with the Laplace value at lambda = 0
        assert nb.fourier_fixed_point(p, 0.0) == pytest.approx(
            nb.closed_form_fixed_point(p, 0.0), rel=1e-12)
        # decays far above the band
        assert abs(nb.fourier_fixed_point(p, 1e6)) < 1e-6
        # cut-line product inside the band
        nu = 0.5 * (p.lambda_pm + p.lambda_pp)
        prod = nb.fourier_fixed_point(p, nu) * nb.fourier_fixed_point(p, -nu)
        assert prod.real == pytest.approx((p.n - 1) * p.C**2 / 2, rel=1e-12)
        assert abs(prod.imag) <= 1e-12 * abs(prod.real)
        # dissipative sign convention
        assert nb.fourier_fixed_point(p, nu).imag < 0


@given(st.floats(0.0, 40.0))
def test_fourier_hermitian(nu):
    p = nb.derive_params(5, 10.0, 1.0, 0.5)
    assert nb.fourier_fixed_point(p, -nu) == pytest.approx(
        np.conj(nb.fourier_fixed_point(p, nu)), rel=1e-13, abs=1e-15)


def test_real_multiplier_band_and_decay(narrow_band):
    p = narrow_band
    nu_in = np.linspace(p.lambda_pm * (1 + 1e-9), p.lambda_pp * (1 - 1e-9), 50)
    assert np.max(np.abs(nb.real_multiplier(p, nu_in) - 2.0)) < 1e-12
    assert nb.real_multiplier(p, 10.0 * p.lambda_pp) < 1e-3
    nu_all = np.linspace(0, 4 * p.lambda_pp, 500)
    assert np.max(nb.real_multiplier(p, nu_all)) <= 2.0 + 1e-12
    p0 = nb.derive_params(5, 10.0, 0.0, 0.5)
    assert nb.real_multiplier(p0, 5.0) == 0.0


def test_real_kernel_orbit(narrow_band):
    # a real noise kernel iterated at the fixed point grows by the gain per
    # step: doubles in the band, halves where the gain is exactly 1/2
    p = narrow_band
    nu_mid = 0.5 * (p.lambda_pm + p.lambda_pp)
    # gain exactly 1/2 where the outside square root equals 3/5
    nu_half = math.sqrt(p.omega_sq + 1.25 * p.a_sq)
    gain = nb.real_multiplier(p, np.array([nu_mid, nu_half]))
    assert gain[1] == pytest.approx(0.5, rel=1e-12)
    assert gain[0] ** 10 == pytest.approx(1024.0, rel=1e-10)
    assert gain[1] ** 4 == pytest.approx(1.0 / 16.0, rel=1e-10)


def test_real_multiplier_matches_fourier_iteration_outside_band(narrow_band):
    # outside the band the uniform map on the Fourier axis has real values:
    # iterate it from zero, as a deep tree does, and take the gain
    # 4 k^2 / ((n-1) C^2) of where it settles
    p = narrow_band
    nu = np.linspace(p.lambda_pp * 1.3, p.lambda_pp * 3.0, 9)
    g0 = (2.0 / p.m) / (p.omega_sq - nu**2)
    k = np.zeros_like(nu)
    for _ in range(200):
        k = (p.n - 1) * p.C**2 / 2.0 * g0 / (1.0 - g0 * k)
    gain = 4.0 * k**2 / ((p.n - 1) * p.C**2)
    assert np.allclose(nb.real_multiplier(p, nu), gain, rtol=1e-12)


def test_cavity_kernel_validation():
    with pytest.raises(ShapeError):
        CavityKernel(grid=np.array([1.0, 1.0]), values=np.zeros(2))
    with pytest.raises(ShapeError):
        CavityKernel(grid=np.array([1.0, np.inf]), values=np.zeros(2))
    with pytest.raises(ShapeError):
        CavityKernel(grid=np.array([1.0, 2.0]), values=np.array([1j, 0j]))
    kern = CavityKernel(grid=np.array([1.0, 2.0]),
                        values=np.array([1 + 0j, 2 + 0j]))
    assert kern.values.dtype == float
    with pytest.raises(TypeError):
        CavityKernel(grid=np.array([1.0]), values=np.zeros(1), mode="fourier")
