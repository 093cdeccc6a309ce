import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import netbath as nb
from netbath import laplace
from netbath.errors import BYTE_CAP, DomainError, ShapeError, SizeError, \
    SingularTransformError
from netbath.laplace import POLE_RTOL, _ORBIT_STEP_BYTES, CavityKernel, \
    OrbitReport, _chordal, _edge_update, _orbit_ends, detect_near_cycle

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
    assert type(out) is float
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
    # lambda^2 is finite at 1e154, (lambda^2 + omega^2)^2 is not
    with pytest.raises(DomainError, match=r"\(lambda\^2 \+ omega\^2\)\^2 is not finite"):
        nb.closed_form_fixed_point(p, 1e154)


def test_fourier_fixed_point_refuses_what_it_cannot_continue():
    # a negative C, allowed above the positivity bound, has no continuation;
    # where the band edges are not real the refusal carries lambda*
    with pytest.raises(DomainError, match="C >= 0"):
        nb.fourier_fixed_point(nb.derive_params(2, 1.0, -0.4, 1.0), 1.0)
    p = nb.derive_params(2, 0.2, 5.0, 0.1)
    assert not p.band_defined
    with pytest.raises(DomainError, match="band edges are not real") as err:
        nb.fourier_fixed_point(p, [0.0, 1.0])
    assert err.value.lambda_star == nb.lambda_star(p)


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


def _edge_update_inputs(seed):
    """Python-float (k_in, g0, c_half): seeded draws with G0 k_in on both
    sides of 1 within a few POLE_RTOL, then IEEE edge values in every slot."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(2000):
        g0 = float(10.0 ** rng.uniform(-3.0, 3.0))
        target = 1.0 + float(rng.uniform(-4.0, 4.0)) * POLE_RTOL
        cases.append((target / g0, g0, float(rng.uniform(0.0, 5.0))))
    for _ in range(200):
        cases.append(tuple(float(v) for v in rng.normal(0.0, 3.0, 3)))
    edges = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
             1e308, -1e308, 1.0, 0.5)
    cases += [(k, g, c) for k in edges for g in edges for c in edges[::3]]
    return cases


def test_edge_update_float_branch_matches_the_array_body():
    # the float branch (Python operators) against the array body on the same
    # floats as 1-element arrays: equal value bits, nan at the same poles,
    # the same flags
    cases = _edge_update_inputs(seed=23)
    k_in, g0, c_half = (np.array(col) for col in zip(*cases))
    with np.errstate(all="ignore"):
        ref_values, ref_poles = _edge_update(k_in, g0, c_half)
    got = [_edge_update(*case) for case in cases]
    assert all(type(v) is float and type(p) is bool for v, p in got)
    values = np.array([v for v, _ in got])
    poles = np.array([p for _, p in got])
    assert values.tobytes() == ref_values.tobytes()
    assert np.array_equal(poles, ref_poles)
    assert np.all(np.isnan(values[poles]))
    # a numpy scalar or 0-d array, as vernon_imag passes, takes the array
    # body and keeps its numpy flag
    for k in (np.float64(0.5), np.asarray(0.5)):
        assert type(_edge_update(k, 0.5, 1.0)[1]) is np.bool_
    # the draws reach the pole and miss it on both sides of G0 k = 1
    near = poles[:2000]
    prod = g0[:2000] * k_in[:2000]
    assert near.any() and (~near & (prod < 1.0)).any() and \
        (~near & (prod > 1.0)).any()


def _pole_lambda(params, lo, hi, step):
    """The float in (lo, hi) nearest the lambda at which the orbit from 0
    meets the pole at its step-th step: bisection on that step's
    denominator."""
    def denom(lam):
        x = 0.0
        for _ in range(step - 1):
            x = nb.uniform_map(x, params, lam)
        return 1.0 - nb.g0_laplace(params, lam) * x
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (denom(mid) > 0.0) == (denom(lo) > 0.0):
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda lam: abs(denom(lam)))


def test_orbit_ends_match_map_orbit_bit_for_bit(monkeypatch):
    # the lockstep grid against one map_orbit per lambda.  Grids of 1 and 8
    # go to map_orbit whole; grids of 9 and more step in lockstep and hand
    # their last orbits over mid-run.  Both regimes, lambda* itself, and
    # points below it, where orbits wander or meet the pole
    rng = np.random.default_rng(29)
    cases = []
    for size in (1, 8, 9, 200):
        for ratio in (0.6, 2.0):   # C/C*: ordered, disordered
            n, m = int(rng.integers(2, 5)), float(rng.uniform(0.5, 2.0))
            p = nb.derive_params(n, 1.0, ratio * nb.critical_coupling(n, 1.0, m), m)
            l_star = nb.lambda_star(p)
            lam = rng.uniform(0.05, 3.0, size) if l_star is None else \
                np.append(l_star * rng.uniform(0.2, 1.5, size - 1), l_star)
            cases.append((p, np.sort(lam)))
    # lambda* = 1; the orbits from 0 at these two points meet the pole at
    # their 5th and 7th steps, in lockstep
    wandering = nb.derive_params(2, 1.0, 2.4142135623730951, 1.0)
    poles = [_pole_lambda(wandering, 0.28, 0.30, 5),
             _pole_lambda(wandering, 0.68, 0.70, 7)]
    cases.append((wandering, np.sort(np.concatenate(
        (rng.uniform(0.2, 1.5, 7), [1.0], poles)))))
    handed = []

    def spy(*args, **kwargs):
        handed.append(kwargs["x0"])
        return nb.map_orbit(*args, **kwargs)

    monkeypatch.setattr(laplace, "map_orbit", spy)
    seen = set()
    for p, lam in cases:
        for steps in (0, 1, 2000):
            for tol in (0.0, 1e-12):
                final, taken, converged = _orbit_ends(p, lam, steps, tol)
                for i, x in enumerate(lam.tolist()):
                    ref = nb.map_orbit(p, x, steps=steps, tol=tol)
                    assert final[i].tobytes() == np.float64(ref.final).tobytes()
                    assert (taken[i], converged[i]) == \
                        (ref.orbit.size - 1, ref.classification == "converged")
                    seen.add(ref.classification)
    assert seen == {"pole", "converged", "near-periodic", "wandering"}
    assert any(x0 != 0.0 for x0 in handed)


def test_map_orbit_refuses_a_lambda_array(narrow_band):
    for lam in (np.array([1.0, 2.0]), np.array([1.0])):
        with pytest.raises(ShapeError):
            nb.map_orbit(narrow_band, lam)
    assert nb.map_orbit(narrow_band, np.asarray(1.0)).orbit.tobytes() == \
        nb.map_orbit(narrow_band, 1.0).orbit.tobytes()


def test_map_orbit_refuses_an_x0_array(narrow_band):
    for x0 in (np.array([1.0, 2.0]), np.array([1.0]), np.array([[np.nan]])):
        with pytest.raises(ShapeError, match="one x0"):
            nb.map_orbit(narrow_band, 1.0, x0=x0)
    assert nb.map_orbit(narrow_band, 1.0, x0=np.asarray(0.5)).orbit.tobytes() == \
        nb.map_orbit(narrow_band, 1.0, x0=0.5).orbit.tobytes()


def test_chordal_distance_past_the_square_range():
    # (1 + x^2)(1 + y^2) overflows here; the distance is still
    # |sin(arctan x - arctan y)|, with no RuntimeWarning
    for big in (1e300, -1e300, 1e200, -1.7e308):
        y = np.array([0.0, 1.0, -3.0, 2.5e-7, 0.5])
        got = _chordal(np.full(y.size, big), y)
        want = np.abs(np.sin(np.arctan(big) - np.arctan(y)))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    # between two huge points, where arctan has no bits left, the distance
    # |x - y| / (|x| |y|) is |1/y - 1/x|: 2/|x| for antipodal points, not
    # sin(pi) = 1.2e-16
    x = np.array([1e300, 1e300, 1.7e308, -1e200, 3e160])
    y = np.array([-1e300, 1e300, -1.7e308, 7e153, 5e160])
    np.testing.assert_allclose(_chordal(x, y), np.abs(1.0 / y - 1.0 / x),
                               rtol=1e-15, atol=0.0)
    # below the range, the squared form keeps its bits
    x, y = np.array([0.3, -2.0, 1e150]), np.array([1.7, 5.0, 3.0])
    assert np.array_equal(_chordal(x, y),
                          np.abs(x - y) / np.sqrt((1.0 + x * x) * (1.0 + y * y)))
    report = nb.map_orbit(nb.derive_params(2, 1.0, 2.4142135623730951, 1.0), 0.5,
                          x0=1e300, steps=10)
    assert np.isfinite(report.recurrence_error)


def test_map_orbit_refuses_an_orbit_past_the_byte_cap(narrow_band):
    # 41 bytes a step: 10^8 steps would hold about 4 GiB; nothing is iterated
    with pytest.raises(SizeError):
        nb.map_orbit(narrow_band, 1.0, steps=10**8)
    steps = int(BYTE_CAP // _ORBIT_STEP_BYTES) - 1
    assert nb.map_orbit(narrow_band, 1.0, steps=steps).classification == \
        "converged"


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


@pytest.mark.parametrize("evaluate", [nb.fourier_fixed_point,
                                      nb.real_multiplier, nb.spectral_density])
def test_fourier_side_refuses_non_finite_frequencies(narrow_band, evaluate):
    # nan gave J = 0.0 and a nan gain; a negative frequency stays valid, the
    # continuation being Hermitian, and a decoupled network checks it too
    decoupled = nb.derive_params(5, 10.0, 0.0, 0.5)
    for p in (narrow_band, decoupled):
        evaluate(p, [-10.0, 0.0, 10.0])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="must be finite"):
                evaluate(p, bad)
            with pytest.raises(DomainError, match="must be finite"):
                evaluate(p, [1.0, bad])


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
    for values in (np.zeros(3), np.zeros((1, 2)), 0.0):
        with pytest.raises(ShapeError, match="shapes differ"):
            CavityKernel(grid=np.array([1.0, 2.0]), values=values)
    kern = CavityKernel(grid=np.array([1.0, 2.0]),
                        values=np.array([1 + 0j, 2 + 0j]))
    assert kern.values.dtype == float
    with pytest.raises(TypeError):
        CavityKernel(grid=np.array([1.0]), values=np.zeros(1), mode="fourier")


def _seeded_params(count: int, seed: int):
    """Degree 2-6 networks with C from 0.1 to 4 times C*, both phases."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        omega0, m = rng.uniform(0.5, 10.0), rng.uniform(0.5, 2.0)
        c = rng.uniform(0.1, 4.0) * nb.critical_coupling(n, omega0, m)
        out.append(nb.derive_params(n, omega0, c, m))
    return out


def test_point_and_grid_give_the_same_bits(narrow_band):
    # a scalar lambda is a grid of one: every evaluator returns at a point
    # exactly the float it returns at that point of a grid
    lam = np.logspace(-1, 2, 373)
    cases = []
    # the last bit of s^2 differed here at index 58 when a point squared by pow
    for p in [nb.derive_params(2, 6.889003, 133.69532, 0.792661)] \
            + _seeded_params(30, 3):
        ok = nb.fixed_point_exists(p, lam)
        k = np.zeros(lam.size)
        k[ok] = nb.closed_form_fixed_point(p, lam[ok])
        cases += [
            ("sqrt_argument", functools.partial(nb.sqrt_argument, p), lam),
            ("fixed_point_exists", functools.partial(nb.fixed_point_exists, p),
             lam),
            ("g0_laplace", functools.partial(nb.g0_laplace, p), lam),
            ("closed_form_fixed_point",
             functools.partial(nb.closed_form_fixed_point, p), lam[ok]),
            ("quadratic_residual", functools.partial(nb.quadratic_residual, p),
             lam, k),
            ("vernon_imag", lambda k, x, p=p: nb.vernon_imag(k, p, p.C, x),
             k, lam),
            ("uniform_map", lambda k, x, p=p: nb.uniform_map(k, p, x), k, lam),
        ]
        if p.band_defined:
            cases += [(f.__name__, functools.partial(f, p), lam)
                      for f in (nb.fourier_fixed_point, nb.real_multiplier,
                                nb.spectral_density)]
    tree = nb.build_tree(narrow_band.n - 1, 2)
    cases += [
        ("oracle_kernel_laplace",
         functools.partial(nb.oracle_kernel_laplace, tree, narrow_band), lam),
        ("root_output_message",
         functools.partial(nb.root_output_message, tree, narrow_band), lam),
        # a point gives the one-point kernel
        ("output_environment",
         lambda x: nb.output_environment(tree, narrow_band, 3, x).values, lam),
    ]
    mismatched = {}
    for name, f, *grids in cases:
        grid = f(*grids)
        for i in range(grids[0].size):
            if not grid[i] == f(*(g[i] for g in grids)):
                mismatched[name] = mismatched.get(name, 0) + 1
    assert not mismatched, f"points that differ from the grid: {mismatched}"
