import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import netbath as nb
from netbath.errors import AccuracyError, DomainError, ShapeError
from netbath.finite_time import TwoTimeKernel
from netbath.timedomain import TimeKernel

# Frozen at 30-digit precision from the defining formulas.
NARROW = {
    "omega_sq": 110.0,
    "a_sq": 11.3137084989847603904135097937,
    "lambda_pp": 11.0142502467932314721163224615,
    "lambda_pm": 9.93409741753196416728392066316,
    "q": 0.901931333948422788314789375978,
    "Lambda": 212.659579249960557440390150721,
}
WIDE = {
    "omega_sq": 800.01,
    "a_sq": 493.153120237518116020015390516,
    "lambda_pp": 35.9605773067885843697777692903,
    "lambda_pm": 17.5173308401274959758643330578,
    "q": 0.487125962708629827233268029236,
}


def test_narrow_band_derived_fields(narrow_band):
    for field, expected in NARROW.items():
        assert getattr(narrow_band, field) == pytest.approx(expected, rel=1e-14)


def test_wide_band_derived_fields(wide_band):
    for field, expected in WIDE.items():
        assert getattr(wide_band, field) == pytest.approx(expected, rel=1e-14)


def test_band_identity(narrow_band, wide_band):
    for p in (narrow_band, wide_band):
        assert p.lambda_pp**2 - p.lambda_pm**2 == pytest.approx(
            2 * p.a_sq, rel=1e-12)
        assert 0.0 <= p.q <= 1.0


def test_decoupled_network():
    p = nb.derive_params(5, 10.0, 0.0, 0.5)
    assert p.omega_sq == 100.0
    assert p.a_sq == 0.0
    assert p.lambda_pp == p.lambda_pm == 10.0
    assert p.q == 1.0


def test_undefined_lower_edge_with_strong_coupling():
    # omega^2 < a^2 is reachable for n <= 6 at strong coupling: the upper
    # edge stays real, the lower edge and q are marked undefined
    p = nb.derive_params(2, 0.2, 5.0, 0.1)
    assert p.omega_sq < p.a_sq
    assert math.isfinite(p.lambda_pp)
    assert math.isnan(p.lambda_pm) and math.isnan(p.q)
    assert not p.band_defined


def test_positivity_bound_rejected():
    # -0.6 < -m*omega0^2/n = -0.5
    with pytest.raises(DomainError, match="positivity"):
        nb.derive_params(2, 1.0, -0.6, 1.0)
    # just inside the bound is allowed, band fields undefined
    p = nb.derive_params(2, 1.0, -0.4, 1.0)
    assert math.isnan(p.a_sq) and math.isnan(p.lambda_pp)


@pytest.mark.parametrize("bad", [
    dict(n=1, omega0=1.0, C=0.1, m=1.0),
    dict(n=2, omega0=0.0, C=0.1, m=1.0),
    dict(n=2, omega0=1.0, C=0.1, m=0.0),
    dict(n=2, omega0=float("nan"), C=0.1, m=1.0),
    dict(n=2, omega0=1.0, C=float("inf"), m=1.0),
    dict(n=2.0, omega0=1.0, C=0.1, m=1.0),
    dict(n="2", omega0=1.0, C=0.1, m=1.0),
])
def test_invalid_inputs_rejected(bad):
    with pytest.raises(DomainError):
        nb.derive_params(**bad)


def test_critical_coupling_values():
    assert nb.critical_coupling(2, 1.0, 1.0) == pytest.approx(
        1.2071067811865475244, rel=1e-14)
    assert nb.critical_coupling(5, 10.0, 0.5) == pytest.approx(
        76.1203874963741442514, rel=1e-14)
    for n in (1, 0, -3):
        with pytest.raises(DomainError, match="degree n must be >= 2"):
            nb.critical_coupling(n, 1.0, 1.0)


@pytest.mark.parametrize("n", [7, 8, 12, 50])
def test_critical_coupling_none_at_high_degree(n):
    # sqrt(8(n-1)) <= n from n = 7 on; the fixed point then exists for all
    # C >= 0 at every lambda.
    assert nb.critical_coupling(n, 1.0, 1.0) is None


def test_lambda_star():
    c2 = nb.critical_coupling(2, 1.0, 1.0)
    p = nb.derive_params(2, 1.0, 2.0 * c2, 1.0)
    assert nb.lambda_star(p) == pytest.approx(1.0, rel=1e-12)
    p_sub = nb.derive_params(2, 1.0, 0.5 * c2, 1.0)
    assert nb.lambda_star(p_sub) is None
    p_high = nb.derive_params(9, 1.0, 100.0, 1.0)
    assert nb.lambda_star(p_high) is None


def test_existence_direct_inequality(narrow_band):
    assert nb.sqrt_argument(narrow_band, 0.0) == pytest.approx(
        1.0 - 32.0 / 3025.0, rel=1e-14)
    assert nb.fixed_point_exists(narrow_band, 0.0)
    # just above the critical coupling at lambda = 0 the argument flips sign
    c2 = nb.critical_coupling(2, 1.0, 1.0)
    p = nb.derive_params(2, 1.0, c2 * 1.001, 1.0)
    assert not nb.fixed_point_exists(p, 0.0)
    assert nb.fixed_point_exists(p, 1e6)


def test_existence_boundary_matches_lambda_star():
    # direct inequality and the closed-form onset agree to 1e-10 in lambda
    c2 = nb.critical_coupling(2, 1.0, 1.0)
    for factor in (1.5, 2.0, 4.0):
        p = nb.derive_params(2, 1.0, factor * c2, 1.0)
        ls = nb.lambda_star(p)
        assert not nb.fixed_point_exists(p, ls * (1 - 1e-10))
        assert nb.fixed_point_exists(p, ls * (1 + 1e-10))


@given(st.integers(2, 12), st.floats(0.1, 20.0), st.floats(0.0, 5.0),
       st.floats(0.1, 4.0))
def test_derive_params_pure(n, omega0, c, m):
    a = nb.derive_params(n, omega0, c, m)
    b = nb.derive_params(n, omega0, c, m)
    # repr equality is bit-level and treats undefined (nan) fields as equal
    assert repr(a) == repr(b)


@given(st.integers(2, 12), st.floats(0.1, 20.0), st.floats(0.0, 5.0),
       st.floats(0.1, 4.0), st.floats(-1.0, 5.0))
@example(5, 10.0, 1.0, 0.5, 2.0)    # omega^2 = 120, not the 110 at C = 1
def test_replace_derives_and_validates_again(n, omega0, c, m, c_new):
    # the four inputs are the only init fields: replace derives every other
    # field again, bit for bit, and refuses what derive_params refuses
    p = nb.derive_params(n, omega0, c, m)
    assert [f.name for f in dataclasses.fields(p) if f.init] == ["n", "omega0", "C", "m"]
    bound = -m * omega0**2 / n
    if c_new > bound:
        assert repr(dataclasses.replace(p, C=c_new)) == repr(
            nb.derive_params(n, omega0, c_new, m))
    for bad in (bound, bound - 1.0, math.nan):
        with pytest.raises(DomainError):
            dataclasses.replace(p, C=bad)


@given(st.integers(2, 12), st.floats(0.1, 20.0),
       st.floats(1e-3, 5.0), st.floats(0.1, 4.0))
def test_band_width_linear_in_coupling(n, omega0, c, m):
    p1 = nb.derive_params(n, omega0, c, m)
    p2 = nb.derive_params(n, omega0, 2.0 * c, m)
    assert p2.a_sq == pytest.approx(2.0 * p1.a_sq, rel=1e-12)


def test_existence_scan_accepts_arrays(narrow_band):
    lam = np.linspace(0.0, 50.0, 11)
    out = nb.fixed_point_exists(narrow_band, lam)
    assert out.shape == lam.shape and out.all()


def test_fine_step_resolves_the_band(narrow_band):
    assert narrow_band.fine_step == 1.0 / (20.0 * narrow_band.lambda_pp)
    # no real band: the oscillator frequency sets the step
    p = nb.derive_params(5, 10.0, -0.1, 0.5)
    assert p.fine_step == 1.0 / (20.0 * math.sqrt(p.omega_sq))


def _twinning(p, step):
    nb.twinning_solve(TwoTimeKernel.from_stationary(step * np.arange(5), np.zeros_like),
                      p)


def _ode(p, step):
    nb.ode_response_check(TwoTimeKernel.from_stationary(step * np.arange(5),
                                                        np.zeros_like),
                          p, np.zeros(5))


def _forward(p, step):
    nb.forward_laplace(TimeKernel(step * np.arange(9), np.zeros(9), params=p),
                       [1e4])


@pytest.mark.parametrize("evaluate", [_twinning, _ode, _forward],
                         ids=["twinning_solve", "ode_response_check",
                              "forward_laplace"])
def test_evaluators_accept_fine_step_and_refuse_coarser(narrow_band, evaluate):
    # one owner of the limit: every evaluator accepts it exactly and refuses
    # a step one part in 10^9 coarser, with the same message
    evaluate(narrow_band, narrow_band.fine_step)
    with pytest.raises(AccuracyError, match="band-resolving step"):
        evaluate(narrow_band, narrow_band.fine_step * (1 + 1e-9))
    # a step that is not positive and finite never runs: a grid built on it
    # is refused as a grid
    for step in (0.0, -1e-3, math.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises((DomainError, ShapeError)):
                evaluate(narrow_band, step)


def test_time_grid_refuses_a_step_as_every_evaluator_does():
    # one owner of the positive-and-finite rule: time_grid refused these
    # with ShapeError (exit 2) while the evaluators refused them with
    # DomainError (exit 3)
    for dt in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="dt=.* must be positive and finite"):
            nb.time_grid(3.0, dt)
    for T in (math.nan, math.inf):
        with pytest.raises(ShapeError, match="must be finite"):
            nb.time_grid(T, 0.1)


# every public Laplace-side evaluator, as a function of (params, tree, lambda)
LAMBDA_ENTRY_POINTS = {
    "g0_laplace": lambda p, tree, lam: nb.g0_laplace(p, lam),
    "vernon_imag": lambda p, tree, lam: nb.vernon_imag(0.0, p, p.C, lam),
    "uniform_map": lambda p, tree, lam: nb.uniform_map(0.0, p, lam),
    "closed_form_fixed_point":
        lambda p, tree, lam: nb.closed_form_fixed_point(p, lam),
    "quadratic_residual": lambda p, tree, lam: nb.quadratic_residual(p, lam, 0.0),
    "sqrt_argument": lambda p, tree, lam: nb.sqrt_argument(p, lam),
    "fixed_point_exists": lambda p, tree, lam: nb.fixed_point_exists(p, lam),
    "map_orbit": lambda p, tree, lam: nb.map_orbit(p, lam, steps=10),
    "root_output_message":
        lambda p, tree, lam: nb.root_output_message(tree, p, lam),
    "output_environment":
        lambda p, tree, lam: nb.output_environment(tree, p, 1, lam),
    "depth_convergence":
        lambda p, tree, lam: nb.depth_convergence(p, p.n - 1, 3, lam),
    "oracle_kernel_laplace":
        lambda p, tree, lam: nb.oracle_kernel_laplace(tree, p, lam),
    "variance_gain": lambda p, tree, lam: nb.variance_gain(p, lam),
    "population_init":
        lambda p, tree, lam: nb.population_init(p, lam, size=1000),
}


@pytest.mark.parametrize("name", list(LAMBDA_ENTRY_POINTS))
def test_one_lambda_rule(narrow_band, name):
    # one owner decides which lambda is valid: every Laplace-side entry point
    # takes lambda = 0 and refuses, with DomainError and no numpy warning, a
    # negative, nan or infinite lambda and one whose square overflows
    tree = nb.build_tree(narrow_band.n - 1, 2)
    evaluate = LAMBDA_ENTRY_POINTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        evaluate(narrow_band, tree, 0.0)
        for lam in (-1.0, math.nan, math.inf, 1e200):
            with pytest.raises(DomainError, match="lambda"):
                evaluate(narrow_band, tree, lam)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_forward_laplace_takes_the_lambda_rule(narrow_band, lam):
    # the same rule, plus lambda != 0: the truncation bound divides by it
    tk = TimeKernel(narrow_band.fine_step * np.arange(9), np.zeros(9),
                    params=narrow_band)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="lambda"):
            nb.forward_laplace(tk, [lam])


def _check_uniform_reference(grid):
    """The step ``_check_uniform`` gave, or None where it refused, when it
    took its verdict from ``np.allclose``."""
    with np.errstate(invalid="ignore"):
        steps = np.diff(grid)
    if not ((steps > 0) & (steps < np.inf)).all() or not np.allclose(
            steps, steps[:1], rtol=1e-9, atol=0.0):
        return None
    return float(steps[0]) if steps.size else 0.0


def test_uniform_grid_rule_gives_the_allclose_verdict():
    # from -s0 through 0 the grid's steps are s0 and s1 exactly: s1 at
    # s0 (1 +- 1e-9) and one ULP either side of each, a step off by about
    # 1e-9 inside a longer grid, and inf and nan steps, give allclose's
    # verdict and step, as do one and two points
    from netbath.model import _check_uniform
    grids = [[0.0], [0.0, 0.1], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0, math.inf],
             [0.0, 1.0, math.nan], [-math.inf, 0.0], [math.inf, math.inf],
             np.linspace(0.0, 4.0, 1001)]
    for off in (-1.01e-9, -0.99e-9, 0.99e-9, 1.01e-9):
        grids.append(np.r_[0.0, 1.0, 2.0, 3.0 + off, 4.0 + off, 5.0 + off])
    for s0 in (1.0, 0.1, 3e-5):
        for edge in (s0 + 1e-9 * s0, s0 - 1e-9 * s0):
            for s1 in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                grids.append([-s0, 0.0, s1])
    verdicts = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for grid in grids:
            grid = np.asarray(grid, dtype=float)
            ref = _check_uniform_reference(grid)
            if ref is None:
                with pytest.raises(ShapeError, match="uniform"):
                    _check_uniform(grid, "time")
            else:
                step = _check_uniform(grid, "time")
                assert type(step) is float and step == ref
            verdicts.add(ref is None)
    assert verdicts == {True, False}
