import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.linalg import toeplitz

import netbath as nb
from netbath.errors import AccuracyError, DomainError, ShapeError, SizeError
from netbath.finite_time import TwoTimeKernel, _compose, neumann_first_correction
from netbath.laplace import g0_laplace
from netbath.timedomain import _composite_weights

TANH1_HALF = 0.380797077977882444059729141302


@pytest.fixture(scope="module")
def ft_params():
    return nb.derive_params(3, 6.0, 0.5, 1.0)


def _damped_sine(params):
    omega = math.sqrt(params.omega_sq)
    gamma = omega / 4.0
    nu0 = 0.8 * omega
    amp = 0.6

    def kfunc(u):
        return amp * np.exp(-gamma * u) * np.sin(nu0 * u)

    def ktilde(lam):
        return amp * nu0 / ((lam + gamma) ** 2 + nu0**2)

    return kfunc, ktilde, gamma


def _successive_substitution(kI_upstream, params, tol=1e-15, max_iter=500):
    """Reference: the Neumann loop G <- A + A*(K*G), run to convergence."""
    times = kI_upstream.times
    dt = kI_upstream.dt
    lag = times[None, :] - times[:, None]
    a = np.where(lag >= 0, nb.bare_response(params, np.maximum(lag, 0.0)), 0.0)
    g = a.copy()
    for _ in range(max_iter):
        g_new = a + _compose(a, _compose(kI_upstream.values, g, dt), dt)
        residual = np.abs(g_new - g).max() / max(1.0, np.abs(g_new).max())
        g = g_new
        if residual <= tol:
            return np.triu(g)
    raise AssertionError("reference loop did not converge")


def _turn_on_upstream(params, times):
    """Non-stationary upstream: a dressed kernel behind a coupling switched on at t=1."""
    kfunc, _, _ = _damped_sine(params)
    G = nb.twinning_solve(TwoTimeKernel.from_stationary(times, kfunc), params).G
    return nb.vernon_imag_finite(G, lambda t: 0.0 if t < 1.0 else 1.3)


def test_thermal_init_values():
    p = nb.derive_params(2, 1.0, 0.0, 1.0)        # omega = 1, m*omega = 1
    state = nb.thermal_init(2.0, p)               # beta*omega/2 = 1
    assert state.A_prime == pytest.approx(TANH1_HALF, rel=1e-14)
    assert state.A_prime * state.C_prime == pytest.approx(0.25, rel=1e-14)
    # a beta at which tanh(beta omega/2) underflows to 0, or C' overflows,
    # is refused as beta = 0 is, here and at the finite-time command's omega
    for params in (p, nb.derive_params(5, 0.1, 0.001, 0.5)):
        for beta in (0.0, 5e-324, 1e-320):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DomainError, match="beta"):
                    nb.thermal_init(beta, params)


def test_thermal_ground_state_limit(ft_params):
    omega = math.sqrt(ft_params.omega_sq)
    state = nb.thermal_init(500.0 / omega, ft_params)
    assert state.A_prime == pytest.approx(ft_params.m * omega / 2, rel=1e-10)
    assert state.C_prime == pytest.approx(ft_params.m * omega / 2, rel=1e-10)
    with pytest.raises(DomainError):
        nb.thermal_init(0.0, ft_params)


def test_two_time_kernel_validation():
    times = np.linspace(0.0, 1.0, 5)
    bad = np.ones((5, 5))
    with pytest.raises(ShapeError):
        TwoTimeKernel(times=times, values=bad, kind="causal")
    ok = TwoTimeKernel(times=times, values=np.triu(bad), kind="causal")
    assert ok.dt == pytest.approx(0.25)
    with pytest.raises(ShapeError):
        TwoTimeKernel(times=times, values=np.zeros((4, 4)))
    with pytest.raises(ShapeError, match="finite step"):
        TwoTimeKernel(times=np.array([-np.inf, 0.0]), values=np.zeros((2, 2)))
    with pytest.raises(ShapeError, match="unknown kind 'anti'"):
        TwoTimeKernel(times=times, values=np.zeros((5, 5)), kind="anti")


def test_twinning_zero_kernel_returns_bare(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(3.0, dt)
    kz = TwoTimeKernel.from_stationary(times, lambda u: 0.0 * u)
    res = nb.twinning_solve(kz, ft_params)
    u = times - times[0]
    bare = toeplitz(np.zeros(times.size), nb.bare_response(ft_params, u))
    assert res.G.meta["solver"] == "toeplitz" and res.residual == 0.0
    assert np.array_equal(res.G.values, bare)
    # The bare response at the subtracted times t_j - t_i differs from the
    # grid lags by rounding only.
    lag = np.maximum(times[None, :] - times[:, None], 0.0)
    subtracted = np.triu(nb.bare_response(ft_params, lag))
    assert np.abs(res.G.values - subtracted).max() <= \
        1e-14 * np.abs(subtracted).max()


def test_twinning_causality_and_step_guard(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(2.0, dt)
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    res = nb.twinning_solve(kk, ft_params)
    assert np.all(np.tril(res.G.values, k=-1) == 0.0)
    coarse = nb.time_grid(2.0, 1.0)
    kc = TwoTimeKernel.from_stationary(coarse, kfunc)
    with pytest.raises(AccuracyError):
        nb.twinning_solve(kc, ft_params)


def test_twinning_residual_at_rounding(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(4.0, dt)
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    for upstream in (kk, _turn_on_upstream(ft_params, times)):
        res = nb.twinning_solve(upstream, ft_params)
        assert res.residual <= 1e-13


@pytest.mark.parametrize("solver", ["toeplitz", "triangular"])
def test_twinning_matches_successive_substitution(ft_params, solver):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(4.0, dt)
    if solver == "toeplitz":
        kfunc, _, _ = _damped_sine(ft_params)
        upstream = TwoTimeKernel.from_stationary(times, kfunc)
    else:
        upstream = _turn_on_upstream(ft_params, times)
    res = nb.twinning_solve(upstream, ft_params)
    ref = _successive_substitution(upstream, ft_params)
    assert res.G.meta["solver"] == solver
    assert np.abs(res.G.values - ref).max() <= 1e-13 * np.abs(ref).max()
    if solver == "toeplitz":
        g = res.G.values
        assert np.array_equal(g[1:, 1:], g[:-1, :-1])


def test_from_stationary_is_exactly_toeplitz():
    times = nb.time_grid(1.0, 0.01)
    u = times - times[0]
    causal = TwoTimeKernel.from_stationary(times, np.cos)
    sym = TwoTimeKernel.from_stationary(times, np.cos, kind="symmetric")
    assert np.array_equal(causal.values, np.triu(sym.values))
    assert np.array_equal(sym.values, sym.values.T)
    assert np.array_equal(sym.values[0], np.cos(u))
    assert np.array_equal(sym.values[1:, 1:], sym.values[:-1, :-1])


def test_stationary_kernels_are_read_only_and_outputs_fresh(ft_params):
    # every row of a stationary kernel aliases one buffer, so no write lands
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(2.0, dt)
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    G = nb.twinning_solve(kk, ft_params).G
    kI = nb.vernon_imag_finite(G, ft_params.C)
    sym = TwoTimeKernel.from_stationary(times, np.cos, kind="symmetric")
    for kernel in (kk, G, kI, sym):
        before = kernel.values[0].copy()
        with pytest.raises(ValueError):
            kernel.values[0, 1] = 1.0
        with pytest.raises(ValueError):
            kernel.values[1] *= 2.0
        assert np.array_equal(kernel.values[0], before)
    # the noise kernel and the triangular solve return fresh, writable arrays
    state = nb.thermal_init(1.0, ft_params)
    upstream = _turn_on_upstream(ft_params, times)
    fresh = [nb.vernon_real_full(None, G, state, ft_params.C).values,
             nb.vernon_real_full(sym, G, state, ft_params.C).values,
             nb.twinning_solve(upstream, ft_params).G.values]
    for vals in fresh:
        assert vals.flags.writeable
        assert not any(np.shares_memory(vals, k.values)
                       for k in (kk, G, kI, sym, upstream))
        vals[0, 1] = 1.0
    assert G.values[0, 1] != 1.0


def test_window_refused_before_allocating(ft_params):
    # 44,001 points: the grid and a stationary kernel are rows, but every
    # step that builds N x N arrays, at 15 GiB each, refuses before it does
    times = np.linspace(0.0, 200.0, 44001)
    kernel = TwoTimeKernel.from_stationary(times, np.sin)
    dense = TwoTimeKernel(times=times, values=np.broadcast_to(0.0, (44001,) * 2),
                          kind="symmetric")
    drive = np.zeros(times.size)
    state = nb.thermal_init(1.0, ft_params)
    steps = (lambda: nb.twinning_solve(dense, ft_params),
             lambda: neumann_first_correction(kernel, ft_params),
             lambda: nb.ode_response_check(kernel, ft_params, drive),
             lambda: nb.vernon_real_full(None, kernel, state, ft_params.C),
             lambda: nb.vernon_imag_finite(kernel, lambda t: ft_params.C))
    tracemalloc.start()
    try:
        for step in steps:
            with pytest.raises(SizeError):
                step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert nb.time_grid(200.0, times[1]).size == times.size


def test_twinning_stationary_laplace_closure(ft_params):
    kfunc, ktilde, gamma = _damped_sine(ft_params)
    omega = math.sqrt(ft_params.omega_sq)
    U = 14.0 / (2.0 * omega)
    dt = 1.0 / (40.0 * ft_params.lambda_pp)
    times = nb.time_grid(U + 10.0 / gamma, dt)
    dt_act = times[1] - times[0]
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    res = nb.twinning_solve(kk, ft_params)
    n_keep = int(round(U / dt_act)) + 1
    n_keep -= (n_keep - 1) % 4
    u = times[:n_keep]
    w = _composite_weights(n_keep, dt_act)
    worst = 0.0
    for lam in np.linspace(2 * omega, 10 * omega, 5):
        num = float(np.sum(w * np.exp(-lam * u) * res.G.values[0, :n_keep]))
        g0 = g0_laplace(ft_params, lam)
        ref = g0 / (1.0 - g0 * ktilde(lam))
        worst = max(worst, abs(num - ref) / abs(ref))
    assert worst <= 1e-5


def test_first_neumann_correction_matches_direct_quadrature(ft_params):
    kfunc, _, _ = _damped_sine(ft_params)
    omega = math.sqrt(ft_params.omega_sq)
    times = nb.time_grid(2.0, 0.02)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    g1 = neumann_first_correction(kk, ft_params)

    def g0f(x):
        return np.where(x >= 0, 2.0 / omega * np.sin(omega * x), 0.0)

    for i, j in ((20, 80), (0, 60), (35, 95)):
        t, s = times[i], times[j]
        ref, _ = dblquad(lambda t2, t1: g0f(t1 - t) * kfunc(t2 - t1) * g0f(s - t2),
                         t, s, lambda t1: t1, lambda t1: s, epsabs=1e-12)
        # trapezoid on dt=0.02 per dimension
        assert g1[i, j] == pytest.approx(ref, abs=5e-5)


def test_vernon_imag_finite_rules(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(3.0, dt)
    kz = TwoTimeKernel.from_stationary(times, lambda u: 0.0 * u)
    res = nb.twinning_solve(kz, ft_params)
    omega = math.sqrt(ft_params.omega_sq)
    const = nb.vernon_imag_finite(res.G, 2.0)
    # free branch with C=2: kI(u) = (1/2) C^2 G0(u) = (C^2/(m omega)) sin(omega u)
    u = times - times[0]
    expect = 4.0 / (ft_params.m * omega) * np.sin(omega * u)
    assert np.allclose(const.values[0], 2.0 * nb.bare_response(ft_params, u),
                       rtol=1e-12)
    assert np.allclose(expect, const.values[0], rtol=1e-12)
    # turn-on coupling zeroes the early rows
    turn_on = 1.5

    def c_edge(t):
        return 0.0 if t < turn_on else 2.0

    gated = nb.vernon_imag_finite(res.G, c_edge)
    early = times < turn_on
    assert np.all(gated.values[early, :] == 0.0)
    assert np.all(gated.values[:, early] == 0.0)
    # quadratic in the coupling
    quad = nb.vernon_imag_finite(res.G, 4.0)
    assert np.allclose(quad.values, 4.0 * const.values, rtol=1e-13)


def test_vernon_real_full_structure(ft_params):
    kfunc, _, _ = _damped_sine(ft_params)
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(4.0, dt)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    res = nb.twinning_solve(kk, ft_params)
    omega = math.sqrt(ft_params.omega_sq)
    state = nb.thermal_init(2.0 / omega, ft_params)
    kr_up = TwoTimeKernel.from_stationary(
        times, lambda u: 0.1 * np.cos(0.7 * omega * u), kind="symmetric")
    out = nb.vernon_real_full(kr_up, res.G, state, ft_params.C)
    assert out.kind == "symmetric"
    assert np.max(np.abs(out.values - out.values.T)) < 1e-14
    boundary_only = nb.vernon_real_full(None, res.G, state, ft_params.C)
    # boundary terms cannot cancel: both outer products are rank one with
    # positive coefficients
    assert np.all(np.diag(boundary_only.values) >= 0.0)
    # an upstream noise kernel on another grid is refused, whatever its size
    for other in (times[:-1], times * (1.0 + 1e-9)):
        shifted = TwoTimeKernel.from_stationary(other, np.zeros_like, kind="symmetric")
        with pytest.raises(ShapeError, match="grid differs"):
            nb.vernon_real_full(shifted, res.G, state, ft_params.C)
    # bit for bit, signed zeros included, the out-of-place expression with
    # an explicit zero double convolution when there is no upstream kernel
    g, c = res.G.values, np.full(times.size, ft_params.C)
    dg = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * res.G.dt)
    boundary = state.C_prime * np.outer(g[0], g[0]) \
        + (1.0 / state.A_prime) * np.outer(dg, dg)
    gw = g * res.G.dt
    gw[0, :] *= 0.5
    gw[np.arange(times.size), np.arange(times.size)] *= 0.5
    for got, conv in ((out, gw.T @ kr_up.values @ gw),
                      (boundary_only, np.zeros_like(g))):
        ref = c[:, None] * c[None, :] * (conv + boundary)
        assert np.array_equal(got.values, ref)
        assert np.array_equal(np.signbit(got.values), np.signbit(ref))


def test_vernon_real_boundary_terms_decay_with_damped_fixture(ft_params):
    omega = math.sqrt(ft_params.omega_sq)
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    T = 6.0
    times = nb.time_grid(T, dt)
    memory = 0.3
    gamma_fix = 1.0 / memory
    lag = np.maximum(times[None, :] - times[:, None], 0.0)
    damped = np.triu(nb.bare_response(ft_params, lag) * np.exp(-gamma_fix * lag))
    G = TwoTimeKernel(times=times, values=damped, kind="causal")
    state = nb.thermal_init(2.0 / omega, ft_params)
    kr_up = TwoTimeKernel.from_stationary(
        times, lambda u: 0.1 * np.cos(0.7 * omega * u), kind="symmetric")
    full = nb.vernon_real_full(kr_up, G, state, ft_params.C)
    boundary = nb.vernon_real_full(None, G, state, ft_params.C)
    i10 = np.searchsorted(times, 10.0 * memory)
    late = np.abs(boundary.values[i10:, i10:]).max()
    assert late / np.abs(full.values).max() < 1e-6


def test_ode_response_zero_drive(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(3.0, dt)
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    q = nb.ode_response_check(kk, ft_params, np.zeros_like(times))
    assert np.all(q == 0.0)
    for drive in (np.zeros(times.size - 1), np.zeros((1, times.size)), 0.0):
        with pytest.raises(ShapeError, match="drive must be sampled"):
            nb.ode_response_check(kk, ft_params, drive)


def test_ode_response_free_impulse(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(3.0, dt)
    dt_act = times[1] - times[0]
    kz = TwoTimeKernel.from_stationary(times, lambda u: 0.0 * u)
    j0 = times.size // 2
    drive = np.zeros_like(times)
    drive[j0] = 1.0 / dt_act
    q = nb.ode_response_check(kz, ft_params, drive)
    # time-reversed bare response from the impulse location
    expect = 0.5 * ft_params.C * nb.bare_response(ft_params, times[j0] - times)
    assert np.max(np.abs(q - expect)) < 1e-12 * np.max(np.abs(expect))


def test_ode_response_linearity(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(3.0, dt)
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    rng = np.random.default_rng(3)
    d1 = np.where((times > 0.5) & (times < 1.5), rng.standard_normal(times.size), 0.0)
    d2 = np.where((times > 1.0) & (times < 2.0), rng.standard_normal(times.size), 0.0)
    q1 = nb.ode_response_check(kk, ft_params, d1)
    q2 = nb.ode_response_check(kk, ft_params, d2)
    q12 = nb.ode_response_check(kk, ft_params, 2.0 * d1 - 0.5 * d2)
    assert np.allclose(q12, 2.0 * q1 - 0.5 * q2, rtol=1e-8, atol=1e-12)


def test_ode_response_matches_twinning_convolution(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(6.0, dt)
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    res = nb.twinning_solve(kk, ft_params)
    drive = np.exp(-0.5 * ((times - 1.5) / 0.15) ** 2)
    drive[(times < 1.0) | (times > 2.0)] = 0.0
    q_ode = nb.ode_response_check(kk, ft_params, drive)
    q_conv = nb.response_from_twinning(res.G, ft_params.C, drive)
    rms = np.sqrt(np.mean((q_ode - q_conv) ** 2)) / np.sqrt(np.mean(q_conv**2))
    assert rms <= 1e-6


def test_ode_response_step_guard(ft_params):
    times = nb.time_grid(3.0, 0.5)
    kz = TwoTimeKernel.from_stationary(times, lambda u: 0.0 * u)
    with pytest.raises(AccuracyError):
        nb.ode_response_check(kz, ft_params, np.zeros_like(times))


def _modes_error(G_row, tree, params, times):
    """Max error of a dressed response row against the tree's mode sum over
    C^2/2, over the mode sum's max."""
    ref = nb.oracle_time_kernel(tree, params, times).values / (params.C**2 / 2.0)
    return np.abs(G_row - ref).max() / np.abs(ref).max()


# max error over max |G| at dt = fine_step, /2 and /4, measured: binary
# trees 6.86e-6, 1.72e-6, 4.29e-7 (depth 1; depths 3 and 6 below); chains
# 3.53e-6, 8.84e-7, 2.21e-7 (depth 1; depth 5 below)
@pytest.mark.parametrize("family, depths, bounds", [
    ("binary", (1, 3, 6), (7.0e-6, 1.75e-6, 4.4e-7)),
    ("chain", (1, 5), (3.6e-6, 9.0e-7, 2.3e-7)),
])
def test_finite_window_matches_the_tree_modes_one_level(ft_params, family, depths,
                                                        bounds):
    # the root of a depth-d tree is one oscillator whose upstream is the sum
    # of its children's subtree kernels; the mode sum gives both exactly, so
    # the window's error is its own discretisation: O(dt^2), the same at
    # every depth
    build, children = ((lambda d: nb.build_tree(2, d), 2) if family == "binary"
                       else (nb.build_chain, 1))
    errors = np.empty((len(depths), 3))
    for i, d in enumerate(depths):
        upstream_tree = build(d - 1)
        for k in range(3):
            times = nb.time_grid(6.0, ft_params.fine_step / 2**k)
            upstream = TwoTimeKernel.from_stationary(
                times, lambda u: children * nb.oracle_time_kernel(
                    upstream_tree, ft_params, u).values)
            G = nb.twinning_solve(upstream, ft_params).G
            assert G.meta["solver"] == "toeplitz"
            errors[i, k] = _modes_error(G.values[0], build(d), ft_params, times)
    assert np.all(errors <= bounds)
    ratios = errors[:, :-1] / errors[:, 1:]
    assert np.all((3.9 <= ratios) & (ratios <= 4.1))
    assert np.all(errors[1:] <= errors[0])


def test_finite_window_matches_the_tree_modes_on_the_triangular_path(ft_params):
    # the same upstream as a full matrix: every row of G is the mode sum's
    # lag row, shifted to its diagonal (6.70e-6 measured at depth 3)
    times = nb.time_grid(6.0, ft_params.fine_step)
    upstream_tree = nb.build_tree(2, 2)
    upstream = TwoTimeKernel.from_stationary(
        times, lambda u: 2 * nb.oracle_time_kernel(upstream_tree, ft_params, u).values)
    G = nb.twinning_solve(TwoTimeKernel(times=times, values=np.array(upstream.values)),
                          ft_params).G
    assert G.meta["solver"] == "triangular"
    n = times.size
    ref = nb.oracle_time_kernel(nb.build_tree(2, 3), ft_params, times).values
    ref /= ft_params.C**2 / 2.0
    worst = max(np.abs(G.values[i, i:] - ref[:n - i]).max() for i in range(n))
    assert worst / np.abs(ref).max() <= 6.8e-6
    assert np.all(np.tril(G.values, k=-1) == 0.0)


def test_finite_window_iterated_level_by_level_matches_the_tree_modes(ft_params):
    # from a zero upstream, the depth-(d+1) root's upstream is its two
    # children's kernels, 2 (C^2/2) G_d: the loop the network's finite
    # window iterates.  Measured 6.46e-6, 1.62e-6 and 4.04e-7 at dt =
    # fine_step, /2 and /4, at depths 4, 8 and 12 alike
    c_half = ft_params.C**2 / 2.0
    checked = (4, 8, 12)
    errors = np.empty((len(checked), 3))
    for k in range(3):
        times = nb.time_grid(6.0, ft_params.fine_step / 2**k)
        upstream = TwoTimeKernel.from_stationary(times, np.zeros_like)
        for d in range(checked[-1] + 1):
            row = nb.twinning_solve(upstream, ft_params).G.values[0]
            if d in checked:
                errors[checked.index(d), k] = _modes_error(
                    row, nb.build_tree(2, d), ft_params, times)
            upstream = TwoTimeKernel.from_stationary(
                times, lambda u, row=row: 2.0 * c_half * row)
    assert np.all(errors <= (6.6e-6, 1.65e-6, 4.1e-7))
    ratios = errors[:, :-1] / errors[:, 1:]
    assert np.all((3.9 <= ratios) & (ratios <= 4.1))
    assert np.all(errors[1:] <= errors[0] * (1.0 + 1e-3))
