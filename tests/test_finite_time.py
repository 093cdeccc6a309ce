import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.linalg import toeplitz

import netbath as nb
from netbath.errors import AccuracyError, DomainError, ShapeError, SizeError
from netbath.finite_time import NoiseKernel, TwoTimeKernel, _toeplitz_solve
from netbath.laplace import g0_laplace
from netbath.timedomain import _composite_weights

from _reference import _bare_matrix, _compose, causal_matrix, \
    neumann_first_correction, noise_double_convolution

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


def _cos_noise(times, amp, freq):
    """The noise kernel amp cos(freq (t - s)), as its columns cos and sin."""
    u = times - times[0]
    return NoiseKernel(times, np.column_stack((np.cos(freq * u),
                                               np.sin(freq * u))), [amp, amp])


def _dense(kernel):
    """A noise kernel's matrix, F diag(w) F^T."""
    return (kernel.columns * kernel.weights) @ kernel.columns.T


def _successive_substitution(kI_upstream, params, tol=1e-15, max_iter=500):
    """Reference: the Neumann loop G <- A + A*(K*G), run to convergence."""
    times = kI_upstream.times
    dt = kI_upstream.dt
    lag = times[None, :] - times[:, None]
    a = np.where(lag >= 0, nb.bare_response(params, np.maximum(lag, 0.0)), 0.0)
    g = a.copy()
    for _ in range(max_iter):
        g_new = a + _compose(a, _compose(causal_matrix(kI_upstream), g, dt), dt)
        residual = np.abs(g_new - g).max() / max(1.0, np.abs(g_new).max())
        g = g_new
        if residual <= tol:
            return np.triu(g)
    raise AssertionError("reference loop did not converge")


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


def test_two_time_kernel_validation(ft_params):
    # a two-time kernel is a causal lag row sampled on its grid; a noise
    # kernel has no lag row, and a step that takes a causal kernel refuses it
    times = np.linspace(0.0, 1.0, 5)
    causal = TwoTimeKernel(times, np.cos(times))
    assert causal.dt == pytest.approx(0.25)
    assert np.array_equal(causal_matrix(causal), np.triu(toeplitz(np.cos(times))))
    noise = _cos_noise(times, 1.0, 1.0)
    assert noise.dt == pytest.approx(0.25)
    with pytest.raises(ShapeError, match="must be a causal kernel"):
        nb.vernon_imag_finite(noise, ft_params.C)
    with pytest.raises(ShapeError, match="sampled on the time grid"):
        TwoTimeKernel(times, np.zeros(4))
    with pytest.raises(ShapeError, match="sampled on the time grid"):
        TwoTimeKernel(times, np.zeros((5, 5)))
    with pytest.raises(ShapeError, match="finite step"):
        TwoTimeKernel(np.array([-np.inf, 0.0]), np.zeros(2))


def test_twinning_zero_kernel_returns_bare(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(3.0, dt)
    kz = TwoTimeKernel.from_stationary(times, lambda u: 0.0 * u)
    res = nb.twinning_solve(kz, ft_params)
    u = times - times[0]
    bare = toeplitz(np.zeros(times.size), nb.bare_response(ft_params, u))
    assert res.residual == 0.0
    g = causal_matrix(res.G)
    assert np.array_equal(g, bare)
    # The bare response at the subtracted times t_j - t_i differs from the
    # grid lags by rounding only.
    lag = np.maximum(times[None, :] - times[:, None], 0.0)
    subtracted = np.triu(nb.bare_response(ft_params, lag))
    assert np.abs(g - subtracted).max() <= \
        1e-14 * np.abs(subtracted).max()


def test_twinning_causality_and_step_guard(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(2.0, dt)
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    res = nb.twinning_solve(kk, ft_params)
    assert np.all(np.tril(causal_matrix(res.G), k=-1) == 0.0)
    coarse = nb.time_grid(3.0, 1.0)
    kc = TwoTimeKernel.from_stationary(coarse, kfunc)
    with pytest.raises(AccuracyError):
        nb.twinning_solve(kc, ft_params)


def test_twinning_residual_at_rounding(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(4.0, dt)
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    res = nb.twinning_solve(kk, ft_params)
    assert res.residual <= 1e-13
    # a row that underflows to zero solves its equation exactly: 0, not 0/0
    heavy = nb.derive_params(5, 10.0, 1e-10, 1e100)
    times = nb.time_grid(1e-290, 1e-291)
    res = nb.twinning_solve(TwoTimeKernel.from_stationary(times, np.zeros_like), heavy)
    assert not res.G.row.any() and res.residual == 0.0


def test_twinning_matches_successive_substitution(ft_params):
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(4.0, dt)
    kfunc, _, _ = _damped_sine(ft_params)
    upstream = TwoTimeKernel.from_stationary(times, kfunc)
    res = nb.twinning_solve(upstream, ft_params)
    ref = _successive_substitution(upstream, ft_params)
    g = causal_matrix(res.G)
    assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(g[1:, 1:], g[:-1, :-1])


def _row_by_row(a_row, k_row, dt):
    """Reference: forward substitution one row at a time, g_j = a_j +
    sum_{l=1..j} m_l g_{j-l}."""
    n = a_row.size
    k_half = k_row.copy()
    k_half[0] *= 0.5
    m_row = dt * dt * np.convolve(a_row, k_half)[:n]
    g_row = a_row.copy()
    for j in range(1, n):
        g_row[j] += m_row[1:j + 1] @ g_row[j - 1::-1]
    return m_row, g_row


@pytest.mark.parametrize("n", [3, 63, 64, 65, 129, 883, 1764])
def test_blocked_toeplitz_solve_matches_the_row_by_row_loop(ft_params, n):
    # block edges at 64 rows: one short block, one full, one past it, two
    # past it, and the windows of criterion 10 and of finite-time's defaults.
    # The upstreams are the damped sine and the default finite-time one, the
    # branch-cut kernel of the narrow band
    narrow = nb.derive_params(5, 10.0, 1.0, 0.5)
    kfunc, _, _ = _damped_sine(ft_params)
    for params, func in ((ft_params, kfunc),
                         (narrow, lambda u: nb.branch_cut_kernel(narrow, u).values)):
        dt = params.fine_step
        u = dt * np.arange(n)
        a_row = nb.bare_response(params, u)
        m_ref, g_ref = _row_by_row(a_row, func(u), dt)
        m_row, g_row = _toeplitz_solve(a_row, func(u), dt)
        assert np.array_equal(m_row, m_ref)
        scale = np.abs(g_ref).max()
        assert np.abs(g_row - g_ref).max() <= 1e-14 * scale

        def residual(g):
            r = g - np.convolve(m_row, g)[:n] - a_row
            return np.abs(r).max() / max(1.0, np.abs(g).max())

        # The row check repeats the loop's own dot products, so the loop's
        # residual reads 0 to 1.4e-17 on short windows, which no other order
        # of sums meets; there the bound is one rounding of a unit row.
        assert residual(g_row) <= max(residual(g_ref), np.finfo(float).eps)


def test_blocked_toeplitz_solve_exact_properties(ft_params):
    kfunc, _, _ = _damped_sine(ft_params)
    dt = ft_params.fine_step
    for n in (3, 64, 200):
        u = dt * np.arange(n)
        a_row = nb.bare_response(ft_params, u)
        _, g_row = _toeplitz_solve(a_row, kfunc(u), dt)
        assert g_row[0] == a_row[0] == 0.0
        # a zero kernel returns the bare row bit for bit
        m_row, g_row = _toeplitz_solve(a_row, np.zeros(n), dt)
        assert not m_row.any()
        assert g_row.tobytes() == a_row.tobytes()


def test_bare_matrix_is_exactly_toeplitz(ft_params):
    # neumann_first_correction's matrix on a 756-point window and a short one
    for T in (6.0, 0.3):
        times = nb.time_grid(T, ft_params.fine_step)
        a = _bare_matrix(ft_params, times)
        assert a.flags.c_contiguous and a.flags.writeable
        assert np.array_equal(a[0], nb.bare_response(ft_params, times - times[0]))
        assert np.array_equal(a[1:, 1:], a[:-1, :-1])
        assert not np.tril(a, k=-1).any()
        # The lag-built matrix takes the sines at the subtracted times
        # t_j - t_i, which differ from the grid lags by rounding only.
        lag = times[None, :] - times[:, None]
        ref = np.where(lag >= 0, nb.bare_response(ft_params, np.maximum(lag, 0.0)), 0.0)
        assert np.abs(a - ref).max() <= 1e-14 * np.abs(ref).max()


def test_from_stationary_is_exactly_toeplitz():
    times = nb.time_grid(1.0, 0.01)
    u = times - times[0]
    causal = TwoTimeKernel.from_stationary(times, np.cos)
    matrix = causal_matrix(causal)
    assert np.array_equal(matrix, np.triu(toeplitz(np.cos(u))))
    assert np.array_equal(causal.row, np.cos(u))
    assert np.array_equal(matrix[1:, 1:], matrix[:-1, :-1])


def test_stationary_kernels_are_read_only_and_outputs_fresh(ft_params):
    # a stationary kernel's lag row is read-only, so no write lands
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(2.0, dt)
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    G = nb.twinning_solve(kk, ft_params).G
    kI = nb.vernon_imag_finite(G, ft_params.C)
    up = _cos_noise(times, 1.0, 1.0)
    for kernel in (kk, G, kI):
        before = kernel.row.copy()
        with pytest.raises(ValueError):
            kernel.row[1] = 1.0
        with pytest.raises(ValueError):
            kernel.row[1:] *= 2.0
        assert np.array_equal(kernel.row, before)
    # the noise kernel returns fresh, writable columns, weights and diagonal
    state = nb.thermal_init(1.0, ft_params)
    inputs = (kk.row, G.row, kI.row, up.columns, up.weights,
              up.diagonal)
    for out in (nb.vernon_real_full(None, G, state, ft_params.C),
                nb.vernon_real_full(up, G, state, ft_params.C)):
        for vals in (out.columns, out.weights, out.diagonal):
            assert vals.flags.writeable
            assert not any(np.shares_memory(vals, k) for k in inputs)
        out.columns[1, 0] = 1.0
    assert G.row[1] != 1.0


def test_window_refused_before_allocating(ft_params):
    # 44,001 points: the grid, a causal kernel and a noise kernel are rows,
    # but the test reference that builds N x N arrays, at 15 GiB each,
    # refuses before it does, and so does the noise-kernel step on an
    # upstream of 6,500 columns; a noise kernel is refused by the steps
    # that take a causal one
    times = np.linspace(0.0, 200.0, 44001)
    kernel = TwoTimeKernel.from_stationary(times, np.sin)
    noise = NoiseKernel(times, np.zeros((times.size, 1)), [1.0])
    wide = NoiseKernel(times, np.broadcast_to(0.0, (times.size, 6500)),
                       np.ones(6500))
    drive = np.zeros(times.size)
    state = nb.thermal_init(1.0, ft_params)
    steps = ((SizeError, lambda: neumann_first_correction(kernel, ft_params)),
             (SizeError, lambda: nb.vernon_real_full(wide, kernel, state, ft_params.C)),
             (ShapeError, lambda: nb.ode_response_check(noise, ft_params, drive)),
             (ShapeError, lambda: nb.twinning_solve(noise, ft_params)),
             (ShapeError, lambda: nb.vernon_imag_finite(noise, ft_params.C)),
             (ShapeError, lambda: nb.vernon_real_full(None, noise, state, ft_params.C)),
             (ShapeError, lambda: nb.response_from_twinning(noise, ft_params.C, drive)))
    tracemalloc.start()
    try:
        for error, step in steps:
            with pytest.raises(error):
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
        num = float(np.sum(w * np.exp(-lam * u) * res.G.row[:n_keep]))
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
    assert np.allclose(const.row, 2.0 * nb.bare_response(ft_params, u),
                       rtol=1e-12)
    assert np.allclose(expect, const.row, rtol=1e-12)
    # quadratic in the coupling
    quad = nb.vernon_imag_finite(res.G, 4.0)
    assert np.allclose(causal_matrix(quad), 4.0 * causal_matrix(const),
                       rtol=1e-13)


def test_vernon_real_full_structure(ft_params):
    kfunc, _, _ = _damped_sine(ft_params)
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    times = nb.time_grid(4.0, dt)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    res = nb.twinning_solve(kk, ft_params)
    omega = math.sqrt(ft_params.omega_sq)
    state = nb.thermal_init(2.0 / omega, ft_params)
    kr_up = _cos_noise(times, 0.1, 0.7 * omega)
    out = nb.vernon_real_full(kr_up, res.G, state, ft_params.C)
    boundary_only = nb.vernon_real_full(None, res.G, state, ft_params.C)
    assert out.columns.shape == (times.size, 4)
    assert boundary_only.columns.shape == (times.size, 2)
    # an upstream on another grid, or one that is not a noise kernel, is
    # refused, whatever its size
    for other in (times[:-1], times * (1.0 + 1e-9)):
        shifted = NoiseKernel(other, np.zeros((other.size, 1)), [1.0])
        with pytest.raises(ShapeError, match="noise kernel on G's grid"):
            nb.vernon_real_full(shifted, res.G, state, ft_params.C)
    with pytest.raises(ShapeError, match="noise kernel on G's grid"):
        nb.vernon_real_full(kk, res.G, state, ft_params.C)
    # the one-sided differences at u = dt read four points, and the grid
    # has them
    short = TwoTimeKernel(times[:3], res.G.row[:3])
    with pytest.raises(ShapeError, match="at least 4 points"):
        nb.vernon_real_full(None, short, state, ft_params.C)
    with pytest.raises(ShapeError, match="at least 4"):
        nb.time_grid(2.0 * dt, dt)
    assert nb.time_grid(3.0 * dt, dt).size == 4
    # bit for bit: each upstream column convolved once with G's row and
    # keeping its weight, then C g weighted C' and C dg weighted 1/A', dg
    # the one-sided 2nd-order differences along the row, forward at u = 0
    # and dt and backward from 2dt on, and the diagonal summed a column at
    # a time in that order
    g, c, n = res.G.row, ft_params.C, times.size
    dg = np.empty(n)
    dg[2:] = (-3.0 * g[2:] + 4.0 * g[1:-1] - g[:-2]) / (2.0 * res.G.dt)
    dg[:2] = -(-3.0 * g[:2] + 4.0 * g[1:3] - g[2:4]) / (2.0 * res.G.dt)
    boundary = [(c * g, state.C_prime), (c * dg, 1.0 / state.A_prime)]
    conv = [(c * res.G.dt * (np.convolve(g, f)[:n] - 0.5 * f[0] * g), w)
            for f, w in zip(kr_up.columns.T, kr_up.weights)]
    for got, ref in ((out, conv + boundary), (boundary_only, boundary)):
        assert np.array_equal(got.columns, np.column_stack([f for f, _ in ref]))
        assert np.array_equal(got.weights, [w for _, w in ref])
        diag = np.zeros(n)
        for f, w in ref:
            diag += f * f * w
        assert np.array_equal(got.diagonal, diag)
        assert np.all(got.diagonal >= 0.0)
    # the columns are the dense double convolution plus the two boundary
    # outer products, to rounding
    dense = c * c * (state.C_prime * np.outer(g, g)
                     + np.outer(dg, dg) / state.A_prime)
    dense += noise_double_convolution(_dense(kr_up), res.G, c)
    assert np.abs(_dense(out) - dense).max() <= 1e-14 * np.abs(dense).max()


def test_noise_kernel_refuses_bad_columns_and_weights():
    # columns N x r over the grid with r weights, finite columns and weights
    # >= 0, or refused; a term past the float range is refused with them
    times = np.linspace(0.0, 1.0, 6)
    cols = np.column_stack((np.cos(times), np.sin(times)))
    for columns, weights in ((cols[:-1], [1.0, 1.0]), (cols, [1.0]),
                             (cols[:, 0], [1.0]), (cols, [[1.0, 1.0]])):
        with pytest.raises(ShapeError, match="N x r"):
            NoiseKernel(times, columns, weights)
    with pytest.raises(ShapeError, match="finite step"):
        NoiseKernel(times[::-1], cols, [1.0, 1.0])
    for weights in ([1.0, -1e-300], [1.0, np.nan], [-np.inf, 1.0]):
        with pytest.raises(DomainError, match="weights must be >= 0"):
            NoiseKernel(times, cols, weights)
    # a column that is not finite is refused at any weight, and so is a
    # term past the float range, with no RuntimeWarning
    for bad, weight in ((np.nan, 0.0), (np.inf, 0.0), (-np.inf, 1.0),
                        (1e200, 1.0), (1.0, np.inf)):
        broken = cols.copy()
        broken[3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="float range"):
                NoiseKernel(times, broken, [1.0, weight])
    # a kernel with no columns, and zero weights, are accepted
    assert not NoiseKernel(times, np.zeros((6, 0)), []).diagonal.any()
    assert np.array_equal(NoiseKernel(times, cols, [1.0, 0.0]).diagonal,
                          np.cos(times) ** 2)


def test_vernon_real_full_boundary_columns_match_the_closed_form():
    # with a zero upstream G is the bare response G0, so the kernel is
    # C^2 [C' G0(t) G0(s) + (1/A') G0'(t) G0'(s)], rows 0 and 1 included;
    # measured 8.95e-4, 2.24e-4 and 5.59e-5 of max at m = 0.5, 1.01e-3 to
    # 6.37e-5 at m = 1 and 3.27e-4 to 2.08e-5 at m = 4, the same at both
    # beta, at dt = fine_step, /2 and /4
    for m in (0.5, 1.0, 4.0):
        params = nb.derive_params(3, 1.0, 0.3, m)
        omega = math.sqrt(params.omega_sq)
        for beta in (1.3, 5.0):
            state = nb.thermal_init(beta, params)
            errors = []
            for k in range(3):
                times = nb.time_grid(3.0, params.fine_step / 2**k)
                G = nb.twinning_solve(TwoTimeKernel.from_stationary(
                    times, np.zeros_like), params).G
                kR = nb.vernon_real_full(None, G, state, params.C)
                g0 = 2.0 / (m * omega) * np.sin(omega * times)
                dg0 = 2.0 / m * np.cos(omega * times)
                ref = params.C**2 * (state.C_prime * np.outer(g0, g0)
                                     + np.outer(dg0, dg0) / state.A_prime)
                errors.append(np.abs(_dense(kR) - ref).max() / np.abs(ref).max())
            errors = np.array(errors)
            assert np.all(errors <= (1.05e-3, 2.6e-4, 6.6e-5))
            ratios = errors[:-1] / errors[1:]
            assert np.all((3.9 <= ratios) & (ratios <= 4.1))


@pytest.mark.parametrize("T, depth", [(2.8, 6), (14.0, 6), (56.0, 3)])
def test_noise_columns_match_the_dense_double_convolution(T, depth):
    # the depth loop of n - 1 identical children a level, on 100, 494 and
    # 1,973 points: the columns' kernel against the dense double convolution
    # of the level below plus the same two boundary outer products.
    # Measured at most 1.5e-15 of max at every depth
    params = nb.derive_params(3, 1.0, 0.3, 1.0)
    state = nb.thermal_init(1.3, params)
    times = nb.time_grid(T, params.fine_step)
    G = nb.twinning_solve(TwoTimeKernel.from_stationary(
        times, lambda u: nb.branch_cut_kernel(params, u).values), params).G
    kR, dense = None, 0.0
    for _ in range(depth):
        out = nb.vernon_real_full(kR, G, state, params.C)
        tail = NoiseKernel(times, out.columns[:, -2:], out.weights[-2:])
        if kR is not None:
            dense = noise_double_convolution(dense, G, params.C)
        dense = dense + _dense(tail)
        assert np.abs(_dense(out) - dense).max() <= 3e-15 * np.abs(dense).max()
        kR = NoiseKernel(times, out.columns, (params.n - 1) * out.weights)
        dense = (params.n - 1) * dense


def test_noise_depth_loop_holds_columns_only():
    # a depth-6 loop on 883 points holds 12 columns: 0.185 MiB measured by
    # tracemalloc, where one N x N float64 array is 5.9 MiB
    params = nb.derive_params(3, 1.0, 0.3, 1.0)
    state = nb.thermal_init(1.3, params)
    times = nb.time_grid(25.02, params.fine_step)
    G = nb.twinning_solve(TwoTimeKernel.from_stationary(
        times, lambda u: nb.branch_cut_kernel(params, u).values), params).G
    tracemalloc.start()
    try:
        kR = None
        for _ in range(6):
            kR = nb.vernon_real_full(kR, G, state, params.C)
            kR = NoiseKernel(times, kR.columns, (params.n - 1) * kR.weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert times.size == 883 and kR.columns.shape == (883, 12)
    assert peak < 1 << 18


def test_vernon_real_boundary_terms_decay_with_damped_fixture(ft_params):
    omega = math.sqrt(ft_params.omega_sq)
    dt = 1.0 / (20.0 * ft_params.lambda_pp)
    T = 6.0
    times = nb.time_grid(T, dt)
    memory = 0.3
    gamma_fix = 1.0 / memory
    G = TwoTimeKernel.from_stationary(
        times, lambda u: nb.bare_response(ft_params, u) * np.exp(-gamma_fix * u))
    state = nb.thermal_init(2.0 / omega, ft_params)
    kr_up = _cos_noise(times, 0.1, 0.7 * omega)
    full = nb.vernon_real_full(kr_up, G, state, ft_params.C)
    boundary = nb.vernon_real_full(None, G, state, ft_params.C)
    i10 = np.searchsorted(times, 10.0 * memory)
    late = np.abs(_dense(boundary)[i10:, i10:]).max()
    assert late / np.abs(_dense(full)).max() < 1e-6


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


def test_drive_off_the_kernel_grid_is_refused(ft_params):
    # a drive one point short, five points long or a scalar is refused by
    # both routes with ShapeError, not numpy's broadcast error
    times = nb.time_grid(1.0, 1.0 / (20.0 * ft_params.lambda_pp))
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    G = nb.twinning_solve(kk, ft_params).G
    for drive in (np.ones(times.size - 1), np.ones(times.size + 5), 1.0):
        with pytest.raises(ShapeError, match="kernel grid"):
            nb.response_from_twinning(G, ft_params.C, drive)
        with pytest.raises(ShapeError, match="kernel grid"):
            nb.ode_response_check(kk, ft_params, drive)
    assert nb.response_from_twinning(G, ft_params.C, np.ones(times.size)).shape \
        == times.shape


def test_backward_check_and_convolution_hold_rows_only(ft_params):
    # on 4,024 points both routes work on lag rows, together 7.0 rows of N
    # points measured, and agree
    times = nb.time_grid(32.0, 1.0 / (20.0 * ft_params.lambda_pp))
    kfunc, _, _ = _damped_sine(ft_params)
    kk = TwoTimeKernel.from_stationary(times, kfunc)
    G = nb.twinning_solve(kk, ft_params).G
    drive = np.exp(-0.5 * ((times - 1.5) / 0.15) ** 2)
    drive[(times < 1.0) | (times > 2.0)] = 0.0
    tracemalloc.start()
    try:
        q_ode = nb.ode_response_check(kk, ft_params, drive)
        q_conv = nb.response_from_twinning(G, ft_params.C, drive)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert times.size == 4024
    assert peak < 8 * 8 * times.size
    rms = np.sqrt(np.mean((q_ode - q_conv) ** 2)) / np.sqrt(np.mean(q_conv**2))
    assert rms <= 1e-6


def test_ode_response_step_guard(ft_params):
    times = nb.time_grid(3.0, 0.5)
    kz = TwoTimeKernel.from_stationary(times, lambda u: 0.0 * u)
    with pytest.raises(AccuracyError):
        nb.ode_response_check(kz, ft_params, np.zeros_like(times))


def test_ode_response_gives_up_on_a_kernel_strong_enough(ft_params):
    # a local kernel of -2e6 on the window's diagonal: the iterates still
    # move after 400 sweeps, so the check gives up; -1e5 converges.  The
    # threshold lies between 5.6e5 and 1e6, and values first overflow
    # between 4e6 and 5e6: at -5e6 the check gives up at the first sweep
    # that overflows, with the same error and no RuntimeWarning
    times = nb.time_grid(4.0, 1.0 / (20.0 * ft_params.lambda_pp))
    drive = np.ones_like(times)

    def local(s):
        return TwoTimeKernel.from_stationary(
            times, lambda u: np.where(u == 0.0, -s, 0.0))

    q = nb.ode_response_check(local(1e5), ft_params, drive)
    assert np.all(np.isfinite(q))
    for strength in (2e6, 5e6):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AccuracyError, match="did not converge"):
                nb.ode_response_check(local(strength), ft_params, drive)


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
            errors[i, k] = _modes_error(G.row, build(d), ft_params, times)
    assert np.all(errors <= bounds)
    ratios = errors[:, :-1] / errors[:, 1:]
    assert np.all((3.9 <= ratios) & (ratios <= 4.1))
    assert np.all(errors[1:] <= errors[0])


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
            row = nb.twinning_solve(upstream, ft_params).G.row
            if d in checked:
                errors[checked.index(d), k] = _modes_error(
                    row, nb.build_tree(2, d), ft_params, times)
            upstream = TwoTimeKernel.from_stationary(
                times, lambda u, row=row: 2.0 * c_half * row)
    assert np.all(errors <= (6.6e-6, 1.65e-6, 4.1e-7))
    ratios = errors[:, :-1] / errors[:, 1:]
    assert np.all((3.9 <= ratios) & (ratios <= 4.1))
    assert np.all(errors[1:] <= errors[0] * (1.0 + 1e-3))
