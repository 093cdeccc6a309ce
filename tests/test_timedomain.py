import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

import netbath as nb
import netbath.errors
import netbath.timedomain
from netbath.bessel import j0
from netbath.errors import AccuracyError, DomainError, ShapeError
from netbath.timedomain import AccuracyWarning, TimeKernel, _band_nodes, \
    _composite_weights, _gl_nodes, _sine_sum, bessel_convolution, fd_weights


def test_j0_against_reference():
    x = np.linspace(0.0, 300.0, 30001)
    assert np.max(np.abs(j0(x) - scipy.special.j0(x))) < 1e-14
    assert j0(0.0) == 1.0 and type(j0(0.0)) is float
    assert j0(-3.7) == j0(3.7)


def test_fd_weights_known_stencils():
    w2 = fd_weights(np.arange(-1, 2), 2)
    assert np.allclose(w2, [1.0, -2.0, 1.0], rtol=1e-13)
    w1 = fd_weights(np.arange(0, 3), 1)
    assert np.allclose(w1, [-1.5, 2.0, -0.5], rtol=1e-13)
    w4 = fd_weights(np.arange(-2, 3), 4)
    assert np.allclose(w4, [1.0, -4.0, 6.0, -4.0, 1.0], rtol=1e-13)


def test_composite_weights_integrate_polynomials():
    # one point spans no interval; two take the trapezoid
    assert _composite_weights(1, 0.5).tolist() == [0.0]
    assert _composite_weights(2, 0.5).tolist() == [0.25, 0.25]
    for n in (5, 9, 8, 7, 6):
        h = 1.0 / (n - 1)
        x = np.linspace(0.0, 1.0, n)
        w = _composite_weights(n, h)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-13)
        assert np.sum(w * x**2) == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_branch_cut_zero_at_origin(narrow_band, wide_band):
    tau = np.linspace(0.0, 3.0, 301)
    for p in (narrow_band, wide_band):
        tk = nb.branch_cut_kernel(p, tau)
        assert tk.values[0] == 0.0
        # |sin| <= 1 bounds the kernel by the sum of its node coefficients
        _, coeff, _ = _band_nodes(p, 256)
        assert np.max(np.abs(tk.values)) <= np.sum(coeff) * (1 + 1e-12)


def test_branch_cut_decoupled_zero():
    # every time-domain route gives a decoupled network the zero kernel
    p0 = nb.derive_params(5, 10.0, 0.0, 0.5)
    tau = np.linspace(0, 2, 20)
    for route in (nb.branch_cut_kernel, nb.bessel_kernel,
                  nb.spectral_density_sine_transform):
        tk = route(p0, tau)
        assert np.all(tk.values == 0.0) and np.array_equal(tk.tau, tau)


def test_time_domain_routes_refuse_a_band_that_is_not_real():
    # one band rule: every route refuses a lower edge that is not real, and a
    # negative coupling, with the same DomainError carrying lambda*
    tau = np.linspace(0.0, 1.0, 11)
    for p in (nb.derive_params(2, 0.2, 5.0, 0.1), nb.derive_params(2, 1.0, -0.4, 1.0)):
        assert not p.band_defined
        for evaluate in (lambda: nb.spectral_density(p, [0.5, 1.0]),
                         lambda: nb.bessel_kernel(p, tau),
                         lambda: nb.branch_cut_kernel(p, tau),
                         lambda: nb.spectral_density_sine_transform(p, tau),
                         lambda: nb.oracle_time_kernel(nb.build_chain(4), p, tau)):
            with pytest.raises(DomainError, match="band edges are not real") as err:
                evaluate()
            assert err.value.lambda_star == nb.lambda_star(p)


def test_branch_cut_quadrature_converged(wide_band):
    tau = np.linspace(0.0, 5.0, 501)
    tk = nb.branch_cut_kernel(wide_band, tau)
    ref = nb.branch_cut_kernel(wide_band, tau, quad_order=2000)
    assert np.max(np.abs(tk.values - ref.values)) < 1e-12 * np.max(np.abs(ref.values))


def test_branch_cut_order_warning(wide_band):
    with pytest.warns(AccuracyWarning):
        nb.branch_cut_kernel(wide_band, np.linspace(0, 5, 50), quad_order=16)


def test_wide_band_breather_structure(wide_band):
    # carrier near omega with a slow envelope at the band half-width scale:
    # the envelope (magnitude smoothed over a carrier period) must dip well
    # below its peak and recover, within one beat period
    tau = np.linspace(0.0, 1.0, 4001)
    k = nb.branch_cut_kernel(wide_band, tau).values
    carrier = math.sqrt(wide_band.omega_sq)
    beat = 0.5 * (wide_band.lambda_pp - wide_band.lambda_pm)
    assert 2 * math.pi / carrier < 0.25           # many carrier cycles
    window = int(2 * math.pi / carrier / (tau[1] - tau[0]))
    env = np.array([np.abs(k[i:i + window]).max()
                    for i in range(0, k.size - window, window)])
    t_beat = 2 * math.pi / beat
    n_keep = int(t_beat / (window * (tau[1] - tau[0])))
    env = env[:max(n_keep, 4)]
    assert env.min() < 0.35 * env.max()


def test_bessel_boundary_values(wide_band):
    # f(0) = 0 and f'(0) = 1 read off the computed convolution grid
    h = 1.0 / (20.0 * wide_band.lambda_pp)
    t = h * np.arange(6)
    f = bessel_convolution(wide_band, t)
    assert abs(f[0]) < 1e-14
    w1 = fd_weights(np.arange(0, 5), 1) / h
    fprime0 = float(w1 @ f[:5])
    assert fprime0 == pytest.approx(1.0, rel=1e-5)


@pytest.mark.parametrize("n", [1, 2, 17, 545, 2001, 3000])
def test_blocked_sums_match_one_product(wide_band, n):
    # Row blocks give every row of the Bessel convolution the bits of one
    # product over the whole grid.
    p = wide_band
    t = np.linspace(0.0, 5.0, n)
    xi, wq = np.polynomial.legendre.leggauss(_gl_nodes(p, n, 5.0))
    half = t[:, None] / 2.0
    u = half * (xi[None, :] + 1.0)
    f = (j0(p.lambda_pm * u) * j0(p.lambda_pp * (t[:, None] - u))) @ wq
    assert np.array_equal(bessel_convolution(p, t), f * half[:, 0])


def _split_error(p, t):
    """Max distance of the split sine sum from the exactly summed direct sum
    over the same phases, in units of eps sum_j |w_j|."""
    x, coeff, _ = _band_nodes(p, 119)
    terms = np.sin(p.lambda_pp * np.outer(t, x)) * coeff
    exact = np.array([math.fsum(row) for row in terms])
    err = np.abs(_sine_sum(t, x, coeff, p.lambda_pp) - exact)
    return err.max() / (np.finfo(float).eps * np.abs(coeff).sum())


# Measured at most 11.1 on the affine grids below and 13.4 on the drifting
# ones, where the split without its first-order term in delta_i read 5.9e4
# to 1.9e5.
_SPLIT_BOUND = 32


@pytest.mark.parametrize("n", [1, 2, 17, 545, 2001, 3000])
def test_sine_sum_split_matches_exact_sum(wide_band, n):
    assert _split_error(wide_band, np.linspace(0.0, 5.0, n)) <= _SPLIT_BOUND


@pytest.mark.parametrize("drift", [5e-10, -9e-10])
@pytest.mark.parametrize("n", [545, 3000])
def test_sine_sum_split_on_a_drifting_grid(wide_band, n, drift):
    # Steps drifting linearly by up to `drift` relative pass _check_uniform,
    # but put tau_i off a_q + r_b by up to B |drift| steps.
    h = 5.0 / (n - 1)
    tau = np.concatenate(([0.0], np.cumsum(h * (1.0 + drift * np.linspace(0.0, 1.0, n - 1)))))
    assert TimeKernel(tau=tau, values=np.zeros(n)).step == h
    assert _split_error(wide_band, tau) <= _SPLIT_BOUND


def test_time_kernels_work_in_blocks():
    # A wide band on a long grid: one (t x node) matrix of the Bessel
    # convolution is 5.0 MiB, and one product over the whole grid peaked at
    # 59 MiB; the branch-cut phase matrix is 4.4 MiB and peaked at 10.7 MiB.
    p = nb.derive_params(5, 9.944699, 120.350994, 1.623234)
    runs = ((nb.bessel_kernel, np.linspace(0.0, 4.908, 2203), 12),
            (nb.branch_cut_kernel, np.linspace(0.0, 10.0, 3000), 3))
    for kernel, tau, mib in runs:
        kernel(p, tau[:50])
        tracemalloc.start()
        try:
            kernel(p, tau)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mib << 20, kernel.__name__


def test_sine_sum_charged_for_one_block(monkeypatch, wide_band):
    # Under a 2 MiB cap: the whole (tau x node) phase matrix and its sine
    # of 4,001 x 159 points, which the guard once charged, would need 9.7 MiB;
    # the output, the nodes and one column block of the trig matrices that
    # the sum builds fit, and the sum stays inside the cap.
    tau = np.linspace(0.0, 5.0, 4001)
    monkeypatch.setattr(netbath.errors, "BYTE_CAP", 2 << 20)
    tracemalloc.start()
    try:
        tk = nb.branch_cut_kernel(wide_band, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tk.meta["quad_order"] == 159
    assert peak < 2 << 20


def test_sine_sum_admits_what_the_row_block_charge_admitted(monkeypatch, wide_band):
    # The charge of the row-block sum: 25.6 bytes a point, 100 a node and 20
    # per entry of one block of max(2^16, 17 J) phases.  The largest grid on
    # [0, 5] it admitted under an 8 MiB cap is admitted by the split's
    # charge, and the kernel holds less than that charge.
    cap, nodes = 8 << 20, 159
    n = int((cap - 100 * nodes - 20 * max(1 << 16, 17 * nodes)) / 25.6)
    tau = np.linspace(0.0, 5.0, n)
    charged = []

    def charge(need, what, check=netbath.timedomain._check_bytes):
        charged.append(need)
        check(need, what)

    monkeypatch.setattr(netbath.errors, "BYTE_CAP", cap)
    monkeypatch.setattr(netbath.timedomain, "_check_bytes", charge)
    tracemalloc.start()
    try:
        tk = nb.branch_cut_kernel(wide_band, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tk.meta["quad_order"] == nodes
    assert peak < max(charged) <= cap


def test_bessel_kernel_zero_at_origin(wide_band):
    tau = np.linspace(0.0, 1.0, 101)
    tk = nb.bessel_kernel(wide_band, tau)
    assert tk.values[0] == 0.0


def test_bessel_kernel_step_guard(wide_band):
    with pytest.raises(AccuracyError):
        nb.bessel_kernel(wide_band, np.linspace(0, 1, 11),
                         fine_step=1.0 / wide_band.lambda_pp)


def test_route_agreement_both_presets(narrow_band, wide_band):
    tau = np.linspace(0.0, 5.0, 1001)
    for p in (narrow_band, wide_band):
        bc = nb.branch_cut_kernel(p, tau)
        bs = nb.bessel_kernel(p, tau)
        rms = np.sqrt(np.mean((bc.values - bs.values) ** 2)) \
            / np.sqrt(np.mean(bc.values ** 2))
        assert rms <= 1e-4


def test_spectral_density_support(narrow_band):
    p = narrow_band
    omega = np.array([0.0, p.lambda_pm - 1e-9, p.lambda_pm, p.lambda_pp,
                      p.lambda_pp + 1e-9, 100.0])
    j = nb.spectral_density(p, omega)
    assert j[0] == 0.0 and j[1] == 0.0 and j[4] == 0.0 and j[5] == 0.0
    assert j[2] == pytest.approx(0.0, abs=1e-4)   # vanishing square root
    inside = nb.spectral_density(p, np.linspace(p.lambda_pm * 1.001,
                                                p.lambda_pp * 0.999, 50))
    assert np.all(inside > 0.0)


def test_spectral_density_sine_transform_closure(narrow_band, wide_band):
    tau = np.linspace(0.0, 5.0, 401)
    for p in (narrow_band, wide_band):
        bc = nb.branch_cut_kernel(p, tau)
        st = nb.spectral_density_sine_transform(p, tau)
        assert np.max(np.abs(st.values - bc.values)) <= \
            1e-10 * np.max(np.abs(bc.values))


def test_forward_laplace_closure(wide_band):
    T = 20.0
    step = 1.0 / (20.0 * wide_band.lambda_pp)
    n = int(math.ceil(T / step / 4.0)) * 4
    tau = np.linspace(0.0, T, n + 1)
    tk = nb.branch_cut_kernel(wide_band, tau)
    lam = np.array([2.0, 5.0, 10.0])
    res = nb.forward_laplace(tk, lam)
    ref = nb.closed_form_fixed_point(wide_band, lam)
    assert np.max(np.abs(res.kernel.values - ref) / np.abs(ref)) <= 1e-6
    assert np.all(res.truncation_bound < 1e-12)
    assert not res.truncation_dominated.any()


def test_forward_laplace_linearity_and_zero(wide_band):
    tau = np.linspace(0.0, 2.0, 2001)
    tk = nb.branch_cut_kernel(wide_band, tau)
    lam = np.array([25.0, 40.0])    # lambda*T = 50, 80: no truncation warning
    base = nb.forward_laplace(TimeKernel(tau=tau, values=tk.values), lam)
    scaled = nb.forward_laplace(TimeKernel(tau=tau, values=3.5 * tk.values),
                                lam)
    assert np.allclose(scaled.kernel.values, 3.5 * base.kernel.values,
                       rtol=1e-13)
    zero = TimeKernel(tau=tau, values=np.zeros_like(tau))
    out = nb.forward_laplace(zero, lam)
    assert np.all(out.kernel.values == 0.0)
    with pytest.warns(AccuracyWarning):
        nb.forward_laplace(zero, np.array([5.0]))   # lambda*T = 10 < 20


def test_forward_laplace_guards(wide_band):
    tau = np.linspace(0.0, 1.0, 11)   # far coarser than 1/(20 lambda_pp)
    tk = TimeKernel(tau=tau, values=np.zeros_like(tau), params=wide_band)
    with pytest.raises(AccuracyError):
        nb.forward_laplace(tk, np.array([50.0]))
    shifted = TimeKernel(tau=tau + 1.0, values=np.zeros_like(tau))
    with pytest.raises(ShapeError):
        nb.forward_laplace(shifted, np.array([50.0]))
    with pytest.raises(DomainError):
        nb.forward_laplace(TimeKernel(tau=tau, values=np.zeros_like(tau)),
                           np.array([0.0]))


@pytest.mark.filterwarnings("error")
def test_time_kernel_validation(wide_band):
    # every time-domain route refuses a bad grid as TimeKernel does, before
    # it forms a node count or a sum, and without a warning
    routes = (lambda tau: TimeKernel(tau=tau, values=np.zeros(np.shape(tau))),
              lambda tau: nb.branch_cut_kernel(wide_band, tau),
              lambda tau: nb.spectral_density_sine_transform(wide_band, tau),
              lambda tau: nb.bessel_kernel(wide_band, tau),
              lambda tau: nb.oracle_time_kernel(nb.build_chain(4), wide_band, tau))
    for tau, message in (([], "a nonempty 1-d array"),
                         ([[0.0, 0.1]], "a nonempty 1-d array"),
                         (0.0, "a nonempty 1-d array"),
                         ([-0.1, 0.0], "nonnegative"),
                         ([0.0, 0.1, 0.3], "uniform and increasing"),
                         ([0.0, np.inf], "uniform and increasing by a finite"),
                         ([0.0, np.nan], "uniform and increasing by a finite"),
                         ([np.inf, np.inf], "uniform and increasing by a finite"),
                         ([np.inf], "finite"),
                         ([np.nan], "finite")):
        for route in routes:
            with pytest.raises(ShapeError, match=f"^tau grid must be {message}"):
                route(tau)
    with pytest.raises(ShapeError, match="values and tau shapes differ"):
        TimeKernel(tau=np.array([0.0, 0.1, 0.2]), values=np.zeros(2))
    with pytest.raises(ShapeError):
        TimeKernel(tau=np.array([0.0, 0.1]), values=np.array([0.0, np.inf]))
    # an infinite step is no step: forward_laplace took it to a nan weight
    with pytest.raises(ShapeError, match="finite step"):
        TimeKernel(tau=np.array([0.0, np.inf]), values=np.zeros(2))
