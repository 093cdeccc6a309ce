import math

import numpy as np
import pytest
import scipy.special

import netbath as nb
from netbath.errors import AccuracyError, DomainError, ShapeError
from netbath.timedomain import AccuracyWarning, TimeKernel, _composite_weights, \
    bessel_convolution, fd_weights


def test_j0_against_reference():
    x = np.linspace(0.0, 300.0, 30001)
    assert np.max(np.abs(nb.j0(x) - scipy.special.j0(x))) < 1e-14
    assert nb.j0(0.0) == 1.0
    assert nb.j0(-3.7) == nb.j0(3.7)


def test_fd_weights_known_stencils():
    w2 = fd_weights(np.arange(-1, 2), 2)
    assert np.allclose(w2, [1.0, -2.0, 1.0], rtol=1e-13)
    w1 = fd_weights(np.arange(0, 3), 1)
    assert np.allclose(w1, [-1.5, 2.0, -0.5], rtol=1e-13)
    w4 = fd_weights(np.arange(-2, 3), 4)
    assert np.allclose(w4, [1.0, -4.0, 6.0, -4.0, 1.0], rtol=1e-13)


def test_composite_weights_integrate_polynomials():
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
        env = nb.branch_cut_envelope(p)
        assert np.max(np.abs(tk.values)) <= env * (1 + 1e-12)


def test_branch_cut_decoupled_zero():
    p0 = nb.derive_params(5, 10.0, 0.0, 0.5)
    tk = nb.branch_cut_kernel(p0, np.linspace(0, 2, 20))
    assert np.all(tk.values == 0.0)


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


def test_time_kernel_validation():
    with pytest.raises(ShapeError):
        TimeKernel(tau=np.array([0.0, 0.1, 0.3]), values=np.zeros(3))
    with pytest.raises(ShapeError):
        TimeKernel(tau=np.array([-0.1, 0.0]), values=np.zeros(2))
    with pytest.raises(ShapeError):
        TimeKernel(tau=np.array([0.0, 0.1]), values=np.array([0.0, np.inf]))
