import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

import netbath as nb
import netbath.errors
import netbath.timedomain
from netbath.bessel import j1
from netbath.errors import AccuracyError, DomainError, ShapeError
from netbath.timedomain import AccuracyWarning, TimeKernel, _band_nodes, \
    _composite_weights, _gl_nodes, _j1_sum, _sine_sum

from _reference import spectral_density_sine_transform


def test_j1_against_reference():
    x = np.linspace(0.0, 300.0, 30001)
    assert np.max(np.abs(j1(x) - scipy.special.jv(1, x))) < 1e-14
    assert j1(0.0) == 0.0 and type(j1(0.0)) is float
    assert j1(-3.7) == -j1(3.7)


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


def _panel_loop_weights(n_points, h):
    """Reference: the composite weights added one Boole panel at a time."""
    if n_points < 2:
        return np.zeros(n_points)
    w = np.zeros(n_points)
    intervals = n_points - 1
    rest = intervals % 4
    if rest == 1 and intervals >= 5:
        n_boole, rest = intervals - 5, 5
    else:
        n_boole = intervals - rest
    boole = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) * (2.0 * h / 45.0)
    for start in range(0, n_boole, 4):
        w[start:start + 5] += boole
    simpson = np.array([1.0, 4.0, 1.0]) * (h / 3.0)
    three_eighth = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    if rest == 1:
        w[n_boole:n_boole + 2] += np.array([0.5, 0.5]) * h
    elif rest == 2:
        w[n_boole:n_boole + 3] += simpson
    elif rest == 3:
        w[n_boole:n_boole + 4] += three_eighth
    elif rest == 5:
        w[n_boole:n_boole + 3] += simpson
        w[n_boole + 2:n_boole + 6] += three_eighth
    return w


def test_composite_weights_match_the_panel_loop():
    # every remainder of the Boole panels, bit for bit, at three steps
    for h in (0.1, 1.0 / 3.0, 1.3887e-3):
        for n in range(401):
            assert _composite_weights(n, h).tobytes() == \
                _panel_loop_weights(n, h).tobytes()


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
                  spectral_density_sine_transform,
                  lambda p, t: nb.oracle_time_kernel(nb.build_tree(2, 3), p, t)):
        tk = route(p0, tau)
        assert np.all(tk.values == 0.0) and np.array_equal(tk.tau, tau)
    # the oracle sees no mode of a decoupled network
    assert tk.meta["n_modes"] == 0


def test_time_domain_routes_refuse_a_band_that_is_not_real():
    # one band rule: every route refuses a lower edge that is not real, and a
    # negative coupling, with the same DomainError carrying lambda*
    tau = np.linspace(0.0, 1.0, 11)
    for p in (nb.derive_params(2, 0.2, 5.0, 0.1), nb.derive_params(2, 1.0, -0.4, 1.0)):
        assert not p.band_defined
        for evaluate in (lambda: nb.spectral_density(p, [0.5, 1.0]),
                         lambda: nb.bessel_kernel(p, tau),
                         lambda: nb.branch_cut_kernel(p, tau),
                         lambda: spectral_density_sine_transform(p, tau),
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
    # S(0) = 0, and S(t) / t^2 tends to (w1^2 - w2^2)^2 / 8, since
    # h(u)/u -> (w1^2 - w2^2)/2; its next term is O((w t)^2)
    p = wide_band
    t = np.array([0.0, 1e-7, 1e-6])
    s = _j1_sum(p, t, _gl_nodes(p, t.size, 1e-6))
    assert s[0] == 0.0
    assert s[1:] / t[1:] ** 2 == pytest.approx(
        (p.lambda_pm ** 2 - p.lambda_pp ** 2) ** 2 / 8.0, rel=1e-8)


@pytest.mark.parametrize("n", [1, 2, 17, 545, 2001, 3000])
def test_blocked_sums_match_one_product(monkeypatch, wide_band, n):
    # Each row of the Bessel route's J1 sum is reduced on its own, so blocks
    # of one row, of seven and of the whole grid all give the bits of one
    # einsum over the whole grid.
    p = wide_band
    t = np.linspace(0.0, 5.0, n)
    nodes = _gl_nodes(p, n, 5.0)
    xi, wq = np.polynomial.legendre.leggauss(nodes)
    wq /= (1.0 + xi) * (1.0 - xi)
    half = t[:, None] / 2.0
    h = p.lambda_pm * j1(half * (p.lambda_pm * (1.0 + xi))) \
        - p.lambda_pp * j1(half * (p.lambda_pp * (1.0 + xi)))
    s = np.einsum("ij,ij,j->i", h, h[:, ::-1], wq)
    assert np.array_equal(_j1_sum(p, t, nodes), s)
    for rows in (1, 7, n):
        monkeypatch.setattr(netbath.timedomain, "_BLOCK_ELEMENTS", rows * nodes)
        assert np.array_equal(_j1_sum(p, t, nodes), s), rows


@pytest.mark.parametrize("nodes", [60, 700])
def test_j1_sum_holds_less_than_its_charge(wide_band, nodes):
    # _gl_nodes charges the sum's nodes, their companion matrix and one row
    # block, 3.1 float64 arrays of max(_BLOCK_ELEMENTS, nodes) entries; one
    # block peaked at 2.75-3.02 arrays.  With the sum itself on the grid,
    # the charge bounds what the J1 sum holds at its peak.
    td = netbath.timedomain
    t = np.linspace(0.0, 5.0, 3001)
    _j1_sum(wide_band, t[:5], nodes)
    tracemalloc.start()
    try:
        _j1_sum(wide_band, t, nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * t.size + td._NODE_BYTES * nodes \
        + td._COMPANION_BYTES * nodes**2 \
        + td._BESSEL_BLOCK_BYTES * max(td._BLOCK_ELEMENTS, nodes)


def _split_error(p, t):
    """Max distance of the split sine sum from the exactly summed direct sum
    over the same phases, in units of eps sum_j |w_j|."""
    x, coeff, _ = _band_nodes(p, 119)
    terms = np.sin(p.lambda_pp * np.outer(t, x)) * coeff
    exact = np.array([math.fsum(row) for row in terms])
    err = np.abs(_sine_sum(t, p.lambda_pp * x, coeff) - exact)
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


# Largest distance from the branch-cut kernel, in units of eps max|k|:
# (n, omega0, C, m), tau_max, points, bound.  Each bound is twice the value
# measured when it was set; the value measured now is beside it.  A
# fourth-derivative stencil divided by h^4 read 1.3e-7 to 9.2e-6 of max|k|
# on the first four, and 0.157 on the fine narrow-band grid of the fifth.
# At C = 1e-4 and 1e-6 the route once summed three terms of size w^2 to
# one of size (w2 - w1)^2, and read 3.2e10 and 2.5e14.
_ROUTE_CASES = [
    ((20, 0.1, 20.0, 0.5), 5.0, 1001, 32),     # criterion 2's preset: 27.2
    ((5, 10.0, 1.0, 0.5), 5.0, 1001, 49),      # the CLI defaults: 24.5
    ((5, 1.0, 0.2, 1.0), 20.0, 2001, 36),      # 5.5
    ((3, 1.0, 0.3, 0.5), 20.0, 2001, 30),      # 6.9
    # the narrow band on a step 44 times finer than fine_step: 6.6
    ((3, 0.526016, 0.062699, 1.786106), 3.92, 2485, 80),
    ((5, 10.0, 1e-4, 0.5), 5.0, 1001, 1.6e5),  # 7.94e4
    ((5, 10.0, 1e-6, 0.5), 5.0, 1001, 9.5e6),  # 4.75e6
]


def _route_error(p, tau):
    bc = nb.branch_cut_kernel(p, tau).values
    bs = nb.bessel_kernel(p, tau).values
    return np.max(np.abs(bs - bc)) / (np.finfo(float).eps * np.max(np.abs(bc)))


@pytest.mark.parametrize("args, tau_max, n, bound", _ROUTE_CASES,
                         ids=["criterion-2", "cli-defaults", "5-1-0.2-1",
                              "3-1-0.3-0.5", "narrow-2485", "cli-C-1e-4",
                              "cli-C-1e-6"])
def test_bessel_route_matches_branch_cut_to_rounding(args, tau_max, n, bound):
    p = nb.derive_params(*args)
    assert _route_error(p, np.linspace(0.0, tau_max, n)) <= bound


@pytest.mark.parametrize("n, omega0, m", [(3, 1.0, 1.0), (5, 2.0, 0.7)])
def test_bessel_kernel_at_critical_coupling(n, omega0, m):
    # at C = C* the lower band edge is 0, and so is J1(0 u); measured 5.9
    # and 12.0 eps max|k|
    p = nb.derive_params(n, omega0, nb.critical_coupling(n, omega0, m), m)
    assert p.lambda_pm == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _route_error(p, np.linspace(0.0, 5.0, 1001)) <= 20


def test_bessel_kernel_takes_any_uniform_grid(narrow_band):
    # the route evaluates on the grid it is given: a start off every
    # multiple of fine_step, and a step coarser than fine_step; measured 4.3
    # and 24.5 eps max|k|
    p = narrow_band
    for tau in (1e-4 + p.fine_step * np.arange(5), np.linspace(0.5, 5.0, 11)):
        assert nb.bessel_kernel(p, tau).meta["gl_nodes"] == \
            _gl_nodes(p, tau.size, tau[-1])
        assert _route_error(p, tau) <= 340


@pytest.mark.parametrize("kappa, bound", [(1e-2, 2.3e-14), (1e-4, 2.0e-12),
                                          (1e-6, 4.6e-11), (1e-8, 5.1e-9)])
def test_bessel_kernel_matches_the_chain_at_weak_coupling(kappa, bound):
    # The exact kernel of a chain (n = 2) inside its light cone, at
    # C = kappa C*, in units of its max|k|; bounds twice the measured 1.1e-14,
    # 9.8e-13, 2.3e-11 and 2.5e-9, the branch-cut kernel's own distance from
    # 1e-4 on.  The three-term bracket read 1.6e-12, 1.5e-8, 1.6e-4 and 1.49.
    p = nb.derive_params(2, 1.0, kappa * nb.critical_coupling(2, 1.0, 1.0), 1.0)
    tau = np.linspace(0.0, 20.0, 401)
    exact = nb.oracle_time_kernel(nb.build_chain(400), p, tau).values
    err = np.abs(nb.bessel_kernel(p, tau).values - exact)
    assert err.max() <= bound * np.abs(exact).max()


def _route_draws(seed: int, count: int):
    """Seeded (n, kappa, tau_max, points): n in 2..40; kappa = C/C* uniform
    in (0, 1), within 1e-8..1e-1 of 1, or 1e-8..1e-1; tau_max 0.1..100 on
    11..1500 points."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 41))
        mode = rng.integers(3)
        if mode == 0:
            kappa = rng.uniform(0.0, 1.0)
        elif mode == 1:
            kappa = 1.0 - 10.0 ** rng.uniform(-8.0, -1.0)
        else:
            kappa = 10.0 ** rng.uniform(-8.0, -1.0)
        yield n, kappa, 10.0 ** rng.uniform(-1.0, 2.0), \
            int(rng.integers(11, 1501))


def test_routes_agree_on_seeded_draws():
    # Bessel against branch-cut on 100 draws, omega0 = m = 1, with C* taken
    # as 2 where n > 6 has none, in units of max|k| on the grid.  On 1,000
    # draws (seeds 0-9) the distance was at most 8.7e-13 near C* (coarse
    # grids whose samples miss the kernel's peaks) and 4.9e-17 / kappa below
    # kappa = 1e-3, where the branch-cut kernel's own error grows as
    # 1/kappa; the bound is twice each.  The three-term bracket read 1.5e-2.
    failed = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for n, kappa, tau_max, points in _route_draws(0, 100):
            c_star = nb.critical_coupling(n, 1.0, 1.0) or 2.0
            p = nb.derive_params(n, 1.0, kappa * c_star, 1.0)
            tau = np.linspace(0.0, tau_max, points)
            bc = nb.branch_cut_kernel(p, tau).values
            err = np.abs(nb.bessel_kernel(p, tau).values - bc).max() \
                / np.abs(bc).max()
            if not err <= 2e-12 + 1e-16 / kappa:
                failed.append((n, kappa, tau_max, points, err))
    assert not failed


def test_bessel_kernel_holds_less_than_its_charge(monkeypatch):
    # 10^5 points, in row blocks of 2^14 entries so that the points
    # dominate: the kernel peaked at 24.0 bytes a point (its J1 sum, its
    # output and TimeKernel's checks), where the J2 terms once took it to
    # 48.6; _gl_nodes charges the points, the nodes, their companion matrix
    # and one row block.
    p = nb.derive_params(5, 10.0, 1.0, 0.5)
    tau = np.linspace(0.0, 5.0, 100_000)
    charged = []

    def charge(need, what, check=netbath.timedomain._check_bytes):
        charged.append(need)
        check(need, what)

    monkeypatch.setattr(netbath.timedomain, "_BLOCK_ELEMENTS", 1 << 14)
    monkeypatch.setattr(netbath.timedomain, "_check_bytes", charge)
    nb.bessel_kernel(p, tau[:50])
    tracemalloc.start()
    try:
        nb.bessel_kernel(p, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < charged[-1]


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
        st = spectral_density_sine_transform(p, tau)
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


def _dense_forward(tk, lam):
    """Reference transform: the (lambda x tau) matrix of exponentials."""
    weights = _composite_weights(tk.tau.size, tk.step)
    return np.exp(-np.outer(lam, tk.tau)) @ (weights * tk.values)


def test_forward_laplace_factorised_matches_the_dense_transform(
        wide_band, narrow_band):
    # exp(-lambda tau) split over block starts and offsets, to first order
    # in each point's delta, against the dense matrix: criterion 3's two
    # grids, test_forward_laplace_closure's, the same with every point moved
    # by up to 2e-10 steps, which keeps it uniform to 1e-9 (the transform
    # without the first order was 1.9e-13 off there), and short grids of 2
    # to 17 points
    cases = []
    for params in (wide_band, narrow_band):
        n = int(math.ceil(20.0 / params.fine_step / 4.0)) * 4
        cases.append((np.linspace(0.0, 20.0, n + 1), params,
                      np.logspace(math.log10(2.0), 1.0, 25)))
    step = 1.0 / (20.0 * wide_band.lambda_pp)
    n = int(math.ceil(20.0 / step / 4.0)) * 4
    tau = np.linspace(0.0, 20.0, n + 1)
    cases.append((tau, wide_band, np.array([2.0, 5.0, 10.0])))
    rng = np.random.default_rng(11)
    moved = tau + rng.uniform(-2e-10, 2e-10, tau.size) * (tau[1] - tau[0])
    moved[0] = 0.0
    cases.append((moved, wide_band, np.array([2.0, 10.0, 40.0])))
    for tau, params, lam in cases:
        tk = nb.branch_cut_kernel(params, tau)
        got = nb.forward_laplace(tk, lam).kernel.values
        ref = _dense_forward(tk, lam)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13
    for size in (2, 3, 5, 17):
        tk = TimeKernel(np.linspace(0.0, 2.0, size),
                        np.sin(3.0 * np.linspace(0.0, 2.0, size)))
        lam = np.array([25.0, 40.0])
        got = nb.forward_laplace(tk, lam).kernel.values
        assert np.allclose(got, _dense_forward(tk, lam), rtol=1e-13, atol=0.0)


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
              lambda tau: spectral_density_sine_transform(wide_band, tau),
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
