"""End-to-end acceptance checks behind the ``check`` subcommand.

Each criterion function returns a :class:`CriterionResult` with its verdict,
the measured figures of merit and their pinned tolerances; :func:`run_all`
alone numbers and times the ten, applies the runtime limits and turns an
exception into a failed result.  Two published parameter sets anchor the
checks: a narrow-band network (n=5, omega0=10, C=1, m=1/2) and a wide-band
one (n=20, omega0=0.1, C=20, m=1/2); chain checks use an ordered-phase line
(n=2, omega0=1, C=0.5, m=1).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .finite_time import TwoTimeKernel, ode_response_check, \
    response_from_twinning, time_grid, twinning_solve
from .laplace import _orbit_ends, closed_form_fixed_point, g0_laplace, \
    quadratic_residual, real_multiplier
from .model import critical_coupling, derive_params, lambda_star
from .oracle import mode_decomposition, oracle_kernel_laplace, \
    oracle_time_kernel
from .rs import population_init, population_step, variance_gain
from .timedomain import _composite_weights, bessel_kernel, branch_cut_kernel, \
    forward_laplace, spectral_density
from .tree_bp import build_chain, build_tree, root_output_message

NARROW_BAND = dict(n=5, omega0=10.0, C=1.0, m=0.5)
WIDE_BAND = dict(n=20, omega0=0.1, C=20.0, m=0.5)
ORDERED_CHAIN = dict(n=2, omega0=1.0, C=0.5, m=1.0)


#: Runtime limit in seconds of the criteria that have one, by number.
RUNTIME_LIMITS = {1: 1.0, 2: 30.0, 3: 10.0, 4: 60.0}


@dataclass
class CriterionResult:
    """A criterion's verdict; :func:`run_all` sets its number and runtime."""

    name: str
    passed: bool
    details: str
    metrics: dict = field(default_factory=dict)
    number: int = 0
    runtime: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} [{self.number:2d}] {self.name}: {self.details}"

    def as_dict(self) -> dict:
        return {"number": self.number, "name": self.name,
                "passed": bool(self.passed), "runtime_s": self.runtime,
                "details": self.details,
                "metrics": {k: (v if isinstance(v, (str, bool, int)) else float(v))
                            for k, v in self.metrics.items()}}


def _result(name, passed, details, **metrics) -> CriterionResult:
    return CriterionResult(name=name, passed=passed, details=details,
                           metrics=metrics)


def criterion_1() -> CriterionResult:
    """Closed-form fixed point vs iteration on a 200-point log grid."""
    lam = np.logspace(-1, 2, 200)
    worst_rel = 0.0
    worst_res = 0.0
    for preset in (NARROW_BAND, WIDE_BAND):
        params = derive_params(**preset)
        closed = closed_form_fixed_point(params, lam)
        final, _, stop, _ = _orbit_ends(params, lam, 100000, 1e-13)
        # an orbit that did not converge is no iterated fixed point
        rel = np.where(stop == "converged",
                       np.abs(final - closed) / np.abs(closed), np.inf)
        worst_rel = max(worst_rel, float(np.max(rel)))
        res = np.abs(quadratic_residual(params, lam, closed))
        worst_res = max(worst_res,
                        float(np.max(res / np.abs(closed))))
    return _result("fixed-point closure",
                   worst_rel <= 1e-10 and worst_res <= 1e-12,
                   f"max rel diff {worst_rel:.2e} (<=1e-10), "
                   f"residual {worst_res:.2e} (<=1e-12)",
                   max_rel_diff=worst_rel, max_residual=worst_res)


def criterion_2() -> CriterionResult:
    """Branch-cut vs closed-form Bessel inversion on tau in [0, 5]."""
    params = derive_params(**WIDE_BAND)
    tau = np.linspace(0.0, 5.0, 1001)
    bc = branch_cut_kernel(params, tau)
    bs = bessel_kernel(params, tau)
    rms = float(np.sqrt(np.mean((bc.values - bs.values) ** 2))
                / np.sqrt(np.mean(bc.values ** 2)))
    return _result("two-route inversion", rms <= 1e-4,
                   f"relative RMS {rms:.2e} (<=1e-4)", rel_rms=rms)


def criterion_3() -> CriterionResult:
    """Forward transform of the branch-cut kernel returns the fixed point."""
    worst = 0.0
    for preset in (WIDE_BAND, NARROW_BAND):
        params = derive_params(**preset)
        T = 20.0
        lam = np.logspace(math.log10(2.0), 1.0, 25)   # lambda*T in [40, 200]
        n = int(math.ceil(T / params.fine_step / 4.0)) * 4
        tau = np.linspace(0.0, T, n + 1)
        tk = branch_cut_kernel(params, tau)
        res = forward_laplace(tk, lam)
        ref = closed_form_fixed_point(params, lam)
        worst = max(worst, float(np.max(np.abs(res.kernel.values - ref)
                                        / np.abs(ref))))
    return _result("forward-Laplace closure", worst <= 1e-6,
                   f"max rel err {worst:.2e} (<=1e-6)", max_rel_err=worst)


def criterion_4() -> CriterionResult:
    """Corner-resolvent oracle vs message passing on chains and trees."""
    lam = np.logspace(-1, 2, 50)
    worst = 0.0
    chain_params, tree_params = derive_params(**ORDERED_CHAIN), derive_params(**NARROW_BAND)
    cases = [(chain_params, build_chain(d)) for d in (50, 200, 400)]
    cases += [(tree_params, build_tree(tree_params.n - 1, d)) for d in (2, 5, 8)]
    for params, tree in cases:
        bp = root_output_message(tree, params, lam)
        orc = oracle_kernel_laplace(tree, params, lam)
        worst = max(worst, float(np.max(np.abs(orc - bp) / np.abs(bp))))
    return _result("oracle equivalence", worst <= 1e-10,
                   f"max rel diff {worst:.2e} (<=1e-10)", max_rel_diff=worst)


def criterion_5() -> CriterionResult:
    """Finite-size error of the mode-sum kernel decreases with chain depth."""
    params = derive_params(**ORDERED_CHAIN)
    tau = np.linspace(0.0, 700.0, 3001)
    bc = branch_cut_kernel(params, tau)
    scale = np.sqrt(np.mean(bc.values ** 2))
    errs = {}
    for depth in (200, 400):
        otk = oracle_time_kernel(build_chain(depth), params, tau)
        errs[depth] = float(np.sqrt(np.mean((otk.values - bc.values) ** 2))
                            / scale)
    passed = errs[400] < errs[200] and errs[400] <= 1e-2
    return _result("finite-size convergence", passed,
                   f"rel RMS depth 200: {errs[200]:.2e} -> depth 400: "
                   f"{errs[400]:.2e} (strictly decreasing, final <=1e-2)",
                   err_depth_200=errs[200], err_depth_400=errs[400])


def criterion_6() -> CriterionResult:
    """Noise-kernel gain: 2 on the band, below 1 far outside, never above 2."""
    worst_band = 0.0
    worst_edge = 0.0
    worst_far = 0.0
    worst_global = 0.0
    for preset in (NARROW_BAND, WIDE_BAND):
        params = derive_params(**preset)
        a = math.sqrt(params.a_sq)
        # Strictly interior points: at the float representation of the edges
        # themselves the vanishing square root amplifies rounding to sqrt(eps).
        nu_band = np.linspace(params.lambda_pm * (1 + 1e-9),
                              params.lambda_pp * (1 - 1e-9), 100)
        gain_band = real_multiplier(params, nu_band)
        worst_band = max(worst_band, float(np.max(np.abs(gain_band - 2.0))))
        edges = real_multiplier(params, np.array([params.lambda_pm,
                                                  params.lambda_pp]))
        worst_edge = max(worst_edge, float(np.max(np.abs(edges - 2.0))))
        nu_far = np.linspace(params.lambda_pp + a, params.lambda_pp + 6 * a, 60)
        far = real_multiplier(params, nu_far)
        worst_far = max(worst_far, float(np.max(far)))
        nu_all = np.linspace(0.0, 3.0 * params.lambda_pp, 400)
        worst_global = max(worst_global,
                           float(np.max(real_multiplier(params, nu_all))))
    ok = worst_band <= 1e-12 and worst_edge <= 1e-6 and worst_far < 1.0 \
        and worst_global <= 2.0 + 1e-12
    return _result("band multiplier", ok,
                   f"|A-2| in band {worst_band:.2e} (<=1e-12), at edges "
                   f"{worst_edge:.2e} (<=1e-6), beyond edge+a max "
                   f"{worst_far:.3f} (<1), global max {worst_global:.15f} (<=2)",
                   band_dev=worst_band, edge_dev=worst_edge,
                   far_max=worst_far, global_max=worst_global)


def criterion_7() -> CriterionResult:
    """Mode frequencies inside the open band; density zero outside it."""
    ok = True
    margin = math.inf
    params = derive_params(**NARROW_BAND)
    for depth in (2, 3, 5):
        omega_b, _ = mode_decomposition(build_tree(params.n - 1, depth), params)
        ok &= params.lambda_pm < omega_b.min() and omega_b.max() < params.lambda_pp
        margin = min(margin, omega_b.min() - params.lambda_pm,
                     params.lambda_pp - omega_b.max())
    chain_params = derive_params(**ORDERED_CHAIN)
    omega_b, _ = mode_decomposition(build_chain(400), chain_params)
    ok &= chain_params.lambda_pm < omega_b.min() and \
        omega_b.max() < chain_params.lambda_pp
    for preset in (NARROW_BAND, WIDE_BAND):
        p = derive_params(**preset)
        outside = np.concatenate([np.linspace(0, p.lambda_pm * (1 - 1e-12), 50),
                                  np.linspace(p.lambda_pp * (1 + 1e-12),
                                              3 * p.lambda_pp, 50)])
        ok &= bool(np.all(spectral_density(p, outside) == 0.0))
    return _result("spectral support", ok,
                   f"all modes strictly in the open band (min margin "
                   f"{margin:.2e}); J identically 0 outside",
                   min_margin=margin)


def criterion_8() -> CriterionResult:
    """Delta-solution stability: gain below 1 and matching pool contraction."""
    lam_grid = np.logspace(-1, 2, 200)
    ok = True
    worst_identity = 0.0
    contraction_errs = {}
    for n in (2, 3, 5):
        c_star = critical_coupling(n, 1.0, 1.0)
        params = derive_params(n, 1.0, 0.1 * c_star, 1.0)
        # the grid and lambda = 1 in one call; each gain has its point's bits
        gains = variance_gain(params, np.append(lam_grid, 1.0))
        ok &= bool(np.all(gains[:-1] < 1.0))
        for i, x in ((0, lam_grid[0]), (-1, 1.0), (-2, lam_grid[-1])):
            k_star = closed_form_fixed_point(params, x)
            alg = 4.0 * k_star**4 / ((n - 1) ** 3 * params.C**4)
            g = float(gains[i])
            worst_identity = max(worst_identity, abs(g - alg) / abs(alg))
        lam = 1.0
        g = float(gains[-1])
        k_branch = closed_form_fixed_point(params, lam) / (n - 1)
        pop = population_init(params, lam, size=20000, seed=2024,
                              sigma=0.01 * k_branch)
        v0 = float(np.var(pop.samples))
        v1 = float(np.var(population_step(pop).samples))
        err = abs(v1 / v0 - g) / g
        contraction_errs[n] = err
        ok &= err <= 0.2
    ok &= worst_identity <= 1e-12
    details = ", ".join(f"n={n}: {e:.1%}" for n, e in contraction_errs.items())
    return _result("RS stability", ok,
                   f"gain<1 everywhere; contraction vs gain {details} "
                   f"(<=20%); identity dev {worst_identity:.2e} (<=1e-12)",
                   identity_dev=worst_identity,
                   **{f"contraction_err_n{n}": e
                      for n, e in contraction_errs.items()})


def criterion_9() -> CriterionResult:
    """Orbit convergence switches at the predicted onset frequency."""
    c_star = critical_coupling(2, 1.0, 1.0)
    params = derive_params(2, 1.0, 2.0 * c_star, 1.0)
    l_star = lambda_star(params)

    def converges(lam):
        stop = _orbit_ends(params, np.array([lam]), 20000, 1e-12)[2]
        return stop[0] == "converged"

    below = converges(0.9 * l_star)
    above = converges(1.1 * l_star)
    lo, hi = 0.9 * l_star, 1.1 * l_star
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if converges(mid):
            hi = mid
        else:
            lo = mid
    onset = 0.5 * (lo + hi)
    err = abs(onset - l_star) / l_star
    ok = (not below) and above and err <= 0.01
    return _result("disordered-phase onset", ok,
                   f"non-convergent below, convergent above; onset "
                   f"{onset:.6f} vs predicted {l_star:.6f} ({err:.3%}, <=1%)",
                   onset=onset, lambda_star=l_star, rel_err=err)


def criterion_10() -> CriterionResult:
    """Finite-window response consistency: Laplace closure and backward solve."""
    params = derive_params(3, 6.0, 0.5, 1.0)
    omega = math.sqrt(params.omega_sq)
    gamma = omega / 4.0
    nu0 = 0.8 * omega
    amp = 0.6

    def kfunc(u):
        return amp * np.exp(-gamma * u) * np.sin(nu0 * u)

    def ktilde(lam):
        return amp * nu0 / ((lam + gamma) ** 2 + nu0**2)

    # Stationary closure on a window with ten memory times of margin.
    U = 14.0 / (2.0 * omega)
    times = time_grid(U + 10.0 / gamma, params.fine_step / 2)
    dt_act = times[1] - times[0]
    upstream = TwoTimeKernel.from_stationary(times, kfunc)
    res = twinning_solve(upstream, params)
    n_keep = int(round(U / dt_act)) + 1
    n_keep -= (n_keep - 1) % 4
    u = times[:n_keep]
    row = res.G.values[0, :n_keep]
    w = _composite_weights(n_keep, dt_act)
    lam = np.linspace(2.0 * omega, 10.0 * omega, 9)
    num = np.sum(w * np.exp(-lam[:, None] * u) * row, axis=1)
    g0 = g0_laplace(params, lam)
    ref = g0 / (1.0 - g0 * ktilde(lam))
    worst_closure = float(np.max(np.abs(num - ref) / np.abs(ref)))

    # Backward response vs the dressed-response convolution.
    times2 = time_grid(6.0, params.fine_step)
    up2 = TwoTimeKernel.from_stationary(times2, kfunc)
    res2 = twinning_solve(up2, params)
    drive = np.exp(-0.5 * ((times2 - 1.5) / 0.15) ** 2)
    drive[(times2 < 1.0) | (times2 > 2.0)] = 0.0
    q_ode = ode_response_check(up2, params, drive)
    q_conv = response_from_twinning(res2.G, params.C, drive)
    rms = float(np.sqrt(np.mean((q_ode - q_conv) ** 2))
                / np.sqrt(np.mean(q_conv**2)))
    ok = (worst_closure <= 1e-5 and rms <= 1e-6
          and res.residual <= 1e-10 and res2.residual <= 1e-10)
    return _result("finite-time consistency", ok,
                   f"stationary closure {worst_closure:.2e} (<=1e-5); "
                   f"backward response vs convolution {rms:.2e} (<=1e-6)",
                   closure_err=worst_closure, response_rms=rms)


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10)


def run_all(report=None):
    """Run criteria 1-10; returns (results, total_runtime_seconds).

    Each criterion is timed here; one past its entry in ``RUNTIME_LIMITS``
    fails, and so does one that raises.  ``report``, when given, is called
    with each result as it completes.
    """
    t0 = time.perf_counter()
    results = []
    for number, fn in enumerate(ALL_CRITERIA, start=1):
        start = time.perf_counter()
        try:
            res = fn()
        except Exception as exc:   # a crashed criterion is a failed criterion
            res = _result(fn.__name__, False,
                          f"raised {type(exc).__name__}: {exc}")
        res.number, res.runtime = number, time.perf_counter() - start
        limit = RUNTIME_LIMITS.get(number)
        if limit is not None:
            res.passed = res.passed and res.runtime < limit
            res.details += f", runtime limit {limit:g} s"
        results.append(res)
        if report is not None:
            report(res)
    return results, time.perf_counter() - t0
