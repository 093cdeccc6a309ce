"""Time-domain evaluation of the fixed-point dissipation kernel.

Two independent routes invert the Laplace-side fixed point:

* :func:`branch_cut_kernel` integrates over the spectral band directly,

      k(tau) = (m lpp^3 / (2 pi)) * integral_q^1 sin(lpp x tau)
               sqrt((x^2-q^2)(1-x^2)) dx,

  rewritten by the substitution x^2 = q^2 + (1-q^2) s so the weight becomes
  sqrt(s(1-s)) and Gauss-Chebyshev (second kind) nodes absorb both endpoint
  square-root singularities exactly.  This is the production evaluator.  The
  amplitude is half of ``ModelParams.Lambda``: the halved value is what the
  contour algebra gives, what the Bessel route reproduces, and what
  forward-transforms back to the closed-form fixed point.

* :func:`bessel_kernel` builds f(t) = integral_0^t J0(w1 u) J0(w2 (t-u)) du
  and combines it with finite-difference derivatives,
  k = (m/4)(a^4 f - f'''' - 2 w^2 f'' - w^4 f).  The numerical fourth
  derivative makes this the looser cross-check of the pair.

:func:`spectral_density` is the band-limited density J(w) whose sine
transform reproduces the kernel; :func:`forward_laplace` closes the loop back
to the Laplace side.  A direct damped-contour inversion is deliberately
absent: the kernel does not decay and the transform has branch cuts on the
imaginary axis, which standard inverters cannot handle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bessel import j0
from .errors import AccuracyError, DomainError, ShapeError, _check_bytes
from .laplace import CavityKernel
from .model import ModelParams


class AccuracyWarning(UserWarning):
    """Requested discretization is below the recommended resolution."""


@dataclass
class TimeKernel:
    """A kernel sampled on a uniform tau >= 0 grid.

    ``params``, when given, lets :func:`forward_laplace` check the step
    against the band; ``meta`` carries evaluator details such as the node
    count.
    """

    tau: np.ndarray
    values: np.ndarray
    params: ModelParams | None = None
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.tau.ndim != 1 or self.tau.size < 1:
            raise ShapeError("tau grid must be a nonempty 1-d array")
        if np.any(self.tau < 0):
            raise ShapeError("tau grid must be nonnegative")
        if self.tau.size > 1:
            steps = np.diff(self.tau)
            if np.any(steps <= 0) or not np.allclose(steps, steps[0],
                                                     rtol=1e-9, atol=0.0):
                raise ShapeError("tau grid must be uniform and increasing")
        if self.values.shape != self.tau.shape:
            raise ShapeError("values and tau shapes differ")
        if not np.all(np.isfinite(self.values)):
            raise ShapeError("kernel values must be finite")

    @property
    def step(self) -> float:
        if self.tau.size < 2:
            return 0.0
        return float(self.tau[1] - self.tau[0])


def _band_nodes(params: ModelParams, order: int):
    """Gauss-Chebyshev (2nd kind) nodes mapped onto the band variable.

    Returns (x_i, c_i) with k(tau) = sum_i c_i sin(lambda_pp x_i tau) and the
    envelope bound sum_i c_i.
    """
    i = np.arange(1, order + 1)
    theta = i * math.pi / (order + 1)
    u = np.cos(theta)
    w = (math.pi / (order + 1)) * np.sin(theta) ** 2
    s = (1.0 + u) / 2.0
    q2 = params.q**2
    x = np.sqrt(q2 + (1.0 - q2) * s)
    # Half of ModelParams.Lambda: the closure-consistent kernel amplitude.
    amplitude = 0.5 * params.Lambda
    coeff = amplitude * (1.0 - q2) ** 2 / 2.0 * 0.25 * w / x
    return x, coeff


def recommended_quad_order(params: ModelParams, tau_max: float) -> int:
    """Node-count rule tied to the oscillation count lambda_pp * tau_max."""
    return int(math.ceil(4.0 + 2.0 * tau_max * params.lambda_pp / math.pi))


def branch_cut_kernel(params: ModelParams, tau_grid, quad_order: int | None = None) -> TimeKernel:
    """Evaluate the fixed-point kernel by quadrature over the spectral band.

    Exact zero kernel for a decoupled network (C = 0).  Warns with
    :class:`AccuracyWarning` when ``quad_order`` is below the rule
    ``4 + 2 tau_max lambda_pp / pi``.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if params.C == 0:
        return TimeKernel(tau=tau_grid, values=np.zeros_like(tau_grid),
                          params=params)
    if not params.band_defined:
        raise DomainError("band edges are not real at these parameters")
    tau_max = float(np.max(tau_grid)) if tau_grid.size else 0.0
    rule = recommended_quad_order(params, tau_max)
    if quad_order is None:
        quad_order = rule + 40
    elif quad_order < rule:
        warnings.warn(
            f"quad_order={quad_order} below recommended {rule} for "
            f"tau_max*lambda_pp={tau_max * params.lambda_pp:.3g}",
            AccuracyWarning, stacklevel=2)
    # the phase matrix and its sine
    _check_bytes(2 * 8 * tau_grid.size * quad_order,
                 f"branch-cut quadrature of {tau_grid.size} x {quad_order} points")
    x, coeff = _band_nodes(params, quad_order)
    phases = params.lambda_pp * np.outer(tau_grid, x)
    values = np.sin(phases) @ coeff
    return TimeKernel(tau=tau_grid, values=values, params=params,
                      meta={"quad_order": quad_order})


def branch_cut_envelope(params: ModelParams) -> float:
    """Amplitude bound Lambda * integral_q^1 sqrt((x^2-q^2)(1-x^2)) dx (256 nodes)."""
    if params.C == 0:
        return 0.0
    _, coeff = _band_nodes(params, 256)
    return float(np.sum(coeff))


def spectral_density(params: ModelParams, omega_grid):
    """Environment spectral density with compact band support.

    ``J(w) = (m/(2 pi)) sqrt((w^2 - lambda_pm^2)(lambda_pp^2 - w^2))`` on the
    band, zero outside.  The prefactor is fixed by requiring
    ``integral J(w) sin(w tau) dw`` to coincide with
    :func:`branch_cut_kernel`, whose own normalization is pinned by the
    forward-transform closure.  A degenerate band (C = 0) yields identically
    zero.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    out = np.zeros_like(omega_grid)
    if params.C == 0:
        return out
    if not params.band_defined:
        raise DomainError("band edges are not real at these parameters")
    w2 = omega_grid**2
    inside = (np.abs(omega_grid) >= params.lambda_pm) & (np.abs(omega_grid) <= params.lambda_pp)
    out[inside] = params.m / (2.0 * math.pi) * np.sqrt(
        (w2[inside] - params.lambda_pm**2) * (params.lambda_pp**2 - w2[inside]))
    return out


def spectral_density_sine_transform(params: ModelParams, tau_grid) -> TimeKernel:
    """Integrate J(w) sin(w tau) dw over the band with the same node rule.

    Uses the substitution w = lambda_pp * x and evaluates J through
    :func:`spectral_density`, so agreement with :func:`branch_cut_kernel`
    checks the density's formula and prefactor rather than repeating the
    kernel quadrature verbatim.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if params.C == 0:
        return TimeKernel(tau=tau_grid, values=np.zeros_like(tau_grid),
                          params=params)
    tau_max = float(np.max(tau_grid)) if tau_grid.size else 0.0
    quad_order = recommended_quad_order(params, tau_max) + 40
    x, _ = _band_nodes(params, quad_order)
    # Rebuild the quadrature weights for sqrt(s(1-s)) and change variables
    # w = lambda_pp x; J carries the square-root factors.
    i = np.arange(1, quad_order + 1)
    theta = i * math.pi / (quad_order + 1)
    w_cheb = (math.pi / (quad_order + 1)) * np.sin(theta) ** 2
    omega = params.lambda_pp * x
    jvals = spectral_density(params, omega)
    q2 = params.q**2
    # dw = lambda_pp (1-q^2) ds / (2x); sqrt(s(1-s)) = sqrt((x^2-q^2)(1-x^2))/(1-q^2)
    coeff = 0.25 * w_cheb * jvals * params.lambda_pp * (1.0 - q2) / (2.0 * x) \
        * (1.0 - q2) / np.sqrt((x**2 - q2) * (1.0 - x**2))
    values = np.sin(params.lambda_pp * np.outer(tau_grid, x)) @ coeff
    return TimeKernel(tau=tau_grid, values=values, params=params)


# ---------------------------------------------------------------------------
# Bessel-convolution route


def fd_weights(offsets, deriv: int) -> np.ndarray:
    """Fornberg finite-difference weights at 0 for the given node offsets.

    Offsets are in units of the grid step; divide the result by h**deriv at
    the call site.
    """
    x = np.asarray(offsets, dtype=float)
    n = x.size
    m = deriv
    if m >= n:
        raise ValueError("need more points than the derivative order")
    delta = np.zeros((m + 1, n, n))
    delta[0, 0, 0] = 1.0
    c1 = 1.0
    for j in range(1, n):
        c2 = 1.0
        for k in range(j):
            c3 = x[j] - x[k]
            c2 *= c3
            for i in range(min(j, m) + 1):
                delta[i, j, k] = (x[j] * delta[i, j - 1, k]
                                  - (i * delta[i - 1, j - 1, k] if i > 0 else 0.0)) / c3
        for i in range(min(j, m) + 1):
            delta[i, j, j] = (c1 / c2) * ((i * delta[i - 1, j - 1, j - 1] if i > 0 else 0.0)
                                          - x[j - 1] * delta[i, j - 1, j - 1])
        c1 = c2
    return delta[m, n - 1, :]


def _gl_nodes(params: ModelParams, n_points: int, t_max: float) -> int:
    """Gauss-Legendre node count for the convolution on n_points up to t_max.

    The count follows the total phase (w1 + w2) t_max.  Refuses, before
    allocating, a (t x node) matrix or node-finding companion matrix past the
    cap.
    """
    nodes = int(math.ceil(0.55 * (params.lambda_pm + params.lambda_pp)
                          * t_max)) + 50
    _check_bytes(8 * nodes * max(n_points, nodes),
                 f"Bessel convolution of {n_points} x {nodes} points")
    return nodes


def bessel_convolution(params: ModelParams, t_grid) -> np.ndarray:
    """f(t) = integral_0^t J0(w1 u) J0(w2 (t-u)) du by Gauss-Legendre panels.

    One fixed node set scaled to each t keeps the evaluation vectorized.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    w1 = params.lambda_pm
    w2 = params.lambda_pp
    t_max = float(np.max(t_grid)) if t_grid.size else 0.0
    xi, wq = np.polynomial.legendre.leggauss(_gl_nodes(params, t_grid.size,
                                                       t_max))
    half = t_grid[:, None] / 2.0
    u = half * (xi[None, :] + 1.0)
    f = (j0(w1 * u) * j0(w2 * (t_grid[:, None] - u))) @ wq
    return f * half[:, 0]


def bessel_kernel(params: ModelParams, tau_grid, fine_step: float | None = None) -> TimeKernel:
    """Kernel via the Bessel convolution f and its numerical derivatives.

    ``k = (m/4)(a^4 f - f'''' - 2 w^2 f'' - w^4 f)`` with 6th-order central
    stencils on a fine grid; f is odd, so the grid extends through tau = 0 by
    antisymmetry and the combination vanishes there identically, consistent
    with the boundary values f(0)=0, f'(0)=1, f''(0)=0, f'''(0)=-w^2,
    f''''(0)=0.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if params.C == 0:
        return TimeKernel(tau=tau_grid, values=np.zeros_like(tau_grid),
                          params=params)
    if not params.band_defined:
        raise DomainError("band edges are not real at these parameters")
    limit = 1.0 / (20.0 * params.lambda_pp)
    if fine_step is None:
        fine_step = limit
    if fine_step > limit * (1.0 + 1e-12):
        raise AccuracyError(
            f"fine_step={fine_step:.3g} coarser than 1/(20*lambda_pp)={limit:.3g}")
    if tau_grid.size > 1:
        dtau = tau_grid[1] - tau_grid[0]
        refine = max(1, int(math.ceil(dtau / fine_step - 1e-12)))
        h = dtau / refine
    else:
        h = fine_step
    offset0 = tau_grid[0] / h
    if abs(offset0 - round(offset0)) > 1e-6:
        raise ShapeError("tau grid must align with the fine grid (start at a "
                         "multiple of the fine step)")
    margin = 4
    n_fine = int(round((tau_grid[-1] - 0.0) / h)) + 1 + margin
    _gl_nodes(params, n_fine, h * (n_fine - 1))   # refuse before allocating
    t_fine = h * np.arange(n_fine)
    f = bessel_convolution(params, t_fine)

    # Odd extension: f(-u) = -f(u); index u/h -> signed lookup.
    def sample(idx):
        idx = np.asarray(idx)
        sign = np.where(idx < 0, -1.0, 1.0)
        return sign * f[np.abs(idx)]

    base = np.round(tau_grid / h).astype(int)
    w4 = fd_weights(np.arange(-4, 5), 4) / h**4
    w2c = fd_weights(np.arange(-3, 4), 2) / h**2

    def central(weights, half_width):
        # Symmetric weights; summing +-k pairs first keeps the combination
        # exactly zero at tau = 0 despite the large cancelling terms.
        mid = half_width
        acc = weights[mid] * sample(base)
        for k in range(1, half_width + 1):
            acc = acc + weights[mid + k] * (sample(base + k) + sample(base - k))
        return acc

    f4 = central(w4, 4)
    f2 = central(w2c, 3)
    f0 = sample(base)
    a4 = 8.0 * (params.n - 1) * params.C**2 / params.m**2
    w_sq = params.omega_sq
    values = params.m / 4.0 * (a4 * f0 - f4 - 2.0 * w_sq * f2 - w_sq**2 * f0)
    return TimeKernel(tau=tau_grid, values=values, params=params,
                      meta={"fine_step": h})


# ---------------------------------------------------------------------------
# Forward transform


@dataclass
class ForwardLaplaceResult:
    """Forward transform values plus the reported truncation bound."""

    kernel: CavityKernel
    truncation_bound: np.ndarray
    truncation_dominated: np.ndarray


def _composite_weights(n_points: int, h: float) -> np.ndarray:
    """Closed Newton-Cotes composite weights, Boole panels plus a short tail.

    A remainder of one interval is rewritten as Simpson + 3/8 over the last
    five, keeping the rule at least cubically exact whenever three or more
    points are available.
    """
    if n_points < 2:
        return np.zeros(n_points)
    w = np.zeros(n_points)
    intervals = n_points - 1
    rest = intervals % 4
    if rest == 1 and intervals >= 5:
        n_boole = intervals - 5
        rest = 5
    else:
        n_boole = intervals - rest
    boole = np.array([7.0, 32.0, 12.0, 32.0, 7.0]) * (2.0 * h / 45.0)
    for start in range(0, n_boole, 4):
        w[start:start + 5] += boole
    tail = n_boole
    simpson = np.array([1.0, 4.0, 1.0]) * (h / 3.0)
    three_eighth = np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    if rest == 1:
        w[tail:tail + 2] += np.array([0.5, 0.5]) * h
    elif rest == 2:
        w[tail:tail + 3] += simpson
    elif rest == 3:
        w[tail:tail + 4] += three_eighth
    elif rest == 5:
        w[tail:tail + 3] += simpson
        w[tail + 2:tail + 6] += three_eighth
    return w


def forward_laplace(tk: TimeKernel, lambda_grid) -> ForwardLaplaceResult:
    """Numerically transform a sampled time kernel back to the Laplace side.

    Composite high-order quadrature of ``integral_0^T exp(-lambda tau) k(tau)
    dtau`` over the whole sampled range, T = ``tk.tau[-1]``; the reported
    truncation bound is ``max|k| * exp(-lambda T) / lambda``.  Warns when
    ``lambda*T < 20`` (truncation-dominated).
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if np.any(lambda_grid <= 0):
        raise DomainError("forward transform needs lambda > 0")
    if tk.tau[0] != 0.0:
        raise ShapeError("time kernel must start at tau = 0")
    if tk.params is not None and tk.params.band_defined and tk.step > 0:
        limit = 1.0 / (20.0 * tk.params.lambda_pp)
        if tk.step > limit * (1.0 + 1e-12):
            raise AccuracyError(
                f"step={tk.step:.3g} coarser than 1/(20*lambda_pp)={limit:.3g}")
    tau = tk.tau
    values = tk.values
    T = tau[-1]
    w = _composite_weights(tau.size, tk.step)
    damped = np.exp(-np.outer(lambda_grid, tau))
    out = damped @ (w * values)
    envelope = float(np.max(np.abs(values))) if values.size else 0.0
    bound = envelope * np.exp(-lambda_grid * T) / lambda_grid
    dominated = lambda_grid * T < 20.0
    if np.any(dominated):
        warnings.warn("lambda*T < 20 for some grid points; transform is "
                      "truncation-dominated there", AccuracyWarning,
                      stacklevel=2)
    return ForwardLaplaceResult(kernel=CavityKernel(grid=lambda_grid,
                                                    values=out),
                                truncation_bound=bound,
                                truncation_dominated=dominated)
