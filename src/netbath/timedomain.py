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
  forward-transforms back to the closed-form fixed point.  Its sum over the
  nodes, which the spectral-density transform and the oracle's mode sum
  share, is evaluated on the uniform tau grid by the angle-addition split
  sin(a + r) = sin a cos r + cos a sin r, with about sqrt(N) block starts a
  and offsets r, as matrix products (:func:`_sine_sum`).

* :func:`bessel_kernel` builds f(t) = integral_0^t J0(w1 u) J0(w2 (t-u)) du
  and combines it with finite-difference derivatives,
  k = (m/4)(a^4 f - f'''' - 2 w^2 f'' - w^4 f).  The numerical fourth
  derivative makes this the looser cross-check of the pair.

:func:`spectral_density` is the band-limited density J(w) whose sine
transform reproduces the kernel; :func:`forward_laplace` closes the loop back
to the Laplace side.  Both the Bessel route's fine grid and a kernel handed to
:func:`forward_laplace` must resolve the band: their step may not exceed
:attr:`~netbath.model.ModelParams.fine_step`.  A direct damped-contour
inversion is deliberately absent: the kernel does not decay and the transform
has branch cuts on the imaginary axis, which standard inverters cannot handle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bessel import j0
from .errors import DomainError, ShapeError, _check_bytes
from .laplace import CavityKernel
from .model import ModelParams, _band, _check_finite, _check_step, \
    _check_uniform


class AccuracyWarning(UserWarning):
    """Requested discretization is below the recommended resolution."""


@dataclass
class TimeKernel:
    """A kernel sampled on a uniform tau >= 0 grid of step ``step``.

    ``params``, when given, lets :func:`forward_laplace` check the step
    against the band; ``meta`` carries evaluator details such as the node
    count.
    """

    tau: np.ndarray
    values: np.ndarray
    params: ModelParams | None = None
    meta: dict = field(default_factory=dict, repr=False)
    step: float = field(init=False, repr=False)

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.step = _check_tau(self.tau)
        if self.values.shape != self.tau.shape:
            raise ShapeError("values and tau shapes differ")
        if not np.all(np.isfinite(self.values)):
            raise ShapeError("kernel values must be finite")


def _check_tau(tau: np.ndarray) -> float:
    """The step of a tau grid; ShapeError unless it is a nonempty 1-d array,
    nonnegative, finite, uniform and increasing."""
    if tau.ndim != 1 or tau.size < 1:
        raise ShapeError("tau grid must be a nonempty 1-d array")
    if np.any(tau < 0):
        raise ShapeError("tau grid must be nonnegative")
    step = _check_uniform(tau, "tau")
    if not math.isfinite(tau[0]):   # past a finite step, every tau is finite
        raise ShapeError("tau grid must be finite")
    return step


def _band_nodes(params: ModelParams, order: int):
    """Gauss-Chebyshev (2nd kind) nodes mapped onto the band variable.

    Returns (x_i, c_i, w_i) with k(tau) = sum_i c_i sin(lambda_pp x_i tau),
    the envelope bound sum_i c_i, and w_i the quadrature weights of
    sqrt(s(1-s)).
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
    return x, coeff, w


#: Elements of one block of a (grid x node) matrix: 512 KiB per float64
#: array.
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(n_rows: int, width: int):
    """Slices of ``range(n_rows)`` whose rows of ``width`` fill about one
    block: the (t x node) rows of the Bessel convolution.

    A multiple of 16 rows per slice: BLAS matrix-vector kernels sum rows in
    groups of 4 or 8, so whole groups give every row the bits that one
    product over all rows gives it.  A last single row joins the slice
    before it, because numpy takes a one-row product as a dot product.
    """
    step = max(16, _BLOCK_ELEMENTS // max(1, width) // 16 * 16)
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n_rows])]


# Peak bytes the quadratures hold, by tracemalloc: per node (56-100); per
# node squared, leggauss's companion matrix and LAPACK's copy (2.02-2.23
# float64 arrays, by peak RSS); per element of a row block, at most
# max(_BLOCK_ELEMENTS, 17 width) (4.00-4.02 arrays: the phases, the two J0
# values and their product, at 60-20,000 nodes); per
# (Q + B) x width entry of a column block of the sine sum, with its phases,
# weighted copies and node vectors (3.3-3.7 arrays, 4.85 at N = 2); per
# point (3.01-3.14 for a sine-sum kernel: its output and accumulators, then
# TimeKernel's checks; 6.6 per fine point for the Bessel kernel's stencils
# on the odd extension of f, on a tau grid as fine as its fine grid).
_NODE_BYTES = 100
_COMPANION_BYTES = 8 * 2.25
_TRIG_BYTES = 8 * 5.0
_BESSEL_BLOCK_BYTES = 8 * 4.1
_TAU_BYTES = 8 * 3.2
_FINE_POINT_BYTES = 8 * 10.2


def _split(n_tau: int, n_freqs: int):
    """(B, Q, width) of the sine sum on ``n_tau`` points: B = ceil(sqrt N)
    offsets, Q block starts, and the frequencies of one column block, whose
    four trig matrices of Q and B rows hold about ``_BLOCK_ELEMENTS / 2``
    entries together."""
    b = math.isqrt(max(n_tau - 1, 0)) + 1
    q = -(-n_tau // b)
    return b, q, max(1, min(n_freqs, _BLOCK_ELEMENTS // (4 * (q + b))))


def _check_sine_sum(n_tau: int, n_freqs: int, node_bytes: int = 0) -> None:
    """Refuse, before allocating, a sine sum past the cap: its output and
    (Q x B) accumulators, one column block of its trig matrices, never less
    than a whole one, and ``node_bytes`` per frequency for the arrays that
    build the frequencies."""
    b, q, _ = _split(n_tau, n_freqs)
    _check_bytes(_TAU_BYTES * q * b + node_bytes * n_freqs
                 + _TRIG_BYTES * max(q + b, _BLOCK_ELEMENTS // 4),
                 f"sine sum over {n_tau} x {n_freqs} points")


def _sine_sum(tau, freqs, weights, scale: float = 1.0) -> np.ndarray:
    """``sum_j weights_j sin(scale freqs_j tau_i)`` at every tau_i.

    Refuses, before allocating, a sum past the cap, and a tau grid that
    :class:`TimeKernel` refuses.  The grid is uniform, so each
    tau_i = a_q + r_b + delta_i, with block starts a_q = ``tau[::B]``,
    offsets r_b = ``tau[:B] - tau[0]`` and delta_i within the grid's
    tolerance.  The sum is evaluated by the angle-addition split

        sin(A + R) = sin A cos R + cos A sin R,

    as matrix products of the (Q x node) and (node x B) trig matrices:
    2 (Q + B) sines and cosines per node instead of N sines.  The first
    order term in delta_i, ``delta_i sum_j w_j f_j cos(f_j (a_q + r_b))``,
    comes from the same trig matrices.  The nodes are walked in column
    blocks, since the sum is linear in them.
    """
    tau = np.asarray(tau, dtype=float)
    n = tau.size
    _check_sine_sum(n, len(freqs))
    _check_tau(tau)
    b, q, width = _split(n, len(freqs))
    starts, offsets = tau[::b], tau[:b] - tau[0]
    out, slope, part = np.zeros((q, b)), np.zeros((q, b)), np.empty((q, b))
    for lo in range(0, len(freqs), width):
        f = scale * freqs[lo:lo + width]
        w = weights[lo:lo + width, None]
        c = f.size
        phase = np.outer(starts, f)
        left = np.empty((q, 2 * c))      # [sin A | cos A]
        np.sin(phase, out=left[:, :c])
        np.cos(phase, out=left[:, c:])
        phase = np.outer(f, offsets)
        sin_r = np.sin(phase)
        cos_r = np.cos(phase, out=phase)
        right = np.empty((2 * c, b))
        np.multiply(w, cos_r, out=right[:c])
        np.multiply(w, sin_r, out=right[c:])
        out += np.matmul(left, right, out=part)
        w = w * f[:, None]               # d/dtau sin(f tau) = f cos(f tau)
        np.multiply(-w, sin_r, out=right[:c])
        np.multiply(w, cos_r, out=right[c:])
        slope += np.matmul(left, right, out=part)
        del left, right, sin_r, cos_r, phase   # before the next block's
    delta = part.reshape(-1)
    delta[:n] = tau
    delta[n:] = tau[-1]                  # padding, cut from the output
    part -= starts[:, None]
    part -= offsets
    part *= slope
    out += part
    return out.reshape(-1)[:n]


def recommended_quad_order(params: ModelParams, tau_max: float) -> int:
    """Node-count rule tied to the oscillation count lambda_pp * tau_max."""
    return int(math.ceil(4.0 + 2.0 * tau_max * params.lambda_pp / math.pi))


def _quad_order(params: ModelParams, tau_grid: np.ndarray,
                quad_order: int | None = None) -> int:
    """The order of a band quadrature on ``tau_grid``: 40 nodes past the rule
    at its largest tau, or ``quad_order``, warned of below the rule.  Refuses
    first a grid that :func:`_check_tau` refuses, then, before the nodes are
    built, a sine sum past the cap."""
    _check_tau(tau_grid)
    tau_max = float(tau_grid[-1])
    rule = recommended_quad_order(params, tau_max)
    if quad_order is None:
        quad_order = rule + 40
    elif quad_order < rule:
        warnings.warn(
            f"quad_order={quad_order} below recommended {rule} for "
            f"tau_max*lambda_pp={tau_max * params.lambda_pp:.3g}",
            AccuracyWarning, stacklevel=3)
    _check_sine_sum(tau_grid.size, quad_order, _NODE_BYTES)
    return quad_order


def branch_cut_kernel(params: ModelParams, tau_grid, quad_order: int | None = None) -> TimeKernel:
    """Evaluate the fixed-point kernel by quadrature over the spectral band.

    Exact zero kernel for a decoupled network (C = 0), and DomainError
    where the band is not real: the band rule of every spectral route,
    :func:`~netbath.model._band`.  Warns with :class:`AccuracyWarning` when
    ``quad_order`` is below the rule ``4 + 2 tau_max lambda_pp / pi``.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not _band(params):
        return TimeKernel(tau_grid, np.zeros_like(tau_grid), params)
    quad_order = _quad_order(params, tau_grid, quad_order)
    x, coeff, _ = _band_nodes(params, quad_order)
    values = _sine_sum(tau_grid, x, coeff, params.lambda_pp)
    return TimeKernel(tau=tau_grid, values=values, params=params,
                      meta={"quad_order": quad_order})


def spectral_density(params: ModelParams, omega_grid):
    """Environment spectral density with compact band support.

    ``J(w) = (m/(2 pi)) sqrt((w^2 - lambda_pm^2)(lambda_pp^2 - w^2))`` on the
    band, zero outside.  The prefactor is fixed by requiring
    ``integral J(w) sin(w tau) dw`` to coincide with
    :func:`branch_cut_kernel`, whose own normalization is pinned by the
    forward-transform closure.  A degenerate band (C = 0) yields identically
    zero.  Raises :class:`DomainError` where the band is not real and unless
    every omega is finite.
    """
    band = _band(params)
    omega_grid = _check_finite(omega_grid, "omega")
    out = np.zeros_like(omega_grid)
    if not band:
        return out
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
    kernel quadrature verbatim.  The band rule and the default order are
    :func:`branch_cut_kernel`'s.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not _band(params):
        return TimeKernel(tau_grid, np.zeros_like(tau_grid), params)
    # The quadrature weights for sqrt(s(1-s)), with the variables changed to
    # w = lambda_pp x; J carries the square-root factors.
    x, _, w_cheb = _band_nodes(params, _quad_order(params, tau_grid))
    omega = params.lambda_pp * x
    jvals = spectral_density(params, omega)
    q2 = params.q**2
    # dw = lambda_pp (1-q^2) ds / (2x); sqrt(s(1-s)) = sqrt((x^2-q^2)(1-x^2))/(1-q^2)
    coeff = 0.25 * w_cheb * jvals * params.lambda_pp * (1.0 - q2) / (2.0 * x) \
        * (1.0 - q2) / np.sqrt((x**2 - q2) * (1.0 - x**2))
    values = _sine_sum(tau_grid, x, coeff, params.lambda_pp)
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
    allocating, a Bessel kernel past the cap: its arrays on the grid, the
    nodes with their nodes x nodes companion matrix, and one block of the
    (t x node) matrices.
    """
    nodes = int(math.ceil(0.55 * (params.lambda_pm + params.lambda_pp)
                          * t_max)) + 50
    _check_bytes(_FINE_POINT_BYTES * n_points + _NODE_BYTES * nodes
                 + _COMPANION_BYTES * nodes * nodes
                 + _BESSEL_BLOCK_BYTES * max(_BLOCK_ELEMENTS, 17 * nodes),
                 f"Bessel convolution of {n_points} x {nodes} points")
    return nodes


def bessel_convolution(params: ModelParams, t_grid) -> np.ndarray:
    """f(t) = integral_0^t J0(w1 u) J0(w2 (t-u)) du by Gauss-Legendre panels.

    One fixed node set scaled to each t keeps the evaluation vectorized; the
    (t x node) matrices are built one block of rows at a time, so the working
    memory is a few blocks whatever the grid and the band width.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    w1 = params.lambda_pm
    w2 = params.lambda_pp
    t_max = float(np.max(t_grid)) if t_grid.size else 0.0
    xi, wq = np.polynomial.legendre.leggauss(_gl_nodes(params, t_grid.size,
                                                       t_max))
    f = np.empty(t_grid.shape)
    for rows in _row_blocks(t_grid.size, xi.size):
        t = t_grid[rows, None]
        half = t / 2.0
        u = half * (xi[None, :] + 1.0)
        f[rows] = (j0(w1 * u) * j0(w2 * (t - u))) @ wq * half[:, 0]
    return f


def bessel_kernel(params: ModelParams, tau_grid, fine_step: float | None = None) -> TimeKernel:
    """Kernel via the Bessel convolution f and its numerical derivatives.

    ``k = (m/4)(a^4 f - f'''' - 2 w^2 f'' - w^4 f)`` with 6th-order central
    stencils on a fine grid; f is odd, so the grid extends through tau = 0 by
    antisymmetry and the combination vanishes there identically, consistent
    with the boundary values f(0)=0, f'(0)=1, f''(0)=0, f'''(0)=-w^2,
    f''''(0)=0.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not _band(params):
        return TimeKernel(tau_grid, np.zeros_like(tau_grid), params)
    fine_step = params.fine_step if fine_step is None else fine_step
    _check_step(fine_step, params, "fine_step")
    dtau = _check_tau(tau_grid)
    refine = max(1, int(math.ceil(dtau / fine_step - 1e-12)))
    h = dtau / refine if dtau else fine_step
    offset0 = tau_grid[0] / h
    if abs(offset0 - round(offset0)) > 1e-6:
        raise ShapeError("tau grid must align with the fine grid (start at a "
                         "multiple of the fine step)")
    margin = 4
    n_fine = int(round((tau_grid[-1] - 0.0) / h)) + 1 + margin
    _gl_nodes(params, n_fine, h * (n_fine - 1))   # refuse before allocating
    f = bessel_convolution(params, h * np.arange(n_fine))

    # Odd extension f(-u) = -f(u): u/h = j sits at index j + n_fine - 1.
    odd = np.concatenate((-f[:0:-1], f))
    at = np.round(tau_grid / h).astype(int) + (n_fine - 1)
    f0 = odd[at]

    def central(weights):
        # Symmetric weights; summing +-k pairs first keeps the combination
        # exactly zero at tau = 0 despite the large cancelling terms.
        mid = weights.size // 2
        acc = weights[mid] * f0
        for k in range(1, mid + 1):
            acc = acc + weights[mid + k] * (odd[at + k] + odd[at - k])
        return acc

    f4 = central(fd_weights(np.arange(-4, 5), 4) / h**4)
    f2 = central(fd_weights(np.arange(-3, 4), 2) / h**2)
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
    ``lambda*T < 20`` (truncation-dominated).  Raises :class:`DomainError`
    unless every lambda is finite and > 0.
    """
    lambda_grid = _check_finite(lambda_grid, "lambda")
    if np.any(lambda_grid <= 0):
        raise DomainError("forward transform needs lambda > 0")
    if tk.tau[0] != 0.0:
        raise ShapeError("time kernel must start at tau = 0")
    # a one-point grid has no step, and its transform is 0
    if tk.params is not None and tk.params.band_defined and tk.tau.size > 1:
        _check_step(tk.step, tk.params, "step")
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
