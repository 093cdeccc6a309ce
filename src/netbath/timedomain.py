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
  nodes, which the oracle's mode sum shares, is evaluated on the uniform tau
  grid by the angle-addition split sin(a + r) = sin a cos r + cos a sin r,
  with about sqrt(N) block starts a and offsets r, as matrix products
  (:func:`_sine_sum`).

* :func:`bessel_kernel` evaluates the kernel in closed form on the tau grid
  itself, from the Laplace-side identity
  sqrt(s^2 + w^2) = s + w L{J1(w t)/t}.  With A_i = sqrt(s^2 + w_i^2) - s,
  the kernel transforms to (m/8)(A1 - A2)^2, one self-convolution in time:

      k(t) = (m/8) integral_0^t g(u) g(t-u) du,
      g(u) = [w1 J1(w1 u) - w2 J1(w2 u)] / u,

  with w1 = lambda_pm and w2 = lambda_pp.  The integrand is smooth, so
  Gauss-Legendre nodes take it without a derivative or a finer grid, and
  g is one difference, so at weak coupling no terms of size w^2 cancel to
  one of size (w2 - w1)^2.  It shares no quadrature with the branch-cut
  route.

:func:`spectral_density` is the band-limited density J(w) whose sine
transform reproduces the kernel; :func:`forward_laplace` closes the loop back
to the Laplace side.  A kernel handed to :func:`forward_laplace` must resolve
the band: its step may not exceed
:attr:`~netbath.model.ModelParams.fine_step`.  A direct damped-contour
inversion is deliberately absent: the kernel does not decay and the transform
has branch cuts on the imaginary axis, which standard inverters cannot handle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bessel import j1
from .errors import COUNT_HOLD, DomainError, ShapeError, _check_bytes, _count
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


# Peak bytes the quadratures hold, by tracemalloc: per node (56-100); per
# node squared, leggauss's companion matrix and LAPACK's copy (2.02-2.23
# float64 arrays, by peak RSS); per element of a row block of the J1 sum,
# max(_BLOCK_ELEMENTS, nodes) of them (2.81-3.02 arrays: h, the second J1
# values and their phases, at 60-4,000 nodes); per (Q + B) x width entry of
# a column block of the sine sum, with its phases, weighted copies and node
# vectors (3.3-3.7 arrays, 4.85 at N = 2); per point (3.01-3.14 for a
# sine-sum kernel: its output and accumulators, then TimeKernel's checks;
# 3.0 for the Bessel kernel at 10^5-10^6 points: the J1 sum, the output and
# TimeKernel's checks).
_NODE_BYTES = 100
_COMPANION_BYTES = 8 * 2.25
_TRIG_BYTES = 8 * 5.0
_BESSEL_BLOCK_BYTES = 8 * 3.1
_TAU_BYTES = 8 * 3.2
_BESSEL_POINT_BYTES = 8 * 3.25


def _split(n_tau: int, n_freqs: int):
    """(B, Q, width) of the sine sum on ``n_tau`` points: B = ceil(sqrt N)
    offsets, Q block starts, and the frequencies of one column block, whose
    four trig matrices of Q and B rows hold about ``_BLOCK_ELEMENTS / 2``
    entries together."""
    b = math.isqrt(max(n_tau - 1, 0)) + 1
    q = -(-n_tau // b)
    return b, q, max(1, min(n_freqs, _BLOCK_ELEMENTS // (4 * (q + b))))


def _block_split(tau: np.ndarray, n_freqs: int):
    """The uniform grid's split for the sine sum and the forward transform:
    ``(b, q, width)`` of :func:`_split`, block starts a_q = ``tau[::B]``,
    offsets r_b = ``tau[:B] - tau[0]``, and ``deltas(out)``, which writes
    delta_i = tau_i - a_q - r_b into a (Q x B) ``out``, padded at tau[-1]."""
    b, q, width = _split(tau.size, n_freqs)
    starts, offsets = tau[::b], tau[:b] - tau[0]

    def deltas(out: np.ndarray) -> np.ndarray:
        out.reshape(-1)[:tau.size] = tau
        out.reshape(-1)[tau.size:] = tau[-1]
        out -= starts[:, None]
        out -= offsets
        return out

    return b, q, width, starts, offsets, deltas


def _check_sine_sum(n_tau: int, n_freqs: int, node_bytes: int = 0) -> None:
    """Refuse, before allocating, a sine sum past the cap: its output and
    (Q x B) accumulators, one column block of its trig matrices, never less
    than a whole one, and ``node_bytes`` per frequency for the arrays that
    build the frequencies."""
    b, q, _ = _split(n_tau, n_freqs)
    need = (_TAU_BYTES * q * b + node_bytes * n_freqs
            + _TRIG_BYTES * max(q + b, _BLOCK_ELEMENTS // 4))
    _check_bytes(need if n_freqs < COUNT_HOLD else math.inf,
                 f"sine sum over {n_tau} x {_count(n_freqs)} points")


def _sine_sum(tau, freqs, weights) -> np.ndarray:
    """``sum_j weights_j sin(freqs_j tau_i)`` at every tau_i.

    Refuses, before allocating, a sum past the cap, a tau grid that
    :class:`TimeKernel` refuses, and phases that overflow.  The grid is
    uniform, so each tau_i = a_q + r_b + delta_i, with block starts
    a_q = ``tau[::B]``, offsets r_b = ``tau[:B] - tau[0]`` and delta_i
    within the grid's tolerance.  The sum is evaluated by the
    angle-addition split

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
    if not float(tau[-1]) * float(np.max(freqs, initial=0.0)) < math.inf:
        raise DomainError("phases tau * frequency pass the float range")
    b, q, width, starts, offsets, deltas = _block_split(tau, len(freqs))
    out, slope, part = np.zeros((q, b)), np.zeros((q, b)), np.empty((q, b))
    for lo in range(0, len(freqs), width):
        f = freqs[lo:lo + width]
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
    # the padding's terms are cut from the output
    out += np.multiply(deltas(part), slope, out=part)
    return out.reshape(-1)[:n]


def _quad_order(params: ModelParams, tau_grid: np.ndarray,
                quad_order: int | None = None) -> int:
    """The order of a band quadrature on ``tau_grid``: 40 nodes past the rule
    at its largest tau, or ``quad_order``, warned of below the rule.  Refuses
    first a grid that :func:`_check_tau` refuses, then, before the nodes are
    built, a sine sum past the cap."""
    _check_tau(tau_grid)
    tau_max = float(tau_grid[-1])
    # the rule, tied to the oscillation count, held at COUNT_HOLD nodes,
    # past every byte cap, where it would overflow
    rule = math.ceil(min(4.0 + 2.0 * tau_max * params.lambda_pp / math.pi,
                         COUNT_HOLD))
    if quad_order is None:
        quad_order = rule + 40
    elif quad_order < rule:
        warnings.warn(
            f"quad_order={quad_order} below recommended {_count(rule)} for "
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
    values = _sine_sum(tau_grid, params.lambda_pp * x, coeff)
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
    inside = (np.abs(omega_grid) >= params.lambda_pm) & (np.abs(omega_grid) <= params.lambda_pp)
    w2 = omega_grid[inside]**2   # squared on the band only: no overflow
    out[inside] = params.m / (2.0 * math.pi) * np.sqrt(
        (w2 - params.lambda_pm**2) * (params.lambda_pp**2 - w2))
    return out


# ---------------------------------------------------------------------------
# Bessel route


def _gl_nodes(params: ModelParams, n_points: int, t_max: float) -> int:
    """Gauss-Legendre node count for the convolution on n_points up to t_max.

    The count follows the total phase (w1 + w2) t_max.  Refuses, before
    allocating, a Bessel kernel past the cap: its arrays on the grid, the
    nodes with their nodes x nodes companion matrix, and one row block of
    the (t x node) matrices, ``_BLOCK_ELEMENTS`` entries or one row.
    """
    # held at COUNT_HOLD, past every byte cap, where the phase overflows
    nodes = math.ceil(min(0.55 * (params.lambda_pm + params.lambda_pp)
                          * t_max, COUNT_HOLD)) + 50
    need = (_BESSEL_POINT_BYTES * n_points + _NODE_BYTES * nodes
            + _COMPANION_BYTES * nodes * nodes
            + _BESSEL_BLOCK_BYTES * max(_BLOCK_ELEMENTS, nodes))
    _check_bytes(need if nodes < COUNT_HOLD else math.inf,
                 f"Bessel convolution of {n_points} x {_count(nodes)} points")
    return nodes


def _j1_sum(params: ModelParams, tau_grid: np.ndarray,
            nodes: int) -> np.ndarray:
    """S(t) = (t/2) integral_0^t g(u) g(t-u) du at every t of the grid, by
    ``nodes`` Gauss-Legendre nodes, with g(u) = h(u)/u and
    h(u) = w1 J1(w1 u) - w2 J1(w2 u).

    With u = (t/2)(1+xi), S(t) = sum_q W_q h(u_q) h(t - u_q): 1/(u (t-u))
    is folded into the weights, W_q = w_q / ((1+xi_q)(1-xi_q)).  The nodes
    are symmetric, so t - u_q is the mirrored node's u, and one row of h
    gives both factors.  One node set scaled to each t; the (t x node)
    matrices are built in blocks of whole rows, and ``einsum`` sums each
    row in an order of its own, so every block size gives the same bits.
    """
    xi, wq = np.polynomial.legendre.leggauss(nodes)
    wq /= (1.0 + xi) * (1.0 - xi)
    w1, w2 = params.lambda_pm, params.lambda_pp
    # the phases of J1(w1 u) and J1(w2 u) at t = 2
    p1 = w1 * (1.0 + xi)
    p2 = w2 * (1.0 + xi)
    s = np.empty(tau_grid.shape)
    step = max(1, _BLOCK_ELEMENTS // nodes)
    for lo in range(0, tau_grid.size, step):
        half = tau_grid[lo:lo + step, None] / 2.0
        h = j1(half * p1)
        h *= w1
        h2 = j1(half * p2)
        h2 *= w2
        h -= h2
        s[lo:lo + step] = np.einsum("ij,ij,j->i", h, h[:, ::-1], wq)
        del h, h2                        # before the next block's
    return s


def bessel_kernel(params: ModelParams, tau_grid) -> TimeKernel:
    """Kernel in closed form through Bessel functions, on the tau grid itself.

    With S of :func:`_j1_sum`,

        k(t) = (m / 8) (g * g)(t) = (m / 4t) S(t),

    and k(0) = 0 exactly.  The Gauss-Legendre node count follows the total
    phase (w1 + w2) tau_max (:func:`_gl_nodes`).
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not _band(params):
        return TimeKernel(tau_grid, np.zeros_like(tau_grid), params)
    _check_tau(tau_grid)
    nodes = _gl_nodes(params, tau_grid.size, float(tau_grid[-1]))
    s = _j1_sum(params, tau_grid, nodes)
    values = np.divide(s, tau_grid, out=np.zeros_like(s),
                       where=tau_grid > 0.0)
    values *= params.m / 4.0
    return TimeKernel(tau=tau_grid, values=values, params=params,
                      meta={"gl_nodes": nodes})


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
    if n_boole:
        # The panels in one periodic fill, then doubled where two meet: the
        # bits of adding them one by one.
        w[:n_boole] = np.tile(boole[:4], n_boole // 4)
        w[n_boole] = boole[4]
        w[4:n_boole:4] *= 2.0
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
    truncation bound is ``max|k| * exp(-lambda T) / lambda``.  The damping
    factorises as the sine sum's phases split (:func:`_sine_sum`): each
    tau_i = a_q + r_b + delta_i, with block starts a_q = ``tau[::B]``,
    offsets r_b = ``tau[:B]`` and delta_i within the grid's tolerance, so

        exp(-lambda tau_i) = exp(-lambda a_q) exp(-lambda r_b) (1 - lambda delta_i),

    to first order in delta_i.  That takes L (Q + B) exponentials and one
    matrix product of the (L x Q) factors with the (Q x B) weighted samples,
    and the same with their deltas, not L N exponentials.  Warns when
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
    lam = lambda_grid.ravel()   # a grid that is not 1-d is refused below
    n = tau.size
    b, q, _, starts, offsets, deltas = _block_split(tau, lam.size)
    # the weighted samples in (Q x B) blocks, the padding weighing nothing,
    # and beside them the same times their deltas
    weighted = np.zeros(q * b)
    weighted[:n] = _composite_weights(n, tk.step) * values
    weighted = weighted.reshape(q, b)
    delta = deltas(np.empty((q, b)))
    part = np.exp(-np.outer(lam, starts)) @ np.concatenate(
        (weighted, weighted * delta), axis=1)
    part = part[:, :b] - lam[:, None] * part[:, b:]
    out = np.einsum("lb,lb->l", part, np.exp(-np.outer(lam, offsets)))
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
