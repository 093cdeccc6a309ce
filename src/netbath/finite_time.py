"""Finite-window, non-stationary kernel machinery.

Everything here lives on a uniform time grid ``t_0 = 0, ..., t_N = T``.
The dressed response G(t, s-t) obeys the two-time integral equation

    G(t, s-t) = G0(s-t) + int_t^T dt1 int_t1^T dt2 G0(t1-t) kI(t1, t2-t1) G(t2, s-t2),

with ``G0(u) = (2/(m omega)) sin(omega u)`` twice the bare response.  With
trapezoidal quadrature, and G0 and G vanishing at equal times, the discrete
equation is ``G = A + M G`` with ``A`` the bare response on the grid and
``M = dt^2 A (K - diag(K)/2)`` strictly upper triangular, so it is solved
directly, with no iteration.  The upstream kernel is stationary, as every
kernel of a network with constant couplings is, so A, M and G are
upper-triangular Toeplitz, and G is one row, solved in blocks of rows (a
block inverse's matvec each, then one convolution into the later rows) and
returned as that row, so it is exactly Toeplitz.  The solve reports the
relative residual of that equation on the first row.

A causal two-time kernel (the upstream dissipation kernel, G and its
downstream dissipation kernel) is held as its read-only lag ``row``, so it
costs O(N).  A noise kernel is held as N x r weighted columns,
K = F diag(w) F^T, so it is symmetric and positive semidefinite by
construction and its diagonal costs O(N r).

The single-edge updates built on G, at a constant coupling C:

* dissipation: ``kI_out(t, s-t) = (1/2) C^2 G(t, s-t)``;
* noise, full form: a double convolution of the upstream noise kernel with
  two G factors plus two boundary terms set by the initial Gaussian state,
  ``C' G(0, t) G(0, s)`` and ``(1/A') dG/dr|_0 dG/dr|_0``: each upstream
  column convolved with G's row once, and two columns more.

The auxiliary backward path Q driven by a deviation history solves

    (m/2) Q'' + (m omega^2/2) Q = (1/2) C drive(t) + int_t^T kI(t, s-t) Q(s) ds

with rest conditions at T, and coincides with ``(1/2) C int G(t,s-t)
drive(s) ds``; :func:`ode_response_check` computes the left-hand route
iteratively, :func:`response_from_twinning` the right-hand one.

The step must resolve the band: :func:`twinning_solve` and
:func:`ode_response_check` refuse one coarser than
:attr:`~netbath.model.ModelParams.fine_step`, which is also the default step
of the ``finite-time`` command.  A step whose arrays would exceed
:data:`~netbath.errors.BYTE_CAP` is refused with :class:`SizeError` before
it builds them; no step builds an N x N array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, ShapeError, _check_bytes, _count
from .model import ModelParams, _check_step, _check_uniform

# Peak float64 arrays a window step allocates besides its inputs, by
# tracemalloc at N = 661 to 1,984: time_grid 3.03-3.08 rows, from_stationary
# 1.09-1.28 rows besides func's; ode_response_check 7.05-7.43 rows at N = 379
# to 3,018; the noise kernel 6.09-6.63 rows, its two boundary columns
# included, and one more an upstream column, at N = 671 to 1,973.
_GRID_ROWS = 3.1
_STATIONARY_ROWS = 1.3
_NOISE_ROWS = 6.7
_ODE_ROWS = 7.5

# Stop rule of ode_response_check: relative change per sweep, and the sweep
# count after which it gives up.
_ODE_TOL = 1e-12
_ODE_MAX_SWEEPS = 400


def _check_window(n: int, what: str, rows: float) -> None:
    """Refuse, before allocating, ``what`` holding ``rows`` float64 arrays of
    N points on a window of N points."""
    _check_bytes(8 * n * rows,
                 f"{what} on a time window of {_count(n)} points",
                 "; shorten T or coarsen dt")


@dataclass(frozen=True)
class ThermalState:
    """Symmetric Gaussian initial state of one oscillator (hbar = 1).

    ``A_prime = (m omega/2) tanh(beta omega/2)`` and ``C_prime = (m omega/2)
    coth(beta omega/2)`` satisfy A'C' = (m omega/2)^2.
    """

    A_prime: float
    C_prime: float


def thermal_init(beta: float, params: ModelParams) -> ThermalState:
    """Thermal-state parameters at inverse temperature beta > 0.

    ``beta = inf`` is the ground state.  A beta so small that A', C' or 1/A'
    is not a finite positive float is refused with DomainError.
    """
    if not beta > 0:   # nan included
        raise DomainError(f"beta must be > 0, got {beta}")
    omega = math.sqrt(params.omega_sq)
    scale = params.m * omega / 2.0
    tanh = math.tanh(beta * omega / 2.0)
    a_p = scale * tanh
    if not (a_p > 0.0 and scale / tanh < math.inf and 1.0 / a_p < math.inf):
        raise DomainError(f"beta={beta:.3g} leaves the thermal state not finite")
    return ThermalState(A_prime=a_p, C_prime=scale / tanh)


class TwoTimeKernel:
    """Causal kernel K(t, s-t) = k(s-t) on the uniform two-time grid
    0 <= t <= s <= T, held as its lag ``row``, a read-only copy of the row
    given; ``dt`` is the grid's step.  ShapeError unless the row is sampled
    on the grid.
    """

    def __init__(self, times, row):
        self.times = np.asarray(times, dtype=float)
        self.dt = _check_uniform(self.times, "time")
        self.row = np.array(row, dtype=float)
        if self.row.shape != self.times.shape:
            raise ShapeError("the lag row must be sampled on the time grid")
        self.row.flags.writeable = False

    @classmethod
    def from_stationary(cls, times, func) -> "TwoTimeKernel":
        """The causal kernel K(t, s-t) = func(s-t) on the grid.

        ``func`` is evaluated once per lag index, on ``times - times[0]``, so
        the values are exactly upper-triangular Toeplitz.
        """
        times = np.asarray(times, dtype=float)
        _check_window(times.size, "stationary kernel", rows=_STATIONARY_ROWS)
        return cls(times, func(times - times[0]))


class NoiseKernel:
    """Noise kernel K = F diag(w) F^T on a uniform time grid, held as its
    N x r ``columns`` F and r ``weights`` w >= 0, so symmetric and positive
    semidefinite by construction; ``dt`` is the grid's step.

    ``diagonal`` is K's diagonal, summed on construction one column at a
    time in column order.  ShapeError unless the columns are N x r over the
    grid with r weights; DomainError for a weight that is not >= 0 or a
    diagonal that is not finite, which bounds every entry, as max|K_ij| <=
    max_i K_ii.
    """

    def __init__(self, times, columns, weights):
        self.times = np.asarray(times, dtype=float)
        self.dt = _check_uniform(self.times, "time")
        self.columns = np.asarray(columns, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.columns.ndim != 2 or self.columns.shape[0] != self.times.size \
                or self.weights.shape != self.columns.shape[1:]:
            raise ShapeError("noise-kernel columns must be N x r over the "
                             "time grid, with r weights")
        if not np.all(self.weights >= 0.0):   # nan included
            raise DomainError("noise-kernel weights must be >= 0")
        self.diagonal = np.zeros(self.times.size)
        # A column that is not finite, or a term past the float range, makes
        # the diagonal not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            for f, w in zip(self.columns.T, self.weights):
                self.diagonal += f * f * w
        if not np.all(np.isfinite(self.diagonal)):
            raise DomainError("a noise-kernel term passes the float range")


def _lag_row(kernel: TwoTimeKernel, what: str) -> np.ndarray:
    """A causal kernel's lag row; ShapeError for ``what``, a noise kernel."""
    if not isinstance(kernel, TwoTimeKernel):
        raise ShapeError(f"{what} must be a causal kernel (from_stationary)")
    return kernel.row


def time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid 0..T, endpoint included, step no coarser than dt.

    Raises :class:`DomainError` for a dt that is not positive and finite, as
    every step is refused (:func:`~netbath.model._check_step`);
    :class:`ShapeError` for a T that is not finite or a window of fewer than
    four points, which the one-sided derivatives of the boundary terms need;
    and :class:`SizeError` when the grid itself would exceed the cap.
    """
    _check_step(dt, None, "dt")
    if not math.isfinite(T):
        raise ShapeError(f"time window 0..{T:g} must be finite")
    steps = T / dt - 1e-9
    n = max(1, math.ceil(steps)) if math.isfinite(steps) else math.inf
    if n < 3:
        raise ShapeError(f"time window 0..{T:g} at step {dt:g} has "
                         f"{n + 1} points; the boundary terms need at least 4")
    _check_window(n + 1, "grid", rows=_GRID_ROWS)
    return T * np.arange(n + 1) / n


def bare_response(params: ModelParams, u):
    """Twice the bare oscillator response, (2/(m omega)) sin(omega u) for u >= 0."""
    omega = math.sqrt(params.omega_sq)
    u = np.asarray(u, dtype=float)
    out = np.where(u >= 0, 2.0 / (params.m * omega) * np.sin(omega * u), 0.0)
    return float(out) if out.ndim == 0 else out


def _apply(row: np.ndarray, h: np.ndarray, dt: float) -> np.ndarray:
    """Weighted action of a lag row on a history, (X * h)[i] ~ int_t_i^T
    X(t_i, t_l - t_i) h[l] dl, the ends l = i and N - 1 weighed by half."""
    n = h.size
    out = np.correlate(np.concatenate((h, np.zeros(n - 1))), row, "valid")
    out -= 0.5 * row[0] * h
    out -= 0.5 * row[::-1] * h[-1]
    return dt * out


@dataclass
class TwinningResult:
    """Solved dressed response.

    ``residual`` is the max-norm residual of ``(I - M) G = A`` on the first
    row, relative to ``max |G[0]|``, so it reads the same in any units;
    ``iterations`` is always 1, the solve being direct.
    """

    G: TwoTimeKernel
    residual: float
    iterations: int = 1


#: Rows per block of :func:`_toeplitz_solve`; 64 to 128 ran alike from 883
#: to 7,051 points.
_SOLVE_BLOCK = 64


def _toeplitz_solve(a_row: np.ndarray, k_row: np.ndarray, dt: float):
    """Row 0 of M, and row 0 of G, for an upper-Toeplitz upstream kernel.

    A, M and G are then upper-triangular Toeplitz, so row 0 of G solves the
    row equation ``g_j = a_j + sum_{l=1..j} m_l g_{j-l}``, here in blocks of
    ``_SOLVE_BLOCK`` rows.  Each block's rows come from one matvec with the
    inverse of a block of ``I - M``, the unit lower-triangular Toeplitz
    matrix of ``h = 1/(1 - m(z)) mod z^b`` (``m_0`` left out, as the row
    equation leaves it); each solved block then adds its terms to every
    later row in one convolution.  The first row of the inverse is a unit
    vector, so ``g_0 = a_0`` exactly, and a zero kernel returns the bare row
    exactly.
    """
    n = a_row.size
    k_half = k_row.copy()
    k_half[0] *= 0.5
    m_row = dt * dt * np.convolve(a_row, k_half)[:n]
    b = min(_SOLVE_BLOCK, n)
    h = np.zeros(b)
    h[0] = 1.0
    for j in range(1, b):
        h[j] = m_row[1:j + 1] @ h[j - 1::-1]
    # inv[i, j] = h[i - j] on and below the diagonal
    lag = np.arange(b)[:, None] - np.arange(b)
    inv = np.where(lag >= 0, h[lag], 0.0)
    g_row = a_row.copy()
    for start in range(0, n, b):
        end = min(start + b, n)
        g_row[start:end] = inv[:end - start, :end - start] @ g_row[start:end]
        if end < n:
            g_row[end:] += np.convolve(m_row[1:n - start], g_row[start:end],
                                       "valid")
    return m_row, g_row


def twinning_solve(kI_upstream: TwoTimeKernel, params: ModelParams) -> TwinningResult:
    """Solve the discretised two-time response equation ``(I - M) G = A`` directly.

    ``kI_upstream`` fixes the grid and so the window and step.  The step
    must resolve the band, dt <= ``params.fine_step``.  The upstream must be
    a causal kernel; a noise kernel is refused with :class:`ShapeError`.  G
    is solved as one Toeplitz row, in blocks of rows with O(N^2) arithmetic
    in O(N / 64) numpy calls, and returned as that row.
    """
    times = kI_upstream.times
    grid_dt = kI_upstream.dt
    _check_step(grid_dt, params, "dt")
    k_row = _lag_row(kI_upstream, "the upstream kernel")
    a_row = bare_response(params, times - times[0])
    m_row, g_row = _toeplitz_solve(a_row, k_row, grid_dt)
    # (I - M) G = A on the first row is the row equation g - m * g = a.
    r_row = g_row - np.convolve(m_row, g_row)[:times.size] - a_row
    # A row that underflowed to zero solves the equation exactly.
    residual = float(np.abs(r_row).max() / (np.abs(g_row).max() or 1.0))
    return TwinningResult(G=TwoTimeKernel(times, g_row), residual=residual)


def vernon_imag_finite(G: TwoTimeKernel, C_edge: float) -> TwoTimeKernel:
    """Downstream dissipation kernel (1/2) C^2 G(t, s-t), stationary as G is.

    ``C_edge`` is the constant coupling; a noise kernel G is a ShapeError.
    """
    c = float(C_edge)
    return TwoTimeKernel(G.times, 0.5 * c * c * _lag_row(G, "G"))


def vernon_real_full(kR_upstream: NoiseKernel | None, G: TwoTimeKernel,
                     state: ThermalState, C_edge: float) -> NoiseKernel:
    """Downstream noise kernel: double convolution plus two boundary terms.

    ``out(t,s) = C^2 [ int_0^t int_0^s kR(t',s') G(t',t-t') G(s',s-s')
    + C' G(0,t) G(0,s) + (1/A') dG(r,t-r)/dr|_0 dG(r,s-r)/dr|_0 ]`` at the
    constant coupling ``C_edge``, returned as columns: each upstream column
    f becomes ``C dt (g * f - f_0 g / 2)``, its trapezoid double
    convolution with G's lag row g (``*`` the causal convolution; g_0 = 0,
    so the halved diagonal drops out), keeping its weight; then ``C g``,
    weighted C', and ``C dg``, weighted 1/A'.
    The boundary terms stem from the initial state of the integrated-out
    oscillator and matter only near the start of the window when G has
    finite memory.  ``dg = dG(r, t-r)/dr|_0 = -g'(t)`` by second-order
    differences along the row: forward at u = 0 and dt, backward from 2dt
    on.  A noise kernel G, a window of fewer than four points, or an
    upstream that is not a noise kernel on G's grid, is a ShapeError; a term
    past the float range a DomainError, as
    (1/A') (C dG)^2 is at n = 7, C = 1e-40, m = 1e-148, T = 5e-56.
    """
    g = _lag_row(G, "G")
    times, n = G.times, G.times.size
    if n < 4:
        raise ShapeError("the boundary terms need at least 4 points")
    if kR_upstream is None:
        kR_upstream = NoiseKernel(times, np.zeros((n, 0)), np.zeros(0))
    elif not isinstance(kR_upstream, NoiseKernel) or \
            kR_upstream.times.shape != times.shape or \
            not np.allclose(kR_upstream.times, times, rtol=1e-12, atol=0.0):
        raise ShapeError("the upstream must be a noise kernel on G's grid")
    r = kR_upstream.weights.size
    _check_window(n, "noise kernel", rows=_NOISE_ROWS + r)
    c = float(C_edge)
    # Column-major, so each column is contiguous.
    cols = np.empty((r + 2, n)).T
    with np.errstate(over="ignore", invalid="ignore"):   # NoiseKernel refuses
        for k, f in enumerate(kR_upstream.columns.T):
            cols[:, k] = np.convolve(g, f)[:n]
            cols[:, k] -= 0.5 * f[0] * g
        cols[:, :r] *= c * G.dt
        cols[:, r] = c * g
        dg = cols[:, r + 1]
        dg[2:] = -3.0 * g[2:] + 4.0 * g[1:-1] - g[:-2]
        dg[:2] = 3.0 * g[:2] - 4.0 * g[1:3] + g[2:4]
        dg /= 2.0 * G.dt
        dg *= c
    weights = np.append(kR_upstream.weights,
                        (state.C_prime, 1.0 / state.A_prime))
    return NoiseKernel(times, cols, weights)


def response_from_twinning(G: TwoTimeKernel, C_edge: float,
                           drive: np.ndarray) -> np.ndarray:
    """Q(t) = (1/2) int_t^T G(t, s-t) C drive(s) ds on the grid; ShapeError
    unless the drive is sampled on G's grid."""
    drive = np.asarray(drive, dtype=float)
    if drive.shape != G.times.shape:
        raise ShapeError("drive must be sampled on the kernel grid")
    return 0.5 * _apply(_lag_row(G, "G"), float(C_edge) * drive, G.dt)


def ode_response_check(kI_upstream: TwoTimeKernel, params: ModelParams,
                       drive: np.ndarray) -> np.ndarray:
    """Backward response to a deviation drive by iterated quadrature.

    Solves ``(m/2)Q'' + (m omega^2/2) Q = (1/2) C drive + int_t^T kI Q`` with
    rest conditions at T, on the grid of ``kI_upstream`` and with the edge
    coupling ``params.C``, never referencing the dressed response: the lag
    rows of the bare response and of the upstream, a causal kernel, are
    applied repeatedly until the history changes by at most 1e-12
    of its largest value, a rule that reads the same in any units, for at
    most 400 sweeps; AccuracyError, with no RuntimeWarning,
    when they have not settled by then or have overflowed.  The result must
    agree with :func:`response_from_twinning` built from
    :func:`twinning_solve` on the same grid, and the step rule is
    :func:`twinning_solve`'s.
    """
    times = kI_upstream.times
    grid_dt = kI_upstream.dt
    _check_step(grid_dt, params, "dt")
    drive = np.asarray(drive, dtype=float)
    if drive.shape != times.shape:
        raise ShapeError("drive must be sampled on the kernel grid")
    k_row = _lag_row(kI_upstream, "the upstream kernel")
    _check_window(times.size, "backward response check", rows=_ODE_ROWS)
    a_row = bare_response(params, times - times[0])
    source = 0.5 * params.C * drive
    q = _apply(a_row, source, grid_dt)
    # A diverging iteration overflows: it gives up at the first sweep whose
    # change is not finite, which an iterate that is not finite makes.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_ODE_MAX_SWEEPS):
            q_new = _apply(a_row, source + _apply(k_row, q, grid_dt), grid_dt)
            delta = np.abs(q_new - q).max()
            if not math.isfinite(delta):
                break
            q = q_new
            if delta <= _ODE_TOL * np.abs(q).max():
                return q
    raise AccuracyError("backward response iteration did not converge; "
                        "reduce the window or the kernel strength")
