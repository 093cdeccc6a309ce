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

A two-time kernel is causal, held as its lag row (the upstream dissipation
kernel, G and its downstream dissipation kernel), or a symmetric noise
kernel built from a matrix; a causal kernel's ``values`` is a read-only
Toeplitz view of its row, so a row or the diagonal costs O(N).

The single-edge updates built on G, at a constant coupling C:

* dissipation: ``kI_out(t, s-t) = (1/2) C^2 G(t, s-t)``;
* noise, full form: a double convolution of the upstream noise kernel with
  two G factors plus two boundary terms set by the initial Gaussian state,
  ``C' G(0, t) G(0, s)`` and ``(1/A') dG/dr|_0 dG/dr|_0``.

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
it builds them; only the noise kernel builds N x N ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import AccuracyError, DomainError, ShapeError, _check_bytes, _count
from .model import ModelParams, _check_step, _check_uniform

# Peak float64 arrays a window step allocates besides its inputs, by
# tracemalloc at N = 661 to 1,984: time_grid 3.03-3.08 rows, from_stationary
# 7.16-7.52 rows besides func's; the noise kernel, the one step that builds
# N x N arrays, 2.01-2.04 of them, one more with an upstream;
# ode_response_check 7.05-7.43 rows at N = 379 to 3,018.
_GRID_ROWS = 3.1
_STATIONARY_ROWS = 7.6
_NOISE_SQUARES = 2.1
_ODE_ROWS = 7.5

# Stop rule of ode_response_check: relative change per sweep, and the sweep
# count after which it gives up.
_ODE_TOL = 1e-12
_ODE_MAX_SWEEPS = 400


def _check_window(n: int, what: str, rows: float = 0.0,
                  squares: float = 0.0) -> None:
    """Refuse, before allocating, ``what`` holding ``rows`` float64 arrays of
    N points and ``squares`` of N x N on a window of N points."""
    _check_bytes(8 * n * (rows + squares * n),
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


@dataclass
class TwoTimeKernel:
    """Kernel on the uniform two-time grid 0 <= t <= s <= T, ``dt`` its step.

    Only :meth:`from_stationary` builds a causal kernel K(t, s-t) = k(s-t),
    held as its lag row ``_row``, ``values`` a read-only Toeplitz view of it;
    a kernel built from a matrix is a symmetric noise kernel, with no row.
    """

    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict, repr=False)
    _row: np.ndarray | None = field(default=None, repr=False)
    dt: float = field(init=False, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.times.size,) * 2:
            raise ShapeError("values must be square over the time grid")
        self.dt = _check_uniform(self.times, "time")

    @classmethod
    def from_stationary(cls, times, func) -> "TwoTimeKernel":
        """The causal kernel K(t, s-t) = func(s-t) on the grid.

        ``func`` is evaluated once per lag index, on ``times - times[0]``, so
        the values are exactly upper-triangular Toeplitz.
        """
        times = np.asarray(times, dtype=float)
        _check_window(times.size, "stationary kernel", rows=_STATIONARY_ROWS)
        row = np.asarray(func(times - times[0]), dtype=float)
        return cls._from_row(times, row)

    @classmethod
    def _from_row(cls, times, row: np.ndarray) -> "TwoTimeKernel":
        """The causal kernel of a lag row, ``values`` a view of O(N) memory.

        The buffer is N - 1 zeros followed by the row, the layout
        ``scipy.linalg.toeplitz`` strides before it copies; here the strided
        view is kept, read-only because every row aliases the buffer.
        """
        n = row.size
        buf = np.concatenate((np.zeros(n - 1), row))
        step = buf.strides[0]
        vals = as_strided(buf[n - 1:], shape=(n, n), strides=(-step, step),
                          writeable=False)
        return cls(times=times, values=vals, _row=vals[0])


def _lag_row(kernel: TwoTimeKernel, what: str) -> np.ndarray:
    """A causal kernel's lag row; ShapeError for ``what``, a noise kernel."""
    if kernel._row is None:
        raise ShapeError(f"{what} must be a causal kernel (from_stationary)")
    return kernel._row


def time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid 0..T, endpoint included, step no coarser than dt.

    Raises :class:`DomainError` for a dt that is not positive and finite, as
    every step is refused (:func:`~netbath.model._check_step`);
    :class:`ShapeError` for a T that is not finite or a window of fewer than
    three points, which the one-sided derivative of the boundary terms needs;
    and :class:`SizeError` when the grid itself would exceed the cap.
    """
    _check_step(dt, None, "dt")
    if not math.isfinite(T):
        raise ShapeError(f"time window 0..{T:g} must be finite")
    steps = T / dt - 1e-9
    n = max(1, math.ceil(steps)) if math.isfinite(steps) else math.inf
    if n < 2:
        raise ShapeError(f"time window 0..{T:g} at step {dt:g} has "
                         f"{n + 1} points; the boundary terms need at least 3")
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
    in O(N / 64) numpy calls, and returned as that row.  ``G.meta["solver"]``
    names the solver, ``"toeplitz"``.
    """
    times = kI_upstream.times
    grid_dt = kI_upstream.dt
    _check_step(grid_dt, params, "dt")
    k_row = _lag_row(kI_upstream, "the upstream kernel")
    a_row = bare_response(params, times - times[0])
    m_row, g_row = _toeplitz_solve(a_row, k_row, grid_dt)
    # (I - M) G = A on the first row is the row equation g - m * g = a.
    r_row = g_row - np.convolve(m_row, g_row)[:times.size] - a_row
    kernel = TwoTimeKernel._from_row(times, g_row)
    kernel.meta["solver"] = "toeplitz"
    # A row that underflowed to zero solves the equation exactly.
    residual = float(np.abs(r_row).max() / (np.abs(g_row).max() or 1.0))
    return TwinningResult(G=kernel, residual=residual)


def vernon_imag_finite(G: TwoTimeKernel, C_edge: float) -> TwoTimeKernel:
    """Downstream dissipation kernel (1/2) C^2 G(t, s-t), stationary as G is.

    ``C_edge`` is the constant coupling; a noise kernel G is a ShapeError.
    """
    c = float(C_edge)
    return TwoTimeKernel._from_row(G.times, 0.5 * c * c * _lag_row(G, "G"))


def _noise_kernel(G: TwoTimeKernel, state: ThermalState, c, pair,
                  conv=0.0) -> np.ndarray:
    """``C^2 [conv + C' G(0,t) G(0,s) + (1/A') dG|_0(t) dG|_0(s)]``,
    ``conv`` given with its C^2, ``c`` the constant coupling C.

    The boundary terms come from two vectors, the first row of G and its
    one-sided derivative along the first argument at r = 0, each times C
    before any product is formed.  ``pair`` is ``np.outer`` for the kernel
    and ``np.multiply`` for its diagonal, which then costs O(N) on a
    stationary G.  Built in place: at most two N x N arrays are alive
    besides ``conv``.  DomainError where a term passes the float range, as
    (1/A') (C dG)^2 does at n = 7, C = 1e-40, m = 1e-148, T = 5e-56.
    """
    g = G.values
    g_start = c * g[0, :]
    # One-sided 2nd-order derivative along the first argument at r = 0.
    dg = c * ((-3.0 * g[0, :] + 4.0 * g[1, :] - g[2, :]) / (2.0 * G.dt))
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        vals = pair(g_start, g_start)
        vals *= state.C_prime
        term = pair(dg, dg)
        term *= 1.0 / state.A_prime
        vals += term
        del term
        vals += conv
    # min and max make no N x N temporary; nan fails both tests
    if not (-np.inf < vals.min() and vals.max() < np.inf):
        raise DomainError("a noise-kernel term passes the float range")
    return vals


def vernon_real_full(kR_upstream: TwoTimeKernel | None, G: TwoTimeKernel,
                     state: ThermalState, C_edge: float) -> TwoTimeKernel:
    """Downstream noise kernel: double convolution plus two boundary terms.

    ``out(t,s) = C^2 [ int_0^t int_0^s kR(t',s') G(t',t-t') G(s',s-s')
    + C' G(0,t) G(0,s) + (1/A') dG(r,t-r)/dr|_0 dG(r,s-r)/dr|_0 ]`` at the
    constant coupling ``C_edge``.
    The boundary terms stem from the initial state of the integrated-out
    oscillator and matter only near the start of the window when G has
    finite memory.  Output is symmetric; a noise kernel G is a ShapeError,
    and so is an upstream whose max|V - V^T| passes 1e-12 max|V|.
    """
    _lag_row(G, "G")
    times = G.times
    _check_window(times.size, "noise kernel",
                  squares=_NOISE_SQUARES + (kR_upstream is not None))
    c = float(C_edge)
    if kR_upstream is None:
        # The zero double convolution; adding it keeps -0.0 out of the result.
        conv = 0.0
    else:
        if kR_upstream.times.shape != times.shape or \
                not np.allclose(kR_upstream.times, times, rtol=1e-12, atol=0.0):
            raise ShapeError("noise kernel grid differs from G grid")
        # V against V^T 64 rows at a time, so no N x N temporary is made
        v = kR_upstream.values
        tol = 1e-12 * max(v.max(), -v.min())
        if any(np.abs(v[i:i + 64] - v[:, i:i + 64].T).max() > tol
               for i in range(0, times.size, 64)):
            raise ShapeError("the upstream noise kernel is not symmetric")
        # Weighted columns: w_l in [0, t_i], halved at both ends, times C.
        gw = G.values * G.dt
        gw[0, :] *= 0.5
        idx = np.arange(times.size)
        gw[idx, idx] *= 0.5
        gw *= c
        conv = gw.T @ kR_upstream.values @ gw
        del gw
    vals = _noise_kernel(G, state, c, np.outer, conv)
    return TwoTimeKernel(times=times, values=vals)


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
