"""Finite-window, non-stationary kernel machinery.

Everything here lives on a uniform time grid ``t_0 = 0, ..., t_N = T``.
The dressed response G(t, s-t) obeys the two-time integral equation

    G(t, s-t) = G0(s-t) + int_t^T dt1 int_t1^T dt2 G0(t1-t) kI(t1, t2-t1) G(t2, s-t2),

with ``G0(u) = (2/(m omega)) sin(omega u)`` twice the bare response.  With
trapezoidal quadrature, and G0 and G vanishing at equal times, the discrete
equation is ``G = A + M G`` with ``A`` the bare response on the grid and
``M = dt^2 A (K - diag(K)/2)`` strictly upper triangular, so it is solved
directly, with no iteration: a stationary upstream kernel (exactly upper
Toeplitz) makes A, M and G Toeplitz and G is one row found by forward
substitution; any other upstream takes one unit-upper-triangular solve of
``(I - M) G = A``.  Both report the relative residual of that equation on
the first row.

The single-edge updates built on G:

* dissipation: ``kI_out(t, s-t) = (1/2) C(t) C(s) G(t, s-t)``;
* noise, full form: a double convolution of the upstream noise kernel with
  two G factors plus two boundary terms set by the initial Gaussian state,
  ``C' G(0, t) G(0, s)`` and ``(1/A') dG/dr|_0 dG/dr|_0``.

The auxiliary backward path Q driven by a deviation history solves

    (m/2) Q'' + (m omega^2/2) Q = (1/2) C(t) drive(t) + int_t^T kI(t, s-t) Q(s) ds

with rest conditions at T, and coincides with ``(1/2) int G(t,s-t) C(s)
drive(s) ds``; :func:`ode_response_check` computes the left-hand route
iteratively, :func:`response_from_twinning` the right-hand one.

Every window holds a few N x N arrays; a window whose arrays would exceed
:data:`~netbath.errors.BYTE_CAP` is refused with :class:`SizeError` before
they are allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import AccuracyError, DomainError, ShapeError, _check_bytes
from .model import ModelParams

#: Peak number of N x N float64 arrays alive at once on a window of N points,
#: measured with tracemalloc over the ``finite-time`` command (5.27 at N =
#: 1,323, 5.26 at 1,984 and 2,645): the solve holds the most, at most 4.25
#: besides the upstream kernel; the noise-kernel step holds two besides its
#: result.
WINDOW_ARRAYS = 5.3

# Stop rule of ode_response_check: relative change per sweep, and the sweep
# count after which it gives up.
_ODE_TOL = 1e-12
_ODE_MAX_SWEEPS = 400


def _check_window(n: int) -> None:
    """Refuse, before allocating, a window whose N x N arrays exceed the cap."""
    _check_bytes(WINDOW_ARRAYS * 8 * n * n, f"time window of {n} points",
                 "; shorten T or coarsen dt")


@dataclass(frozen=True)
class ThermalState:
    """Symmetric Gaussian initial state of one oscillator (hbar = 1).

    ``A_prime = (m omega/2) tanh(beta omega/2)`` and ``C_prime = (m omega/2)
    coth(beta omega/2)`` satisfy A'C' = (m omega/2)^2; the length scale is
    ``l = 1/sqrt(A'C') = 2/(m omega)``.
    """

    beta: float
    A_prime: float
    C_prime: float
    length_scale: float


def thermal_init(beta: float, params: ModelParams) -> ThermalState:
    """Thermal-state parameters at inverse temperature beta > 0.

    ``beta = inf`` is the ground state.
    """
    if not beta > 0:   # nan included
        raise DomainError(f"beta must be > 0, got {beta}")
    omega = math.sqrt(params.omega_sq)
    half = beta * omega / 2.0
    a_p = params.m * omega / 2.0 * math.tanh(half)
    c_p = params.m * omega / 2.0 / math.tanh(half)
    return ThermalState(beta=float(beta), A_prime=a_p, C_prime=c_p,
                        length_scale=2.0 / (params.m * omega))


@dataclass
class TwoTimeKernel:
    """Kernel on the uniform two-time grid 0 <= t <= s <= T.

    ``values[i, j]`` holds K(t_i, t_j - t_i); causal kernels vanish below the
    diagonal, symmetric kernels (noise type) satisfy V = V^T instead.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str = "causal"
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        n = self.times.size
        if self.values.shape != (n, n):
            raise ShapeError("values must be square over the time grid")
        steps = np.diff(self.times)
        if n > 1 and (np.any(steps <= 0)
                      or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)):
            raise ShapeError("time grid must be uniform and increasing")
        if self.kind not in ("causal", "symmetric"):
            raise ShapeError(f"unknown kind {self.kind!r}")
        if self.kind == "causal":
            lower = np.tril(self.values, k=-1)
            if np.any(lower != 0.0):
                raise ShapeError("causal kernel has entries below the diagonal")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.times.size > 1 else 0.0

    @classmethod
    def from_stationary(cls, times, func, kind: str = "causal") -> "TwoTimeKernel":
        """Build K(t, s-t) = func(s-t) on the grid (zero below the diagonal).

        ``func`` is evaluated once per lag index, on ``times - times[0]``, so
        the values are exactly Toeplitz (upper triangular when causal,
        symmetric otherwise).
        """
        times = np.asarray(times, dtype=float)
        _check_window(times.size)
        row = np.asarray(func(times - times[0]), dtype=float)
        if kind == "symmetric":
            vals = scipy.linalg.toeplitz(row)
        else:
            col = np.zeros_like(row)
            col[:1] = row[:1]
            vals = scipy.linalg.toeplitz(col, row)
        return cls(times=times, values=vals, kind=kind)


def time_grid(T: float, dt: float) -> np.ndarray:
    """Uniform grid 0..T, endpoint included, step no coarser than dt.

    Raises :class:`ShapeError` for a T or dt that is not finite, a dt that is
    not positive, or a window of fewer than three points, which the one-sided
    derivative of the boundary terms needs; and :class:`SizeError` when the
    N x N window arrays on this grid would exceed the cap.
    """
    if not (math.isfinite(T) and math.isfinite(dt) and dt > 0):
        raise ShapeError(f"time window 0..{T:g} at step {dt:g}: T and dt "
                         f"must be finite and dt > 0")
    steps = T / dt - 1e-9
    n = max(1, math.ceil(steps)) if math.isfinite(steps) else math.inf
    if n < 2:
        raise ShapeError(f"time window 0..{T:g} at step {dt:g} has "
                         f"{n + 1} points; the boundary terms need at least 3")
    _check_window(n + 1)
    return T * np.arange(n + 1) / n


def bare_response(params: ModelParams, u):
    """Twice the bare oscillator response, (2/(m omega)) sin(omega u) for u >= 0."""
    omega = math.sqrt(params.omega_sq)
    u = np.asarray(u, dtype=float)
    out = np.where(u >= 0, 2.0 / (params.m * omega) * np.sin(omega * u), 0.0)
    return float(out) if out.ndim == 0 else out


def _compose(x: np.ndarray, y: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid-weighted causal composition, (X * Y)[i,j] ~ int X[i,l] Y[l,j] dl.

    For causal factors the integration variable runs l in [i, j]; endpoint
    weights are halved.  The weight pattern factorizes per variable, so the
    composition is associative at the discrete level.
    """
    out = x @ y
    out -= 0.5 * np.diag(x)[:, None] * y
    out -= 0.5 * x * np.diag(y)[None, :]
    return dt * out


def _apply(x: np.ndarray, h: np.ndarray, dt: float) -> np.ndarray:
    """Weighted action on a history vector, (X * h)[i] ~ int_t_i^T X[i,l] h[l] dl."""
    out = x @ h
    out -= 0.5 * np.diag(x) * h
    out -= 0.5 * x[:, -1] * h[-1]
    return dt * out


@dataclass
class TwinningResult:
    """Solved dressed response.

    ``residual`` is the max-norm residual of ``(I - M) G = A`` on the first
    row, relative to ``max(1, max |G[0]|)``; ``iterations`` is always 1, the
    solve being direct.
    """

    G: TwoTimeKernel
    residual: float
    iterations: int = 1


def _toeplitz_solve(a: np.ndarray, k_row: np.ndarray, dt: float):
    """Row 0 of M, and G, for an upper-Toeplitz upstream kernel.

    A, M and G are then upper-triangular Toeplitz, so row 0 of G follows by
    forward substitution, ``g_j = a_j + sum_{l=1..j} m_l g_{j-l}``, and G is A
    plus the Toeplitz matrix of ``g - a``; a zero kernel returns A exactly.
    """
    n = a.shape[0]
    a_row = a[0]
    k_half = k_row.copy()
    k_half[0] *= 0.5
    m_row = dt * dt * np.convolve(a_row, k_half)[:n]
    g_row = a_row.copy()
    for j in range(1, n):
        g_row[j] += m_row[1:j + 1] @ g_row[j - 1::-1]
    g = scipy.linalg.toeplitz(np.zeros(n), g_row - a_row)
    g += a
    return m_row, g


def _triangular_solve(a: np.ndarray, k: np.ndarray, dt: float):
    """Row 0 of M, and G, from one unit-upper-triangular solve of (I - M) G = A."""
    k_half = k.copy()
    diag = np.diag_indices_from(k_half)
    k_half[diag] *= 0.5
    minus_m = a @ k_half
    del k_half
    minus_m *= -dt * dt
    # The unit diagonal of I - M is implied; the solver never reads it.
    g = scipy.linalg.solve_triangular(minus_m, a, unit_diagonal=True,
                                      check_finite=False)
    return -minus_m[0], g


def _bare_matrix(params: ModelParams, times: np.ndarray) -> np.ndarray:
    """The bare response A[i, j] = G0(t_j - t_i) on the grid, zero below the diagonal."""
    lag = times[None, :] - times[:, None]
    return np.where(lag >= 0, bare_response(params, np.maximum(lag, 0.0)), 0.0)


def twinning_solve(kI_upstream: TwoTimeKernel, params: ModelParams) -> TwinningResult:
    """Solve the discretised two-time response equation ``(I - M) G = A`` directly.

    ``kI_upstream`` fixes the grid and so the window and step.  The step
    must resolve the band, dt <= 1/(20 lambda_pp) (falls back to the
    oscillator period when the band is degenerate).  An exactly upper-Toeplitz
    (stationary) upstream is solved as one Toeplitz row in O(N^2); any other
    by a unit-upper-triangular solve in O(N^3).  ``G.meta["solver"]`` names
    the path taken, ``"toeplitz"`` or ``"triangular"``.
    """
    times = kI_upstream.times
    grid_dt = kI_upstream.dt
    if params.band_defined and params.lambda_pp > 0:
        limit = 1.0 / (20.0 * params.lambda_pp)
    else:
        limit = 1.0 / (20.0 * math.sqrt(params.omega_sq))
    if grid_dt > limit * (1.0 + 1e-12):
        raise AccuracyError(
            f"dt={grid_dt:.3g} coarser than resolution limit {limit:.3g}")

    a = _bare_matrix(params, times)
    k = kI_upstream.values
    if np.array_equal(k[1:, 1:], k[:-1, :-1]):
        solver = "toeplitz"
        m_row, g = _toeplitz_solve(a, k[0], grid_dt)
    else:
        solver = "triangular"
        m_row, g = _triangular_solve(a, k, grid_dt)
    r_row = g[0] - m_row @ g - a[0]
    residual = float(np.abs(r_row).max() / max(1.0, np.abs(g[0]).max()))
    kernel = TwoTimeKernel(times=times, values=g, kind="causal",
                           meta={"solver": solver})
    return TwinningResult(G=kernel, residual=residual)


def neumann_first_correction(kI_upstream: TwoTimeKernel, params: ModelParams) -> np.ndarray:
    """First-order term int int G0 kI G0 of the Neumann series for G."""
    a = _bare_matrix(params, kI_upstream.times)
    return _compose(a, _compose(kI_upstream.values, a, kI_upstream.dt),
                    kI_upstream.dt)


def _coupling_on_grid(C_edge, times: np.ndarray) -> np.ndarray:
    if callable(C_edge):
        return np.asarray([C_edge(t) for t in times], dtype=float)
    return np.full(times.size, float(C_edge))


def vernon_imag_finite(G: TwoTimeKernel, C_edge) -> TwoTimeKernel:
    """Downstream dissipation kernel (1/2) C(t) C(s) G(t, s-t).

    ``C_edge`` is a constant or a callable C(t); a coupling that vanishes
    before a turn-on time zeroes the kernel there.
    """
    c = _coupling_on_grid(C_edge, G.times)
    vals = 0.5 * c[:, None] * c[None, :] * G.values
    return TwoTimeKernel(times=G.times, values=vals, kind="causal")


def vernon_real_full(kR_upstream: TwoTimeKernel | None, G: TwoTimeKernel,
                     state: ThermalState, C_edge) -> TwoTimeKernel:
    """Downstream noise kernel: double convolution plus two boundary terms.

    ``out(t,s) = C(t)C(s) [ int_0^t int_0^s kR(t',s') G(t',t-t') G(s',s-s')
    + C' G(0,t) G(0,s) + (1/A') dG(r,t-r)/dr|_0 dG(r,s-r)/dr|_0 ]``.
    The boundary terms stem from the initial state of the integrated-out
    oscillator and matter only near the start of the window when G has
    finite memory.  Output is symmetric.
    """
    times = G.times
    dt = G.dt
    c = _coupling_on_grid(C_edge, times)
    g = G.values
    g_start = g[0, :]
    # One-sided 2nd-order derivative along the first argument at r = 0.
    dg = (-3.0 * g[0, :] + 4.0 * g[1, :] - g[2, :]) / (2.0 * dt)
    # Built in place: without an upstream kernel at most two N x N arrays
    # are alive besides the result.
    total = np.outer(g_start, g_start)
    total *= state.C_prime
    term = np.outer(dg, dg)
    term *= 1.0 / state.A_prime
    total += term
    del term
    if kR_upstream is not None:
        if kR_upstream.times.shape != times.shape or \
                not np.allclose(kR_upstream.times, times, rtol=1e-12, atol=0.0):
            raise ShapeError("noise kernel grid differs from G grid")
        # Weighted columns: w_l in [0, t_i], halved at both ends.
        gw = g * dt
        gw[0, :] *= 0.5
        idx = np.arange(times.size)
        gw[idx, idx] *= 0.5
        total += gw.T @ kR_upstream.values @ gw
    else:
        # The zero double convolution; adding it keeps -0.0 out of the result.
        total += 0.0
    vals = np.outer(c, c)
    vals *= total
    return TwoTimeKernel(times=times, values=vals, kind="symmetric")


def response_from_twinning(G: TwoTimeKernel, C_edge, drive: np.ndarray) -> np.ndarray:
    """Q(t) = (1/2) int_t^T G(t, s-t) C(s) drive(s) ds on the grid."""
    c = _coupling_on_grid(C_edge, G.times)
    return 0.5 * _apply(G.values, c * np.asarray(drive, dtype=float), G.dt)


def ode_response_check(kI_upstream: TwoTimeKernel, params: ModelParams,
                       drive: np.ndarray) -> np.ndarray:
    """Backward response to a deviation drive by iterated quadrature.

    Solves ``(m/2)Q'' + (m omega^2/2) Q = (1/2) C drive + int_t^T kI Q`` with
    rest conditions at T, on the grid of ``kI_upstream`` and with the edge
    coupling ``params.C``, never referencing the dressed response: the bare
    kernel is applied repeatedly until the history changes by at most 1e-12
    relative, for at most 400 sweeps.  The result must agree with
    :func:`response_from_twinning` built from :func:`twinning_solve` on the
    same grid.
    """
    times = kI_upstream.times
    grid_dt = kI_upstream.dt
    omega = math.sqrt(params.omega_sq)
    if grid_dt * omega > 0.5:
        raise AccuracyError(
            f"dt={grid_dt:.3g} too coarse for the oscillation period "
            f"{2 * math.pi / omega:.3g}; backward quadrature would be unstable")
    drive = np.asarray(drive, dtype=float)
    if drive.shape != times.shape:
        raise ShapeError("drive must be sampled on the kernel grid")
    a = _bare_matrix(params, times)
    source = 0.5 * _coupling_on_grid(params.C, times) * drive
    q = _apply(a, source, grid_dt)
    for _ in range(_ODE_MAX_SWEEPS):
        q_new = _apply(a, source + _apply(kI_upstream.values, q, grid_dt),
                       grid_dt)
        delta = np.abs(q_new - q).max()
        q = q_new
        if delta <= _ODE_TOL * max(1.0, np.abs(q).max()):
            return q
    raise AccuracyError("backward response iteration did not converge; "
                        "reduce the window or the kernel strength")
