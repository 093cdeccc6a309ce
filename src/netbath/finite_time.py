"""Finite-window, non-stationary kernel machinery.

Everything here lives on a uniform time grid ``t_0 = 0, ..., t_N = T``.
The dressed response G(t, s-t) obeys the two-time integral equation

    G(t, s-t) = G0(s-t) + int_t^T dt1 int_t1^T dt2 G0(t1-t) kI(t1, t2-t1) G(t2, s-t2),

with ``G0(u) = (2/(m omega)) sin(omega u)`` twice the bare response.  With
trapezoidal quadrature, and G0 and G vanishing at equal times, the discrete
equation is ``G = A + M G`` with ``A`` the bare response on the grid and
``M = dt^2 A (K - diag(K)/2)`` strictly upper triangular, so it is solved
directly, with no iteration: a stationary upstream kernel makes A, M and G
upper-triangular Toeplitz, and G is one row found by forward substitution
and returned as that row, so it is exactly Toeplitz; any other upstream
takes one unit-upper-triangular solve of ``(I - M) G = A``.  Both report the
relative residual of that equation on the first row.

A stationary kernel (:meth:`TwoTimeKernel.from_stationary`, a stationary G,
and its dissipation kernel at a constant coupling) keeps only its lag row:
``values`` is a read-only Toeplitz view of it, so a row or the diagonal
costs O(N) and N x N arithmetic allocates only where it is asked for.

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

The step must resolve the band: :func:`twinning_solve` and
:func:`ode_response_check` refuse one coarser than
:attr:`~netbath.model.ModelParams.fine_step`, which is also the default step
of the ``finite-time`` command.  A step whose arrays, rows of N points
or N x N, would exceed :data:`~netbath.errors.BYTE_CAP` is refused with
:class:`SizeError` before it builds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import AccuracyError, DomainError, ShapeError, _check_bytes
from .model import ModelParams, _check_step, _check_uniform

# Peak float64 arrays a window step allocates besides its inputs, by
# tracemalloc at N = 661 to 1,984: time_grid 3.03-3.08 rows, from_stationary
# 7.16-7.52 rows besides func's; neumann_first_correction 5.00-5.02 N x N,
# the largest step on the bare response matrix, whose build is 4.25; the
# noise kernel 2.01-2.04, one more with an upstream; a dissipation kernel 2.13.
_GRID_ROWS = 3.1
_STATIONARY_ROWS = 7.6
_BARE_SQUARES = 5.1
_NOISE_SQUARES = 2.1
_DISSIPATION_SQUARES = 2.2

# Stop rule of ode_response_check: relative change per sweep, and the sweep
# count after which it gives up.
_ODE_TOL = 1e-12
_ODE_MAX_SWEEPS = 400


def _check_window(n: int, what: str, rows: float = 0.0,
                  squares: float = 0.0) -> None:
    """Refuse, before allocating, ``what`` holding ``rows`` float64 arrays of
    N points and ``squares`` of N x N on a window of N points."""
    _check_bytes(8 * n * (rows + squares * n),
                 f"{what} on a time window of {n} points",
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
    """Kernel on the uniform two-time grid 0 <= t <= s <= T.

    ``values[i, j]`` holds K(t_i, t_j - t_i); causal kernels vanish below the
    diagonal, symmetric kernels (noise type) satisfy V = V^T instead.  ``dt``
    is the grid step.  A stationary kernel stores its lag row in ``_row``, and
    ``values`` is a read-only Toeplitz view of one buffer holding it.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str = "causal"
    meta: dict = field(default_factory=dict, repr=False)
    _row: np.ndarray | None = field(default=None, repr=False)
    dt: float = field(init=False, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        n = self.times.size
        if self.values.shape != (n, n):
            raise ShapeError("values must be square over the time grid")
        self.dt = _check_uniform(self.times, "time")
        if self.kind not in ("causal", "symmetric"):
            raise ShapeError(f"unknown kind {self.kind!r}")
        # A stationary kernel is causal by construction.
        if self.kind == "causal" and self._row is None:
            lower = np.tril(self.values, k=-1)
            if np.any(lower != 0.0):
                raise ShapeError("causal kernel has entries below the diagonal")

    @classmethod
    def from_stationary(cls, times, func, kind: str = "causal") -> "TwoTimeKernel":
        """Build K(t, s-t) = func(s-t) on the grid (zero below the diagonal).

        ``func`` is evaluated once per lag index, on ``times - times[0]``, so
        the values are exactly Toeplitz (upper triangular when causal,
        symmetric otherwise).
        """
        times = np.asarray(times, dtype=float)
        _check_window(times.size, "stationary kernel", rows=_STATIONARY_ROWS)
        row = np.asarray(func(times - times[0]), dtype=float)
        return cls._from_row(times, row, kind)

    @classmethod
    def _from_row(cls, times, row: np.ndarray, kind: str = "causal") -> "TwoTimeKernel":
        """The stationary kernel of a lag row, ``values`` a view of O(N) memory.

        The buffer is the reversed first column followed by ``row[1:]``, the
        layout ``scipy.linalg.toeplitz`` strides before it copies; here the
        strided view is kept, read-only because every row aliases the buffer.
        """
        n = row.size
        head = row[:0:-1] if kind == "symmetric" else np.zeros(n - 1)
        buf = np.concatenate((head, row))
        step = buf.strides[0]
        vals = as_strided(buf[n - 1:], shape=(n, n), strides=(-step, step),
                          writeable=False)
        return cls(times=times, values=vals, kind=kind, _row=vals[0])


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


def _toeplitz_solve(a_row: np.ndarray, k_row: np.ndarray, dt: float):
    """Row 0 of M, and row 0 of G, for an upper-Toeplitz upstream kernel.

    A, M and G are then upper-triangular Toeplitz, so row 0 of G follows by
    forward substitution, ``g_j = a_j + sum_{l=1..j} m_l g_{j-l}``; a zero
    kernel returns the bare row exactly.
    """
    n = a_row.size
    k_half = k_row.copy()
    k_half[0] *= 0.5
    m_row = dt * dt * np.convolve(a_row, k_half)[:n]
    g_row = a_row.copy()
    for j in range(1, n):
        g_row[j] += m_row[1:j + 1] @ g_row[j - 1::-1]
    return m_row, g_row


def _triangular_solve(a: np.ndarray, k: np.ndarray, dt: float):
    """Row 0 of M, and G, from one unit-upper-triangular solve of (I - M) G = A."""
    import scipy.linalg

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
    _check_window(times.size, "bare response matrix", squares=_BARE_SQUARES)
    lag = times[None, :] - times[:, None]
    return np.where(lag >= 0, bare_response(params, np.maximum(lag, 0.0)), 0.0)


def twinning_solve(kI_upstream: TwoTimeKernel, params: ModelParams) -> TwinningResult:
    """Solve the discretised two-time response equation ``(I - M) G = A`` directly.

    ``kI_upstream`` fixes the grid and so the window and step.  The step
    must resolve the band, dt <= ``params.fine_step``.  A stationary upstream,
    one that keeps its lag row as :meth:`TwoTimeKernel.from_stationary`
    builds it, is solved as one Toeplitz row in O(N^2) and G is returned as
    that row; any other by a unit-upper-triangular solve in O(N^3).
    ``G.meta["solver"]`` names the path taken, ``"toeplitz"`` or
    ``"triangular"``.
    """
    times = kI_upstream.times
    grid_dt = kI_upstream.dt
    _check_step(grid_dt, params, "dt")

    k_row = kI_upstream._row
    if k_row is not None:
        solver = "toeplitz"
        a_row = bare_response(params, times - times[0])
        m_row, g_row = _toeplitz_solve(a_row, k_row, grid_dt)
        # (I - M) G = A on the first row is the row equation g - m * g = a.
        r_row = g_row - np.convolve(m_row, g_row)[:times.size] - a_row
        kernel = TwoTimeKernel._from_row(times, g_row)
    else:
        solver = "triangular"
        a = _bare_matrix(params, times)
        m_row, g = _triangular_solve(a, kI_upstream.values, grid_dt)
        g_row = g[0]
        r_row = g_row - m_row @ g - a[0]
        kernel = TwoTimeKernel(times=times, values=g, kind="causal")
    residual = float(np.abs(r_row).max() / max(1.0, np.abs(g_row).max()))
    kernel.meta["solver"] = solver
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
    before a turn-on time zeroes the kernel there.  A constant coupling keeps
    a stationary G stationary.
    """
    if G._row is not None and not callable(C_edge):
        c = float(C_edge)
        return TwoTimeKernel._from_row(G.times, 0.5 * c * c * G._row)
    _check_window(G.times.size, "dissipation kernel",
                  squares=_DISSIPATION_SQUARES)
    c = _coupling_on_grid(C_edge, G.times)
    vals = 0.5 * c[:, None] * c[None, :] * G.values
    return TwoTimeKernel(times=G.times, values=vals, kind="causal")


def _noise_kernel(G: TwoTimeKernel, state: ThermalState, C_edge, pair,
                  conv=0.0) -> np.ndarray:
    """``C(t)C(s) [conv + C' G(0,t) G(0,s) + (1/A') dG|_0(t) dG|_0(s)]``.

    The boundary terms come from two vectors, the first row of G and its
    one-sided derivative along the first argument at r = 0.  ``pair`` is
    ``np.outer`` for the kernel and ``np.multiply`` for its diagonal, which
    then costs O(N) on a stationary G.  Built in place: at most two N x N
    arrays are alive besides ``conv`` and the result.
    """
    c = _coupling_on_grid(C_edge, G.times)
    g = G.values
    g_start = g[0, :]
    # One-sided 2nd-order derivative along the first argument at r = 0.
    dg = (-3.0 * g[0, :] + 4.0 * g[1, :] - g[2, :]) / (2.0 * G.dt)
    total = pair(g_start, g_start)
    total *= state.C_prime
    term = pair(dg, dg)
    term *= 1.0 / state.A_prime
    total += term
    del term
    total += conv
    vals = pair(c, c)
    vals *= total
    return vals


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
    _check_window(times.size, "noise kernel",
                  squares=_NOISE_SQUARES + (kR_upstream is not None))
    if kR_upstream is None:
        # The zero double convolution; adding it keeps -0.0 out of the result.
        conv = 0.0
    else:
        if kR_upstream.times.shape != times.shape or \
                not np.allclose(kR_upstream.times, times, rtol=1e-12, atol=0.0):
            raise ShapeError("noise kernel grid differs from G grid")
        # Weighted columns: w_l in [0, t_i], halved at both ends.
        gw = G.values * G.dt
        gw[0, :] *= 0.5
        idx = np.arange(times.size)
        gw[idx, idx] *= 0.5
        conv = gw.T @ kR_upstream.values @ gw
        del gw
    vals = _noise_kernel(G, state, C_edge, np.outer, conv)
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
    same grid, and the step rule is :func:`twinning_solve`'s.
    """
    times = kI_upstream.times
    grid_dt = kI_upstream.dt
    _check_step(grid_dt, params, "dt")
    drive = np.asarray(drive, dtype=float)
    if drive.shape != times.shape:
        raise ShapeError("drive must be sampled on the kernel grid")
    a = _bare_matrix(params, times)
    # A stationary upstream is a strided view; its matvecs run faster on a
    # contiguous copy.
    k = np.ascontiguousarray(kI_upstream.values)
    source = 0.5 * _coupling_on_grid(params.C, times) * drive
    q = _apply(a, source, grid_dt)
    for _ in range(_ODE_MAX_SWEEPS):
        q_new = _apply(a, source + _apply(k, q, grid_dt), grid_dt)
        delta = np.abs(q_new - q).max()
        q = q_new
        if delta <= _ODE_TOL * max(1.0, np.abs(q).max()):
            return q
    raise AccuracyError("backward response iteration did not converge; "
                        "reduce the window or the kernel strength")
