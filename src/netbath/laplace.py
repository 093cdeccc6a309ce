"""Cavity kernels on Laplace/Fourier grids and the uniform fixed point.

The dissipation kernels of the network's effective environment close among
themselves under the single-edge update ("one more oscillator integrated
out").  For stationary couplings that update is rational in the Laplace
variable:

    k_out(lambda) = (C^2/2) G0(lambda) / (1 - G0(lambda) k_in(lambda)),

with ``G0 = (2/m)/(lambda^2 + omega^2)`` twice the bare oscillator response.
On a degree-n regular network the aggregate (n-type) kernel obeys the scalar
map :func:`uniform_map`, whose attracting fixed point
:func:`closed_form_fixed_point` exists when the square-root argument of
:func:`~netbath.model.sqrt_argument` is nonnegative.  The analytic
continuation onto the Fourier axis, :func:`fourier_fixed_point`, has constant
modulus across the environment band, which makes the per-iteration gain of
the noise kernel exactly 2 there (:func:`real_multiplier`).

All public fixed-point values are n-type (aggregate over n-1 branches); the
single-branch (m-type) value is the n-type value divided by n-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, SingularTransformError
from .model import ModelParams, lambda_star, sqrt_argument

#: Relative tolerance used to declare the rational update singular.
POLE_RTOL = 1e-14

#: Above this magnitude kernel orbits switch to log-magnitude bookkeeping.
ORBIT_VALUE_CAP = 1e200


@dataclass
class CavityKernel:
    """A kernel sampled on a real Laplace (lambda > 0) or Fourier (nu) grid.

    Parameters
    ----------
    grid : array
        Strictly increasing, finite evaluation points.
    values : array
        Kernel values; real in Laplace mode, complex allowed in Fourier mode.
    mode : {"laplace", "fourier"}
    role : {"kI", "kR"}
        Dissipation (imaginary-part) or noise (real-part) kernel.
    message_type : {"n", "m"}
        Aggregate node-to-node message or single-branch message.
    """

    grid: np.ndarray
    values: np.ndarray
    mode: str = "laplace"
    role: str = "kI"
    message_type: str = "n"
    flags: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values)
        if self.grid.ndim != 1 or self.grid.size == 0:
            raise ShapeError("grid must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.grid)):
            raise ShapeError("grid points must be finite")
        if np.any(np.diff(self.grid) <= 0):
            raise ShapeError("grid must be strictly increasing")
        if self.values.shape != self.grid.shape:
            raise ShapeError("values and grid shapes differ")
        if self.mode not in ("laplace", "fourier"):
            raise ShapeError(f"unknown mode {self.mode!r}")
        if self.role not in ("kI", "kR"):
            raise ShapeError(f"unknown role {self.role!r}")
        if self.message_type not in ("n", "m"):
            raise ShapeError(f"unknown message_type {self.message_type!r}")
        if self.mode == "laplace":
            if np.iscomplexobj(self.values) and np.any(self.values.imag != 0):
                raise ShapeError("Laplace-mode kernel values must be real")
            self.values = np.real(self.values).astype(float)

    def hermitian_defect(self) -> float:
        """Max |value(-nu) - conj(value(nu))| over grid points present in pairs."""
        if self.mode != "fourier":
            return 0.0
        defect = 0.0
        index = {g: i for i, g in enumerate(self.grid)}
        for i, g in enumerate(self.grid):
            j = index.get(-g)
            if j is not None:
                defect = max(defect, abs(self.values[j] - np.conj(self.values[i])))
        return float(defect)


def g0_laplace(params: ModelParams, lam):
    """Twice the bare oscillator response, (2/m)/(lambda^2 + omega^2)."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise DomainError("lambda must be >= 0")
    out = (2.0 / params.m) / (lam**2 + params.omega_sq)
    return float(out) if out.ndim == 0 else out


def _edge_update(k_in, g0, c_half):
    """Pole-guarded single-edge update ``c_half G0 / (1 - G0 k_in)``.

    Elementwise over broadcast arrays; returns ``(values, poles)`` where
    ``poles`` marks the entries whose denominator vanishes to relative
    tolerance ``POLE_RTOL`` and ``values`` is nan there.
    """
    prod = g0 * k_in
    denom = 1.0 - prod
    tol = np.abs(prod)
    # Sweeps pass whole tree levels and pools: hold few large temporaries.
    del prod
    tol = np.maximum(tol, 1.0)
    tol *= POLE_RTOL
    poles = np.abs(denom) < tol
    if poles.any():
        denom = np.where(poles, np.nan, denom)
    return c_half * g0 / denom, poles


def vernon_imag(kI_in, params: ModelParams, C_edge: float, lam):
    """Single-edge dissipation update: (C^2/2) G0 / (1 - G0 k_in).

    Maps the aggregate kernel seen by an oscillator into the single-branch
    kernel it presents downstream.  Raises
    :class:`~netbath.errors.SingularTransformError` when the denominator
    vanishes to relative tolerance ``POLE_RTOL``.
    """
    out, bad = _edge_update(np.asarray(kI_in, dtype=float),
                            g0_laplace(params, lam), C_edge**2 / 2.0)
    if bad.any():
        raise SingularTransformError(
            f"single-edge update pole at lambda={np.asarray(lam)[bad] if np.ndim(lam) else lam}")
    return float(out) if out.ndim == 0 else out


def bp_sum(messages, *, grid=None, mode="laplace", role="kI") -> CavityKernel:
    """Combine single-branch messages into the aggregate kernel at a node.

    Disjoint environments contribute additively, so the aggregate is the
    pointwise sum; the type tag flips m -> n.  An empty list yields the zero
    kernel of a leaf and then requires an explicit ``grid``.
    """
    messages = list(messages)
    if not messages:
        if grid is None:
            raise ShapeError("empty message list needs an explicit grid")
        return CavityKernel(grid=np.asarray(grid, dtype=float),
                            values=np.zeros(len(grid)), mode=mode, role=role,
                            message_type="n")
    first = messages[0]
    for msg in messages:
        if msg.message_type != "m":
            raise ShapeError("bp_sum combines m-type messages only")
        if msg.mode != first.mode or msg.role != first.role:
            raise ShapeError("messages disagree in mode or role")
        if msg.grid.shape != first.grid.shape or not np.array_equal(msg.grid, first.grid):
            raise ShapeError("messages disagree on the evaluation grid")
    total = np.sum([msg.values for msg in messages], axis=0)
    return CavityKernel(grid=first.grid.copy(), values=total, mode=first.mode,
                        role=first.role, message_type="n")


def uniform_map(k, params: ModelParams, lam):
    """One sweep of the aggregate kernel on the uniform degree-n network."""
    return (params.n - 1) * vernon_imag(k, params, params.C, lam)


def closed_form_fixed_point(params: ModelParams, lam):
    """Fixed point of :func:`uniform_map` where it exists.

    ``k*(lambda) = m (lambda^2+omega^2)/4 (1 - sqrt(arg))`` with the minus
    branch: the plus branch would not decay at large lambda and is not a
    Laplace transform of anything causal.  Raises
    :class:`~netbath.errors.DomainError` (carrying the onset frequency) where
    the square-root argument is negative.
    """
    lam_arr = np.asarray(lam, dtype=float)
    arg = sqrt_argument(params, lam_arr)
    if np.any(arg < 0.0):
        raise DomainError(
            "no uniform fixed point at the requested lambda",
            lambda_star=lambda_star(params))
    s = lam_arr**2 + params.omega_sq
    # 1 - sqrt(1-u) written as u/(1 + sqrt(1-u)): no cancellation at small u,
    # which the 1e-12 gain identity downstream relies on.
    u = 8.0 * (params.n - 1) * params.C**2 / (params.m**2 * s**2)
    out = params.m * s / 4.0 * u / (1.0 + np.sqrt(arg))
    return float(out) if out.ndim == 0 else out


@dataclass
class IterationResult:
    """Outcome of iterating the uniform map from zero."""

    value: float
    iterations: int
    converged: bool
    cycle_detected: bool
    period: int | None = None
    recurrence_error: float | None = None
    orbit: np.ndarray | None = field(default=None, repr=False)


def _chordal(x, y):
    """Distance on the projective line; finite even across pole passages."""
    return np.abs(x - y) / np.sqrt((1.0 + x * x) * (1.0 + y * y))


def detect_near_cycle(tail: np.ndarray, max_period: int = 256, tol: float = 0.05):
    """Search a trailing orbit window for approximate periodicity.

    Uses the chordal metric so that large excursions (pole passages of the
    rational map) do not mask recurrence.  Returns ``(period,
    recurrence_error)`` for the best period, or ``(None, error)`` when no
    period beats ``tol``.
    """
    tail = np.asarray(tail, dtype=float)
    n = tail.size
    best_p, best_err = None, np.inf
    for p in range(1, min(max_period, n // 2) + 1):
        err = float(np.max(_chordal(tail[p:], tail[:-p])))
        if err < best_err:
            best_p, best_err = p, err
    if best_p is not None and best_err <= tol:
        return best_p, best_err
    return None, best_err


def iterate_fixed_point(params: ModelParams, lam: float, tol: float = 1e-12,
                        max_iter: int = 10000, keep_orbit: bool = False,
                        cycle_tol: float = 0.05) -> IterationResult:
    """Iterate the uniform map from k=0 and report how the orbit behaves.

    Convergence criterion: ``|k_{i+1} - k_i| <= tol * max(1, |k_i|)``.  In
    the ordered regime the iterates increase monotonically to the closed-form
    value.  A non-convergent orbit is scanned for approximate recurrence
    (any period up to 256, chordal metric); exhausting ``max_iter`` is a
    diagnostic outcome, not an exception.
    """
    if tol <= 0:
        raise DomainError("tol must be > 0")
    k = 0.0
    orbit = [k]
    converged = False
    iterations = max_iter
    for i in range(1, max_iter + 1):
        try:
            k_next = uniform_map(k, params, lam)
        except SingularTransformError:
            # Pole passage: the projective orbit continues through infinity.
            k_next = 0.0 if params.C == 0 else math.copysign(ORBIT_VALUE_CAP, k)
        orbit.append(k_next)
        if abs(k_next - k) <= tol * max(1.0, abs(k)):
            converged = True
            iterations = i
            k = k_next
            break
        k = k_next
    orbit = np.asarray(orbit)
    period = None
    rec_err = None
    cycle = False
    if not converged:
        window = orbit[-min(1024, orbit.size):]
        period, rec_err = detect_near_cycle(window, tol=cycle_tol)
        cycle = period is not None and period > 1
    return IterationResult(value=float(k), iterations=iterations,
                           converged=converged, cycle_detected=cycle,
                           period=period, recurrence_error=rec_err,
                           orbit=orbit if keep_orbit else None)


def fourier_fixed_point(params: ModelParams, nu):
    """Fixed-point kernel continued onto the Fourier axis, k*(i nu).

    Outside the band the value is real; across the band it moves onto the
    cut, ``(m/4)(x - i sign(nu) sqrt(a^4 - x^2))`` with ``x = omega^2 -
    nu^2``, so that the imaginary part is dissipative (<= 0 for nu > 0) and
    ``k*(nu) k*(-nu) = (n-1) C^2 / 2`` on the cut.  Hermitian by
    construction: ``k*(-nu) = conj(k*(nu))``.
    """
    if params.C < 0:
        raise DomainError("Fourier continuation needs C >= 0")
    nu_arr = np.asarray(nu, dtype=float)
    if params.C == 0:
        out = np.zeros(nu_arr.shape, dtype=complex)
        return complex(out) if out.ndim == 0 else out
    if not params.band_defined:
        raise DomainError("band edges are not real; no continuation at nu=0",
                          lambda_star=lambda_star(params))
    x = params.omega_sq - nu_arr**2
    a4 = 8.0 * (params.n - 1) * params.C**2 / params.m**2
    out = np.empty(nu_arr.shape, dtype=complex)
    inside = x**2 < a4
    xo = x[~inside]
    # Outside the band: same minus-branch expression as on the Laplace axis,
    # in the cancellation-free form.
    out[~inside] = params.m * a4 / (4.0 * xo) / (1.0 + np.sqrt(1.0 - a4 / xo**2))
    xi = x[inside]
    out[inside] = params.m / 4.0 * (
        xi - 1j * np.sign(nu_arr[inside]) * np.sqrt(a4 - xi**2))
    return complex(out) if out.ndim == 0 else out


def real_multiplier(params: ModelParams, nu):
    """Per-iteration gain of each Fourier component of the noise kernel.

    ``A(nu) = 4 |k*(nu)|^2 / ((n-1) C^2)`` at the uniform dissipation fixed
    point: exactly 2 on the closed band, decaying below 1 far outside it.
    Defined as 0 for a decoupled network (C = 0).
    """
    if params.C == 0:
        nu_arr = np.asarray(nu, dtype=float)
        out = np.zeros(nu_arr.shape)
        return float(out) if out.ndim == 0 else out
    khat = fourier_fixed_point(params, nu)
    out = 4.0 * np.abs(np.asarray(khat))**2 / ((params.n - 1) * params.C**2)
    return float(out) if np.ndim(out) == 0 else out


@dataclass
class OrbitStep:
    """One step of a noise-kernel orbit; log-magnitude once values overflow."""

    step: int
    kernel: CavityKernel | None
    log10_magnitude: np.ndarray | None = None
    sign: np.ndarray | None = None
    overflowed: bool = False


def real_kernel_orbit(kR0: CavityKernel, params: ModelParams, steps: int,
                      value_cap: float = ORBIT_VALUE_CAP) -> list[OrbitStep]:
    """Iterate the stationary noise-kernel update kR -> A(nu) * kR.

    In-band components double each step; components far outside the band
    decay geometrically.  When a component's magnitude would exceed
    ``value_cap`` the step is reported in log-magnitude form instead of
    overflowing.
    """
    if kR0.mode != "fourier":
        raise ShapeError("real_kernel_orbit needs a Fourier-mode kernel")
    gain = np.asarray(real_multiplier(params, kR0.grid))
    abs0 = np.abs(kR0.values)
    phase0 = np.where(abs0 > 0, kR0.values / np.where(abs0 > 0, abs0, 1.0), 0.0)
    with np.errstate(divide="ignore"):
        log_abs0 = np.log10(abs0)
        log_gain = np.log10(gain)
    out = []
    for i in range(1, steps + 1):
        # -inf log-magnitudes (zero input or zero gain) stay exactly zero.
        log_mag = log_abs0 + i * log_gain
        if np.any(log_mag > math.log10(value_cap)):
            out.append(OrbitStep(step=i, kernel=None,
                                 log10_magnitude=log_mag, sign=phase0.copy(),
                                 overflowed=True))
            continue
        values = np.where(np.isneginf(log_mag), 0.0, phase0 * 10.0**log_mag)
        kern = CavityKernel(grid=kR0.grid.copy(), values=values,
                            mode="fourier", role="kR",
                            message_type=kR0.message_type)
        out.append(OrbitStep(step=i, kernel=kern))
    return out


def quadratic_residual(params: ModelParams, lam, k):
    """Residual of G0 k^2 - k + (n-1) C^2 G0 / 2 at the claimed fixed point."""
    g0 = g0_laplace(params, lam)
    k = np.asarray(k, dtype=float)
    out = g0 * k**2 - k + (params.n - 1) * params.C**2 * g0 / 2.0
    return float(out) if out.ndim == 0 else out
