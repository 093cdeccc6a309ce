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
the noise kernel exactly 2 there (:func:`real_multiplier`).  One routine,
:func:`_orbit_ends`, steps that map: the orbits of a whole lambda grid in
lockstep through the array update, then the last few on Python floats, and
says where each stopped: converged, at the pole, or still moving.
:func:`map_orbit` runs it on a grid of one and classifies an orbit still
moving as near-periodic or wandering.

All public fixed-point values are n-type (aggregate over n-1 branches); the
single-branch (m-type) value is the n-type value divided by n-1.  A scalar
lambda or nu is a grid of one: squares are taken by multiplication, as numpy
squares an array, so a point returns exactly the grid's float at that point.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, SingularTransformError, \
    _check_bytes
from .model import ModelParams, _band, _check_finite, _laplace_s, \
    _sqrt_terms, lambda_star

#: Relative tolerance used to declare the rational update singular.
POLE_RTOL = 1e-14

#: Near-cycle search of a non-convergent orbit: longest period tried and the
#: largest chordal recurrence error still called periodic.
CYCLE_MAX_PERIOD = 256
CYCLE_TOL = 0.05

#: Peak bytes an orbit holds per step: its list of Python floats, then the
#: array copy.  tracemalloc measured 40.0-40.5 from 10^4 to 3 x 10^6 steps.
_ORBIT_STEP_BYTES = 41


def _check_count(name: str, count, least: int) -> None:
    """Refuse with DomainError a count that is not an integer >= least; a
    bool is not one, a numpy integer is."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {count!r}")


def _check_lambda_grid(grid) -> np.ndarray:
    """The grid of a :class:`CavityKernel` as floats: refuse, with ShapeError,
    one that is not a nonempty 1-d array of finite, strictly increasing points."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ShapeError("grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid)):
        raise ShapeError("grid points must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ShapeError("grid must be strictly increasing")
    return grid


@dataclass
class CavityKernel:
    """A dissipation kernel sampled on a grid of real Laplace points lambda.

    Parameters
    ----------
    grid : array
        Strictly increasing, finite evaluation points; only
        :func:`~netbath.timedomain.forward_laplace` needs them > 0.
    values : array
        Real kernel values.
    flags : bool array or None
        Grid points where the values are not finite (a pole was hit).
    """

    grid: np.ndarray
    values: np.ndarray
    flags: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.grid = _check_lambda_grid(self.grid)
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ShapeError("values and grid shapes differ")
        if np.iscomplexobj(self.values) and np.any(self.values.imag != 0):
            raise ShapeError("kernel values must be real")
        self.values = np.real(self.values).astype(float)


def g0_laplace(params: ModelParams, lam):
    """Twice the bare oscillator response, (2/m)/(lambda^2 + omega^2).

    Raises :class:`DomainError` where :func:`~netbath.model._laplace_s` does.
    """
    out = (2.0 / params.m) / _laplace_s(params, lam)
    return float(out) if out.ndim == 0 else out


def _edge_update(k_in, g0, c_half, out=None):
    """Pole-guarded single-edge update ``c_half G0 / (1 - G0 k_in)``.

    Elementwise over broadcast arrays; returns ``(values, poles)`` where
    ``poles`` marks the entries whose denominator vanishes to relative
    tolerance ``POLE_RTOL`` and ``values`` is nan there.  The array body
    writes the values into ``out`` when one is given, which may be ``k_in``
    itself: it is read only before.  The float steps of :func:`_orbit_ends`
    make the same IEEE operations in the same order inline, so their bits
    are this body's on the same floats.
    """
    denom = 1.0 - g0 * k_in
    # A pole, |denom| < POLE_RTOL max(|prod|, 1), needs |prod| < 2 (else
    # |denom| >= |prod| / 2), so |denom| < 2 POLE_RTOL: only then is the
    # full test made, on the product formed again.  Sweeps pass whole tree
    # levels and pools: hold few large temporaries.  count_nonzero gives
    # any's verdict with less set-up, which a tree sweep's short rows feel.
    poles = np.abs(denom) < 2.0 * POLE_RTOL
    if np.count_nonzero(poles):
        tol = np.maximum(np.abs(g0 * k_in), 1.0)
        tol *= POLE_RTOL
        poles = np.abs(denom) < tol
        denom = np.where(poles, np.nan, denom)
    return np.divide(c_half * g0, denom, out=out), poles


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
    s, u = _sqrt_terms(params, lam)
    arg = 1.0 - u
    if np.any(arg < 0.0):
        raise DomainError(
            "no uniform fixed point at the requested lambda",
            lambda_star=lambda_star(params))
    # 1 - sqrt(1-u) written as u/(1 + sqrt(1-u)): no cancellation at small u,
    # which the 1e-12 gain identity downstream relies on.
    out = params.m * s / 4.0 * u / (1.0 + np.sqrt(arg))
    return float(out) if out.ndim == 0 else out


def _chordal(x, y):
    """Distance on the projective line, ``|sin(arctan x - arctan y)|``.

    Finite even across pole passages, and for any pair of finite floats:
    where ``(1 + x^2)(1 + y^2)`` overflows (``|x| |y|`` or a square past
    about 1.8e308), the pair is taken again as ``|x/2 - y/2|``, divided by
    each ``hypot(1, .)`` in turn and doubled.  Every other pair keeps the
    squared form and its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # taken again below
        norm = np.sqrt((1.0 + x * x) * (1.0 + y * y))
        out = np.abs(x - y) / norm
    far = np.isinf(norm)
    if far.any():
        x, y = x[far], y[far]
        out[far] = np.abs(0.5 * x - 0.5 * y) / np.hypot(1.0, x) / np.hypot(1.0, y) * 2.0
    return out


def detect_near_cycle(tail: np.ndarray):
    """Search a trailing orbit window for approximate periodicity.

    Uses the chordal metric so that large excursions (pole passages of the
    rational map) do not mask recurrence.  Returns ``(period,
    recurrence_error)`` for the best period up to ``CYCLE_MAX_PERIOD``, or
    ``(None, error)`` when no period beats ``CYCLE_TOL``.
    """
    tail = np.asarray(tail, dtype=float)
    n = tail.size
    best_p, best_err = None, np.inf
    for p in range(1, min(CYCLE_MAX_PERIOD, n // 2) + 1):
        err = float(np.max(_chordal(tail[p:], tail[:-p])))
        if err < best_err:
            best_p, best_err = p, err
    if best_p is not None and best_err <= CYCLE_TOL:
        return best_p, best_err
    return None, best_err


@dataclass
class OrbitReport:
    """Classification of a scalar-map orbit."""

    classification: str         # "converged" | "near-periodic" | "wandering" | "pole"
    final: float
    orbit: np.ndarray
    diameter: float
    period: int | None = None
    recurrence_error: float | None = None


def map_orbit(params: ModelParams, lam: float, x0: float = 0.0,
              steps: int = 2000, tol: float = 1e-12) -> OrbitReport:
    """Iterate the uniform map from x0 and classify the orbit.

    Converged: ``|x_{i+1} - x_i| <= tol * |x_i|``, relative, so in any units;
    the orbit then ends at the fixed point after ``orbit.size - 1`` steps.
    From zero in the ordered regime the iterates increase monotonically to
    the closed-form value.  An orbit that hits the pole of the edge update
    stops there, classified ``"pole"``, with ``final`` the last finite
    iterate.  An orbit still moving after ``steps`` steps is scanned for
    approximate recurrence (:func:`detect_near_cycle` on its last 1024
    points); its failure to settle signals the dynamically disordered regime.

    The orbit is that of :func:`_orbit_ends` on a grid of one, whose float
    steps are those of :func:`uniform_map`, bit for bit.  Lambda and x0 are
    each one point: an array of any size is refused with ShapeError.  A
    negative ``tol``, and a ``steps`` that is negative or not an integer (a
    bool included), are refused with DomainError, and ``steps`` past about
    5 x 10^7 with SizeError, before any step.
    """
    if np.ndim(lam) > 0:
        raise ShapeError("map_orbit takes one lambda, not an array")
    if np.ndim(x0) > 0:
        raise ShapeError("map_orbit takes one x0, not an array")
    _check_finite(x0, "x0")
    _, _, stop, orbit = _orbit_ends(params, np.atleast_1d(lam), steps, tol, x0)
    cls, period, rec_err = stop[0], None, None
    if cls == "moving":
        period, rec_err = detect_near_cycle(orbit[-1024:])
        cls = "near-periodic" if period is not None and period > 1 else "wandering"
    return OrbitReport(classification=cls, final=float(orbit[-1]), orbit=orbit,
                       diameter=float(np.ptp(orbit)), period=period,
                       recurrence_error=rec_err)


#: Live orbits at or below which :func:`_orbit_ends` steps each one on its
#: own, on Python floats.  A lockstep step costs 10-16 us at widths 1 to 100
#: and 22 us at 400, a float step about 0.26 us inline (0.41 us as a call;
#: 10^5 steps, thread time, best of 5).  With a call a step, the orbits of the
#: benchmark's 56 fixed-point lines of four seeds (8,469 lambdas; thread
#: time on one CPU of a 2-vCPU Xeon, median of 31 passes) took 58.8 ms with
#: 8, 47.7-51.6 ms with 16 to 32 and 46.5 ms with 64, every bit the same,
#: and 90.5 ms with no handoff (median of 15).
_LOCKSTEP_MAX_HANDOFF = 32


def _orbit_ends(params: ModelParams, lam: np.ndarray, steps: int, tol: float,
                x0: float = 0.0):
    """The orbits of the uniform map from x0, one at each point of a 1-d
    lambda grid: the one routine that steps the map.

    Returns ``(final, steps_taken, stop, orbit)``: each orbit's last finite
    iterate, its step count and why it stopped, ``"converged"`` (the test
    of :func:`map_orbit`), ``"pole"`` or ``"moving"`` (``steps`` reached);
    then the float-stepped iterates of the last orbit live at the handoff,
    which for a grid of one is its whole orbit from x0.  Every live lambda
    steps together through the array body of :func:`_edge_update` until at
    most ``_LOCKSTEP_MAX_HANDOFF`` are live; each of those goes on alone on
    Python floats, with the pole test and the update inline and no call a
    step: the same IEEE operations in the same order, so every orbit has
    the bits of its own grid of one.  A negative ``tol``, and a ``steps``
    that is negative or not an integer, are refused with DomainError, and
    the orbit charged, before any step.
    """
    if not tol >= 0:   # nan included
        raise DomainError(f"tol must be >= 0, got {tol}")
    _check_count("steps", steps, 0)
    _check_bytes(_ORBIT_STEP_BYTES * (steps + 1), f"orbit of {steps} steps")
    g0 = g0_laplace(params, lam)
    # a Python float, so that a numpy C keeps the float steps on floats
    c_half = float(params.C)**2 / 2.0
    branches = params.n - 1
    final = np.zeros(lam.size)
    taken = np.zeros(lam.size, dtype=int)
    stop = np.full(lam.size, "moving", dtype=object)
    live = np.arange(lam.size)
    x = np.full(lam.size, float(x0))
    step = 0
    while step < steps and live.size > _LOCKSTEP_MAX_HANDOFF:
        k_branch, pole = _edge_update(x, g0, c_half)
        x_next = branches * k_branch
        done = np.abs(x_next - x) <= tol * np.abs(x)
        ended = pole | done
        if ended.any():
            final[live[pole]], taken[live[pole]] = x[pole], step
            stop[live[pole]] = "pole"
            final[live[done]], taken[live[done]] = x_next[done], step + 1
            stop[live[done]] = "converged"
            live, g0, x_next = live[~ended], g0[~ended], x_next[~ended]
        x = x_next
        step += 1
    # The float loop reads locals only and makes no call: the pole test and
    # the update are _edge_update's on floats, inline.  Its magnitudes are
    # taken by comparison, and ``not b <= 1.0`` keeps a nan product's bound
    # nan, as np.maximum does; G0 C^2/2 is one product an orbit, its bits
    # those of each step's.  The convergence test is map_orbit's.
    rtol = POLE_RTOL
    orbit = []
    for i, g, x in zip(live.tolist(), g0.tolist(), x.tolist()):
        numer = c_half * g
        orbit = [x]
        append = orbit.append
        for _ in range(steps - step):
            prod = g * x
            denom = 1.0 - prod
            b = prod if prod >= 0.0 else -prod
            d = denom if denom >= 0.0 else -denom
            if d < (b * rtol if not b <= 1.0 else rtol):
                stop[i] = "pole"
                break
            x_next = branches * (numer / denom)
            append(x_next)
            d = x_next - x
            s = x if x >= 0.0 else -x
            x = x_next
            if (d if d >= 0.0 else -d) <= tol * s:
                stop[i] = "converged"
                break
        final[i], taken[i] = x, step + len(orbit) - 1
    return final, taken, stop, np.asarray(orbit)


def fourier_fixed_point(params: ModelParams, nu):
    """Fixed-point kernel continued onto the Fourier axis, k*(i nu).

    Outside the band the value is real; across the band it moves onto the
    cut, ``(m/4)(x - i sign(nu) sqrt(a^4 - x^2))`` with ``x = omega^2 -
    nu^2``, so that the imaginary part is dissipative (<= 0 for nu > 0) and
    ``k*(nu) k*(-nu) = (n-1) C^2 / 2`` on the cut.  Hermitian by
    construction: ``k*(-nu) = conj(k*(nu))``.  Zero for a decoupled network
    (C = 0); raises :class:`DomainError` where the band is not real
    (:func:`~netbath.model._band`) and unless every nu is finite.
    """
    band = _band(params)
    nu_arr = _check_finite(nu, "nu")
    if not band:
        out = np.zeros(nu_arr.shape, dtype=complex)
        return complex(out) if out.ndim == 0 else out
    with np.errstate(over="ignore"):   # nu^2 past the floats: x = -inf, k* = -0
        x = params.omega_sq - nu_arr * nu_arr
    a4 = 8.0 * (params.n - 1) * params.C**2 / params.m**2
    out = np.empty(nu_arr.shape, dtype=complex)
    inside = x * x <= a4   # at a4 = 0, C^2 underflowed: x = 0 gives k* = 0
    xo = x[~inside]
    # Outside the band: same minus-branch expression as on the Laplace axis,
    # in the cancellation-free form.
    out[~inside] = params.m * a4 / (4.0 * xo) / (
        1.0 + np.sqrt(1.0 - a4 / (xo * xo)))
    xi = x[inside]
    out[inside] = params.m / 4.0 * (
        xi - 1j * np.sign(nu_arr[inside]) * np.sqrt(a4 - xi * xi))
    return complex(out) if out.ndim == 0 else out


def real_multiplier(params: ModelParams, nu):
    """Per-iteration gain of each Fourier component of the noise kernel.

    ``A(nu) = 4 |k*(nu)|^2 / ((n-1) C^2)`` at the uniform dissipation fixed
    point: exactly 2 on the closed band, decaying below 1 far outside it.
    Defined as 0 for a decoupled network (C = 0), or one whose C^2 underflows.
    """
    out = np.abs(fourier_fixed_point(params, nu))    # zeros where C^2 = 0
    divisor = (params.n - 1) * params.C**2
    if divisor:
        out = 4.0 * (out * out) / divisor
    return float(out) if np.ndim(out) == 0 else out


def quadratic_residual(params: ModelParams, lam, k):
    """Residual of G0 k^2 - k + (n-1) C^2 G0 / 2 at the claimed fixed point."""
    g0 = g0_laplace(params, lam)
    k = np.asarray(k, dtype=float)
    out = g0 * (k * k) - k + (params.n - 1) * params.C**2 * g0 / 2.0
    return float(out) if out.ndim == 0 else out
