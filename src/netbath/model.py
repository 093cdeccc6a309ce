"""Physical parameters of a uniform harmonic network and derived quantities.

A network of mass-``m`` oscillators with bare frequency ``omega0`` sits on a
regular graph of degree ``n``; every edge carries the same spring constant
``C``.  All other modules consume the derived quantities collected in
:class:`ModelParams`: the effective squared frequency ``omega_sq``, the band
half-width ``a_sq`` of the equivalent environment, the band edges
``lambda_pm <= lambda_pp``, their ratio ``q`` and the time-domain kernel
amplitude ``Lambda``.  A scalar lambda is a grid of one: squares are taken
by multiplication, so a point returns exactly the grid's float at that point.

Units: frequencies in rad/time, couplings in mass/time^2, hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError

# The total potential must stay positive definite: C > -m omega0^2 / n.
_POSITIVITY_MSG = "coupling C={C} violates the positivity bound C > -m*omega0^2/n = {bound}"


@dataclass(frozen=True)
class ModelParams:
    """Network parameters plus every derived spectral quantity.

    Fields ``a_sq``, ``lambda_pp``, ``lambda_pm``, ``q`` and ``Lambda`` are
    ``nan`` when undefined (negative coupling for the band quantities,
    ``omega_sq < a_sq`` for the lower edge).
    """

    n: int
    omega0: float
    C: float
    m: float
    omega_sq: float
    a_sq: float
    lambda_pp: float
    lambda_pm: float
    q: float
    Lambda: float

    @property
    def band_defined(self) -> bool:
        """True when both band edges are real (C >= 0 and omega_sq >= a_sq)."""
        return math.isfinite(self.lambda_pm) and math.isfinite(self.lambda_pp)

    @property
    def fine_step(self) -> float:
        """Coarsest time step that resolves the band, 1/(20 lambda_pp).

        The Bessel route, the forward transform and the two-time response
        solve refuse a coarser step (:func:`_check_step`).  When the band is
        not real, 1/(20 omega).
        """
        top = self.lambda_pp if self.band_defined else math.sqrt(self.omega_sq)
        return 1.0 / (20.0 * top)


def _check_step(step: float, params: ModelParams, name: str) -> None:
    """Refuse with AccuracyError a step coarser than ``params.fine_step``."""
    limit = params.fine_step
    if step > limit * (1.0 + 1e-12):
        raise AccuracyError(f"{name}={step:.3g} coarser than the "
                            f"band-resolving step fine_step={limit:.3g}")


def derive_params(n: int, omega0: float, C: float, m: float) -> ModelParams:
    """Validate raw inputs and populate all derived fields.

    Parameters
    ----------
    n : int
        Degree of the regular interaction graph, n >= 2.
    omega0 : float
        Bare oscillator frequency, > 0.
    C : float
        Spring constant of every edge.  May be negative down to the
        positivity bound -m*omega0^2/n (exclusive).
    m : float
        Oscillator mass, > 0.

    Raises
    ------
    DomainError
        On non-finite inputs, out-of-range n/omega0/m, C at or below the
        positivity bound, or inputs whose derived quantities overflow.
    """
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"degree n must be an integer, got {n!r}")
    n = int(n)
    for name, val in (("omega0", omega0), ("C", C), ("m", m)):
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val!r}")
    if n < 2:
        raise DomainError(f"degree n must be >= 2, got {n}")
    if omega0 <= 0:
        raise DomainError(f"omega0 must be > 0, got {omega0}")
    if m <= 0:
        raise DomainError(f"mass m must be > 0, got {m}")
    # Finite inputs can still overflow a derived quantity: a power raises
    # OverflowError, a product or a sum goes to inf.  nan marks a quantity
    # the band leaves undefined.
    try:
        bound = -m * omega0**2 / n
        if C <= bound:
            raise DomainError(_POSITIVITY_MSG.format(C=C, bound=bound))
        omega_sq = omega0**2 + n * C / m
        if C >= 0:
            a_sq = math.sqrt(8.0 * (n - 1)) * C / m
            lambda_pp = math.sqrt(omega_sq + a_sq)
            if omega_sq >= a_sq:
                lambda_pm = math.sqrt(omega_sq - a_sq)
                q = lambda_pm / lambda_pp
            else:
                lambda_pm = math.nan
                q = math.nan
            Lambda = m * lambda_pp**3 / math.pi
        else:
            # Negative coupling is allowed only for existence scans; the band
            # structure is undefined there.
            a_sq = lambda_pp = lambda_pm = q = Lambda = math.nan
        # C^4: the highest power of C any evaluator takes (the variance gain);
        # omega_sq^2: the fixed point's (lambda^2 + omega^2)^2 at lambda = 0.
        derived = (omega_sq, a_sq, lambda_pp, lambda_pm, q, Lambda,
                   float(C)**4, omega_sq**2)
    except OverflowError:
        derived = (math.inf,)
    if any(map(math.isinf, derived)):
        raise DomainError(f"a derived quantity overflows at n={n}, "
                          f"{omega0=}, {C=}, {m=}")
    return ModelParams(n=n, omega0=float(omega0), C=float(C), m=float(m),
                       omega_sq=omega_sq, a_sq=a_sq, lambda_pp=lambda_pp,
                       lambda_pm=lambda_pm, q=q, Lambda=Lambda)


def critical_coupling(n: int, omega0: float, m: float) -> float | None:
    """Coupling above which the uniform fixed point fails at small lambda.

    Returns ``m*omega0^2 / (sqrt(8(n-1)) - n)`` when that denominator is
    positive (n <= 6), otherwise ``None``: the fixed point then exists for
    every C >= 0 at every lambda.
    """
    if n < 2:
        raise DomainError(f"degree n must be >= 2, got {n}")
    denom = math.sqrt(8.0 * (n - 1)) - n
    if denom <= 0:
        return None
    return m * omega0**2 / denom


def lambda_star(params: ModelParams) -> float | None:
    """Onset frequency of the dynamically disordered regime.

    For supercritical coupling the fixed point exists only for
    ``lambda > omega0*sqrt(C/C* - 1)``.  Returns ``None`` when the fixed
    point exists for all lambda (C <= C*, or no finite C* at this degree).
    """
    c_star = critical_coupling(params.n, params.omega0, params.m)
    if c_star is None or params.C <= c_star:
        return None
    return params.omega0 * math.sqrt(params.C / c_star - 1.0)


def _check_lambda(lam) -> np.ndarray:
    """``lam`` as a float array; DomainError unless every entry is finite and >= 0."""
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam >= 0) & (lam < np.inf)):   # nan fails both
        raise DomainError("lambda must be finite and >= 0")
    return lam


def fixed_point_exists(params: ModelParams, lam) -> bool | np.ndarray:
    """Whether the uniform kernel fixed point exists at Laplace frequency lam.

    Evaluates the square-root argument ``1 - 8(n-1)C^2 / (m^2 (lam^2 +
    omega^2)^2) >= 0`` directly; the closed-form critical coupling is never
    consulted here.  Accepts scalar or array ``lam >= 0``.
    """
    arg = sqrt_argument(params, lam)
    out = arg >= 0.0
    return bool(out) if out.ndim == 0 else out


def _sqrt_terms(params: ModelParams, lam):
    """``(s, u)``, s = lam^2 + omega^2 and u = 8(n-1)C^2/(m^2 s^2) = 1 - the
    square-root argument; DomainError where s^2 is not finite."""
    lam = np.asarray(lam, dtype=float)
    with np.errstate(over="ignore"):   # an overflow is refused below
        s = lam * lam + params.omega_sq
        s_sq = s * s
    if not np.all(np.isfinite(s_sq)):
        raise DomainError("(lambda^2 + omega^2)^2 is not finite at the "
                          "requested lambda")
    return s, 8.0 * (params.n - 1) * params.C**2 / (params.m**2 * s_sq)


def sqrt_argument(params: ModelParams, lam) -> np.ndarray:
    """Argument of the fixed-point square root, 1 - 8(n-1)C^2/(m^2(lam^2+w^2)^2).

    Raises :class:`DomainError` unless every lambda is finite and >= 0.
    """
    return 1.0 - _sqrt_terms(params, _check_lambda(lam))[1]
