"""Physical parameters of a uniform harmonic network and derived quantities.

A network of mass-``m`` oscillators with bare frequency ``omega0`` sits on a
regular graph of degree ``n``; every edge carries the same spring constant
``C``.  All other modules consume the derived quantities collected in
:class:`ModelParams`: the effective squared frequency ``omega_sq``, the band
half-width ``a_sq`` of the equivalent environment, the band edges
``lambda_pm <= lambda_pp``, their ratio ``q`` and the time-domain kernel
amplitude ``Lambda``.  A scalar lambda is a grid of one: squares are taken
by multiplication, so a point returns exactly the grid's float at that point.

Each rule on outside input has one owner here, which every evaluator calls:
:class:`ModelParams` itself for the network's four inputs; :func:`_laplace_s`
for lambda, the one place lambda^2 + omega^2 is formed;
:func:`_check_step` for a time step; :func:`_check_uniform` for a time grid;
:func:`_check_finite` for any frequency to be finite; :func:`_band` for
whether a spectral route has a band to work on.

Units: frequencies in rad/time, couplings in mass/time^2, hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DomainError, ShapeError

# The total potential must stay positive definite: C > -m omega0^2 / n.
_POSITIVITY_MSG = "coupling C={C} violates the positivity bound C > -m*omega0^2/n = {bound}"


@dataclass(frozen=True)
class ModelParams:
    """Network parameters plus every derived spectral quantity.

    Takes four finite inputs: the degree n, an integer >= 2; the bare
    frequency omega0 > 0; the edge coupling C, which may be negative down to
    the positivity bound -m*omega0^2/n (exclusive); the mass m > 0.  Raises
    DomainError on any other, and where a derived quantity overflows.  The
    rest is derived, so ``dataclasses.replace`` re-derives and re-validates.
    Fields ``a_sq``, ``lambda_pp``, ``lambda_pm``, ``q`` and ``Lambda`` are
    ``nan`` when undefined (negative coupling for the band quantities,
    ``omega_sq < a_sq`` for the lower edge).
    """

    n: int
    omega0: float
    C: float
    m: float
    omega_sq: float = field(init=False)
    a_sq: float = field(init=False)
    lambda_pp: float = field(init=False)
    lambda_pm: float = field(init=False)
    q: float = field(init=False)
    Lambda: float = field(init=False)

    def __post_init__(self):
        n, omega0, C, m = self.n, self.omega0, self.C, self.m
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
                    lambda_pm = q = math.nan
                Lambda = m * lambda_pp**3 / math.pi
            else:
                # Negative coupling is allowed only for existence scans; the
                # band structure is undefined there.
                a_sq = lambda_pp = lambda_pm = q = Lambda = math.nan
            # C^4: the highest power of C any evaluator takes (the variance
            # gain); omega_sq^2: the fixed point's (lambda^2 + omega^2)^2 at
            # lambda = 0.
            derived = (omega_sq, a_sq, lambda_pp, lambda_pm, q, Lambda,
                       float(C)**4, omega_sq**2)
        except OverflowError:
            derived = (math.inf,)
        if any(map(math.isinf, derived)):
            raise DomainError(f"a derived quantity overflows at n={n}, "
                              f"{omega0=}, {C=}, {m=}")
        values = (n, float(omega0), float(C), float(m)) + derived[:6]
        # every field in order, written past the frozen __setattr__
        self.__dict__.update(zip(self.__dataclass_fields__, values))

    @property
    def band_defined(self) -> bool:
        """True when both band edges are real (C >= 0 and omega_sq >= a_sq)."""
        return math.isfinite(self.lambda_pm) and math.isfinite(self.lambda_pp)

    @property
    def fine_step(self) -> float:
        """Coarsest time step that resolves the band, 1/(20 lambda_pp).

        The Bessel route, the forward transform, the two-time response
        solve and its backward cross-check refuse a coarser step
        (:func:`_check_step`).  When the band is not real, 1/(20 omega).
        """
        top = self.lambda_pp if self.band_defined else math.sqrt(self.omega_sq)
        return 1.0 / (20.0 * top)


def _check_step(step: float, params: ModelParams | None, name: str) -> None:
    """Refuse a step that is not positive and finite with DomainError, and one
    coarser than ``params.fine_step`` with AccuracyError.  Without ``params``,
    for a grid with no band to resolve, only the first rule applies."""
    if not 0.0 < step < math.inf:   # nan fails both
        raise DomainError(f"{name}={step:.3g} must be positive and finite")
    if params is None:
        return
    limit = params.fine_step
    if step > limit * (1.0 + 1e-12):
        raise AccuracyError(f"{name}={step:.3g} coarser than the "
                            f"band-resolving step fine_step={limit:.3g}")


def derive_params(n: int, omega0: float, C: float, m: float) -> ModelParams:
    """``ModelParams(n, omega0, C, m)``: the inputs checked, the rest derived."""
    return ModelParams(n, omega0, C, m)


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


def _check_uniform(grid: np.ndarray, name: str) -> float:
    """The step of a grid, 0 for one point; ShapeError unless the grid is
    uniform (to 1e-9 relative) and increasing by a finite step."""
    with np.errstate(invalid="ignore"):   # inf - inf: a nan step, refused
        steps = np.diff(grid)
    if not ((steps > 0) & (steps < np.inf)).all() or not np.allclose(
            steps, steps[:1], rtol=1e-9, atol=0.0):
        raise ShapeError(f"{name} grid must be uniform and increasing by a finite step")
    return float(steps[0]) if steps.size else 0.0


def _check_finite(x, name: str) -> np.ndarray:
    """``x`` as a float array; DomainError unless every entry is finite."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError(f"{name} must be finite")
    return x


def _laplace_s(params: ModelParams, lam) -> np.ndarray:
    """``s = lam^2 + omega^2``; DomainError unless every lambda is >= 0 and
    every s finite, which a lambda that is not finite never gives."""
    lam = np.asarray(lam, dtype=float)
    with np.errstate(over="ignore"):   # an overflow is refused below
        s = lam * lam + params.omega_sq
    # the ndarray methods: np.all and np.any cost microseconds on a point
    if not ((lam >= 0) & (s < np.inf)).all():   # nan fails both
        raise DomainError("lambda must be finite and >= 0, with "
                          "lambda^2 + omega^2 finite")
    return s


def _band(params: ModelParams) -> bool:
    """The band rule of every spectral route: False for a decoupled network
    (C = 0), where every kernel and density is exactly 0; True where both
    band edges are real; otherwise DomainError, carrying lambda*."""
    if params.C == 0:
        return False
    if not params.band_defined:
        raise DomainError("band edges are not real at these parameters: "
                          "they need C >= 0 and omega^2 >= a^2",
                          lambda_star=lambda_star(params))
    return True


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
    square-root argument; DomainError also where s^2 is not finite."""
    s = _laplace_s(params, lam)
    with np.errstate(over="ignore"):   # an overflow is refused below
        s_sq = s * s
    if not np.isfinite(s_sq).all():
        raise DomainError("(lambda^2 + omega^2)^2 is not finite at the "
                          "requested lambda")
    return s, 8.0 * (params.n - 1) * params.C**2 / (params.m**2 * s_sq)


def sqrt_argument(params: ModelParams, lam) -> np.ndarray:
    """Argument of the fixed-point square root, 1 - 8(n-1)C^2/(m^2(lam^2+w^2)^2).

    Raises :class:`DomainError` unless every lambda is finite and >= 0.
    """
    return 1.0 - _sqrt_terms(params, lam)[1]
