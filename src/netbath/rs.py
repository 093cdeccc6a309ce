"""Replica-symmetric analysis: stability gain and population dynamics.

On the distributional level the cavity equations act on the law P of the
single-branch kernel at a fixed Laplace frequency: draw the neighbourhood
size, sum that many independent samples (aggregate step), push the sum
through the single-edge update with a coupling drawn from the disorder law
(edge step).  A delta distribution at the uniform fixed point is a solution;
its linear stability is governed by the variance gain

    g = ((n-1)/4) C^4 [G0/(1 - G0 k0)]^4,   k0 = aggregate fixed point,

algebraically equal to ``4 k*^4 / ((n-1)^3 C^4)``, with contraction iff
g < 1.

The population pool carries single-branch (m-type) samples.  A sweep is
generational: every slot of the new pool is refilled from draws over the old
pool, so the empirical variance contracts per sweep by the factor g in the
linear regime.  An in-place variant that overwrites one uniformly chosen
member per elementary update is available as ``mode="overwrite"``; its
per-sweep contraction mixes generations (roughly exp(-(1-g))) and is kept
for diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, ShapeError, SingularTransformError
from .laplace import (closed_form_fixed_point, detect_near_cycle, g0_laplace,
                      iterate_fixed_point, uniform_map)
from .model import ModelParams, fixed_point_exists

#: Smallest pool giving usable variance estimates.
MIN_POOL = 1000


def variance_gain(params: ModelParams, lam: float) -> float:
    """Variance-propagation factor of the delta solution at this lambda.

    Evaluates both closed forms and insists they agree to 1e-12 relative;
    raises :class:`~netbath.errors.DomainError` where the fixed point does
    not exist.
    """
    if not fixed_point_exists(params, lam):
        raise DomainError("no fixed point at this lambda")
    k_star = closed_form_fixed_point(params, lam)
    g0 = g0_laplace(params, lam)
    n = params.n
    direct = (n - 1) / 4.0 * params.C**4 * (g0 / (1.0 - g0 * k_star)) ** 4
    if params.C == 0:
        return 0.0
    algebraic = 4.0 * k_star**4 / ((n - 1) ** 3 * params.C**4)
    if abs(direct - algebraic) > 1e-12 * max(abs(direct), abs(algebraic)):
        raise AssertionError(
            f"variance-gain forms disagree: {direct!r} vs {algebraic!r}")
    return direct


@dataclass(frozen=True)
class DisorderSpec:
    """Coupling and degree disorder for the population update.

    ``coupling``: ("constant", C) | ("uniform", lo, hi) | ("two_point", a, b, p)
    ``degree``:   ("constant", n) | ("two_point", k1, k2, p)
    where p is the probability of the first alternative.
    """

    coupling: tuple = ("constant", None)
    degree: tuple = ("constant", None)

    def draw_coupling(self, rng: np.random.Generator, default: float) -> float:
        kind = self.coupling[0]
        if kind == "constant":
            c = self.coupling[1]
            return default if c is None else c
        if kind == "uniform":
            return rng.uniform(self.coupling[1], self.coupling[2])
        if kind == "two_point":
            a, b, p = self.coupling[1:]
            return a if rng.random() < p else b
        raise ShapeError(f"unknown coupling disorder {kind!r}")

    def draw_degree(self, rng: np.random.Generator, default: int) -> int:
        kind = self.degree[0]
        if kind == "constant":
            k = self.degree[1]
            return default if k is None else int(k)
        if kind == "two_point":
            k1, k2, p = self.degree[1:]
            return int(k1) if rng.random() < p else int(k2)
        raise ShapeError(f"unknown degree disorder {kind!r}")


@dataclass
class Population:
    """Pool of single-branch kernel samples at one Laplace frequency."""

    samples: np.ndarray
    lam: float
    params: ModelParams
    seed: int
    disorder: DisorderSpec = field(default_factory=DisorderSpec)
    rng: np.random.Generator = None
    sweeps: int = 0
    rejected: int = 0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.size < MIN_POOL:
            raise ShapeError(f"pool size {self.samples.size} below minimum {MIN_POOL}")
        if not np.all(np.isfinite(self.samples)):
            raise ShapeError("pool samples must be finite")
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)


def population_init(params: ModelParams, lam: float, size: int = 10000,
                    seed: int = 0, sigma: float = 0.0,
                    disorder: DisorderSpec | None = None) -> Population:
    """Pool initialized at the single-branch fixed point k*/(n-1).

    ``sigma`` adds a Gaussian perturbation (absolute scale) to every sample.
    """
    k_branch = closed_form_fixed_point(params, lam) / (params.n - 1)
    rng = np.random.default_rng(seed)
    samples = np.full(size, k_branch)
    if sigma > 0:
        samples = samples + sigma * rng.standard_normal(size)
    return Population(samples=samples, lam=lam, params=params, seed=seed,
                      disorder=disorder or DisorderSpec(), rng=rng)


def _one_update(pool: np.ndarray, pop: Population, rng: np.random.Generator,
                max_retries: int = 100):
    """Draw degree, aggregate k-1 samples, apply the edge update."""
    g0 = g0_laplace(pop.params, pop.lam)
    rejected = 0
    for _ in range(max_retries):
        k_deg = pop.disorder.draw_degree(rng, pop.params.n)
        idx = rng.integers(0, pool.size, size=max(k_deg - 1, 0))
        total = float(pool[idx].sum())
        c_edge = pop.disorder.draw_coupling(rng, pop.params.C)
        prod = g0 * total
        denom = 1.0 - prod
        if abs(denom) < 1e-14 * max(1.0, abs(prod)):
            rejected += 1
            continue
        return (c_edge**2 / 2.0) * g0 / denom, rejected
    raise DomainError("population update kept hitting the edge-update pole")


def _sweep_generational_uniform(pop: Population, rng: np.random.Generator):
    """Vectorized sweep: constant degree and coupling, whole pool refilled."""
    size = pop.samples.size
    g0 = g0_laplace(pop.params, pop.lam)
    c_edge = pop.disorder.coupling[1]
    c_edge = pop.params.C if c_edge is None else c_edge
    k_deg = pop.disorder.degree[1]
    k_deg = pop.params.n if k_deg is None else int(k_deg)
    source = pop.samples
    idx = rng.integers(0, size, size=(size, max(k_deg - 1, 0)))
    total = source[idx].sum(axis=1)
    prod = g0 * total
    denom = 1.0 - prod
    bad = np.abs(denom) < 1e-14 * np.maximum(1.0, np.abs(prod))
    rejected = 0
    while np.any(bad):
        redraw = np.flatnonzero(bad)
        rejected += redraw.size
        idx = rng.integers(0, size, size=(redraw.size, max(k_deg - 1, 0)))
        total[redraw] = source[idx].sum(axis=1)
        prod = g0 * total
        denom = 1.0 - prod
        bad = np.abs(denom) < 1e-14 * np.maximum(1.0, np.abs(prod))
        if rejected > 100 * size:
            raise DomainError("population sweep kept hitting the edge-update pole")
    return (c_edge**2 / 2.0) * g0 / denom, rejected


def population_step(pop: Population, mode: str = "generational") -> Population:
    """One sweep of pool-size elementary updates.

    ``generational`` (default): every new-pool slot is refilled from draws
    over the previous generation; the linearized variance contracts by
    :func:`variance_gain` per sweep.  ``overwrite``: classic in-place
    variant, one uniformly chosen member replaced per elementary update; its
    per-sweep contraction mixes generations.  Deterministic for a given seed
    and sequential execution.
    """
    rng = pop.rng
    size = pop.samples.size
    rejected = pop.rejected
    uniform_spec = (pop.disorder.coupling[0] == "constant"
                    and pop.disorder.degree[0] == "constant")
    if mode == "generational" and uniform_spec:
        new, rej = _sweep_generational_uniform(pop, rng)
        rejected += rej
    elif mode == "generational":
        source = pop.samples.copy()
        new = np.empty_like(source)
        for i in range(size):
            new[i], rej = _one_update(source, pop, rng)
            rejected += rej
    elif mode == "overwrite":
        new = pop.samples.copy()
        for _ in range(size):
            value, rej = _one_update(new, pop, rng)
            rejected += rej
            new[rng.integers(0, size)] = value
    else:
        raise ShapeError(f"unknown sweep mode {mode!r}")
    return replace(pop, samples=new, sweeps=pop.sweeps + 1, rejected=rejected,
                   rng=rng)


def population_stats(pop: Population, bins: int = 50):
    """(mean, variance, histogram) of the pool; histogram is (counts, edges).

    A pool whose spread is too narrow to hold ``bins`` distinct bin edges is
    binned as numpy bins a constant pool, on ``[min - 0.5, max + 0.5]``.
    """
    mean = float(np.mean(pop.samples))
    var = float(np.var(pop.samples))
    lo, hi = float(np.min(pop.samples)), float(np.max(pop.samples))
    if np.all(np.diff(np.linspace(lo, hi, bins + 1)) > 0):
        span = (lo, hi)
    else:
        span = (lo - 0.5, hi + 0.5)
    counts, edges = np.histogram(pop.samples, bins=bins, range=span)
    return mean, var, (counts, edges)


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

    Converged orbits end at the fixed point; non-convergent bounded orbits
    are scanned for approximate recurrence.  The orbit is the dynamics under
    repeated application of the single-frequency cavity update; its failure
    to settle signals the dynamically disordered regime.
    """
    x = float(x0)
    orbit = [x]
    for _ in range(steps):
        try:
            x_next = uniform_map(x, params, lam)
        except SingularTransformError:
            return OrbitReport(classification="pole", final=x,
                               orbit=np.asarray(orbit),
                               diameter=float(np.ptp(orbit)))
        orbit.append(x_next)
        if abs(x_next - x) <= tol * max(1.0, abs(x)):
            return OrbitReport(classification="converged", final=x_next,
                               orbit=np.asarray(orbit),
                               diameter=float(np.ptp(orbit)))
        x = x_next
    orbit = np.asarray(orbit)
    window = orbit[-min(1024, orbit.size):]
    period, rec_err = detect_near_cycle(window)
    cls = "near-periodic" if period is not None and period > 1 else "wandering"
    return OrbitReport(classification=cls, final=float(orbit[-1]), orbit=orbit,
                       diameter=float(np.ptp(orbit)), period=period,
                       recurrence_error=rec_err)


def orbit_converges(params: ModelParams, lam: float, tol: float = 1e-12,
                    max_iter: int = 20000) -> bool:
    """Whether iteration from zero settles at this lambda (onset probe)."""
    return iterate_fixed_point(params, lam, tol=tol, max_iter=max_iter).converged
