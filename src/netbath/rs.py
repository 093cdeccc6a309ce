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
linear regime.  This is the population dynamics of Abou-Chacra, Thouless &
Anderson and of Mezard & Parisi, run as one vectorised draw per sweep for
every disorder law.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, ShapeError, _check_bytes
from .laplace import _edge_update, closed_form_fixed_point, g0_laplace
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

    def draw_coupling(self, rng: np.random.Generator, default: float,
                      size: int):
        """``size`` edge couplings; a scalar when the law is constant."""
        kind = self.coupling[0]
        if kind == "constant":
            c = self.coupling[1]
            return default if c is None else c
        if kind == "uniform":
            return rng.uniform(self.coupling[1], self.coupling[2], size)
        if kind == "two_point":
            a, b, p = self.coupling[1:]
            return np.where(rng.random(size) < p, a, b)
        raise ShapeError(f"unknown coupling disorder {kind!r}")

    def draw_degree(self, rng: np.random.Generator, default: int, size: int):
        """``size`` node degrees; a scalar int when the law is constant."""
        kind = self.degree[0]
        if kind == "constant":
            k = self.degree[1]
            return default if k is None else int(k)
        if kind == "two_point":
            k1, k2, p = self.degree[1:]
            return np.where(rng.random(size) < p, int(k1), int(k2))
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
    _check_bytes(8 * size, f"population pool of {size} samples")
    k_branch = closed_form_fixed_point(params, lam) / (params.n - 1)
    rng = np.random.default_rng(seed)
    samples = np.full(size, k_branch)
    if sigma > 0:
        samples = samples + sigma * rng.standard_normal(size)
    return Population(samples=samples, lam=lam, params=params, seed=seed,
                      disorder=disorder or DisorderSpec(), rng=rng)


def population_step(pop: Population) -> Population:
    """One generational sweep: every slot of a new pool drawn from the old one.

    Per slot: draw a degree k, sum k-1 samples drawn uniformly from the
    previous generation, draw a coupling and apply the edge update.  All
    slots are drawn at once as vectors; slots that hit the edge-update pole
    are redrawn, up to ``100 * size`` rejections in total.  The linearized
    variance contracts by :func:`variance_gain` per sweep.  Deterministic
    for a given seed.
    """
    rng, disorder = pop.rng, pop.disorder
    source = pop.samples
    size = source.size
    g0 = g0_laplace(pop.params, pop.lam)
    new = np.empty(size)
    todo = np.arange(size)
    rejected = 0
    while todo.size:
        degree = disorder.draw_degree(rng, pop.params.n, todo.size)
        width = max(int(np.max(degree)) - 1, 0)
        drawn = source[rng.integers(0, size, size=(todo.size, width))]
        if np.ndim(degree):
            drawn[np.arange(width) >= degree[:, None] - 1] = 0.0
        total = drawn.sum(axis=1)
        del drawn   # the (slots, k-1) draws are the sweep's largest array
        c_edge = disorder.draw_coupling(rng, pop.params.C, todo.size)
        values, poles = _edge_update(total, g0, c_edge**2 / 2.0)
        new[todo] = values
        todo = todo[poles]
        rejected += todo.size
        if rejected > 100 * size:
            raise DomainError("population sweep kept hitting the edge-update pole")
    return replace(pop, samples=new, sweeps=pop.sweeps + 1,
                   rejected=pop.rejected + rejected)


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

