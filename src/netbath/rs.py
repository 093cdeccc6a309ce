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
Anderson and of Mezard & Parisi, run as one vectorised sweep for every
disorder law.

Each round of a sweep draws the degrees of all its slots, then their sample
indices in cache-sized blocks of slots, row by row, then their couplings:
the order of one draw over the whole round, so each seed keeps its pool bit
for bit.  A slot's k-1 samples are added in draw order below 8 terms and by
numpy's pairwise row sum from 8 terms on, exactly as numpy sums a row of
that length.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AccuracyError, DomainError, ShapeError, _check_bytes
from .laplace import _edge_update, closed_form_fixed_point, g0_laplace
from .model import ModelParams

#: Smallest pool giving usable variance estimates.
MIN_POOL = 1000


def variance_gain(params: ModelParams, lam: float) -> float:
    """Variance-propagation factor of the delta solution at this lambda.

    Evaluates both closed forms and insists they agree to 1e-12 relative,
    raising :class:`~netbath.errors.AccuracyError` where they do not;
    raises :class:`~netbath.errors.DomainError` where the fixed point does
    not exist.
    """
    k_star = closed_form_fixed_point(params, lam)
    g0 = g0_laplace(params, lam)
    if params.C == 0:
        return 0.0
    n = params.n
    response = g0 / (1.0 - g0 * k_star)
    # Both forms are first taken as the module docstring writes them, so
    # that every gain they agree on keeps its bits.  A fourth power of C, k*
    # or the response alone can leave the float range where the gain does
    # not (C past about 1e76 or below 1e-81, a large lambda); there both are
    # taken again in powers of k*/C and of C times the response.
    try:
        direct = (n - 1) / 4.0 * params.C**4 * response**4
        algebraic = 4.0 * k_star**4 / ((n - 1) ** 3 * params.C**4)
    except ArithmeticError:    # k*^4 overflows, or C^4 underflows to zero
        direct = algebraic = math.nan
    if not _agree(direct, algebraic):
        direct = (n - 1) / 4.0 * (params.C * response) ** 4
        algebraic = 4.0 * (k_star / params.C) ** 4 / (n - 1) ** 3
    # A subnormal gain holds too few bits for 1e-12.  The forms agree
    # exactly when k* = (n-1)(C^2/2) response, so there the check is made on
    # fourth roots of the gain, normal numbers, at a quarter of the tolerance.
    if not (_agree(direct, algebraic)
            or max(abs(direct), abs(algebraic)) < np.finfo(float).tiny
            and _agree(k_star / params.C, (n - 1) * params.C * response / 2.0,
                       rtol=2.5e-13)):
        raise AccuracyError(
            f"variance-gain forms disagree: {direct!r} vs {algebraic!r}")
    return direct


def _agree(a: float, b: float, rtol: float = 1e-12) -> bool:
    """Both finite and equal to ``rtol`` relative."""
    return math.isfinite(a) and math.isfinite(b) and \
        abs(a - b) <= rtol * max(abs(a), abs(b))


#: The number of values of every disorder law, by quantity and tag.
_LAWS = {"coupling": {"constant": 1, "uniform": 2, "two_point": 3},
         "degree": {"constant": 1, "two_point": 3}}


def _check_law(what: str, law) -> None:
    """Refuse, with ShapeError, a law the population cannot draw."""
    arity = _LAWS[what]
    if not (isinstance(law, (tuple, list)) and law and isinstance(law[0], str)
            and len(law) == 1 + arity.get(law[0], -1)):
        raise ShapeError(f"unknown {what} disorder {law!r}: values per law {arity}")
    tag, *values = law
    p = values.pop() if tag == "two_point" else 0.0
    if tag == "constant" and values[0] is None:
        return
    ok = all(isinstance(x, numbers.Real) and not isinstance(x, bool)
             and math.isfinite(x) for x in values + [p])
    if what == "degree":
        ok = ok and all(isinstance(k, numbers.Integral) and k >= 1 for k in values)
    if not (ok and 0 <= p <= 1 and (tag != "uniform" or values[0] <= values[1])):
        raise ShapeError(f"{what} disorder {law!r} cannot be drawn: values must be finite, "
                         "p in [0, 1], lo <= hi and degrees integers >= 1")


@dataclass(frozen=True)
class DisorderSpec:
    """Coupling and degree disorder for the population update.

    ``coupling``: ("constant", C) | ("uniform", lo, hi) | ("two_point", a, b, p)
    ``degree``:   ("constant", n) | ("two_point", k1, k2, p)
    where p is the probability of the first alternative and a constant of
    None takes the model's value.  Construction refuses, with ShapeError, an
    unknown law, the wrong number of values, a value that is not finite, p
    outside [0, 1], lo > hi and a degree that is not an integer >= 1.
    """

    coupling: tuple = ("constant", None)
    degree: tuple = ("constant", None)

    def __post_init__(self):
        _check_law("coupling", self.coupling)
        _check_law("degree", self.degree)

    def draw_coupling(self, rng: np.random.Generator, default: float,
                      size: int):
        """``size`` edge couplings; a scalar when the law is constant."""
        return _draw(self.coupling, rng, default, size)

    def draw_degree(self, rng: np.random.Generator, default: int, size: int):
        """``size`` node degrees; a scalar when the law is constant."""
        return _draw(self.degree, rng, default, size)


def _draw(law: tuple, rng: np.random.Generator, default, size: int):
    """``size`` draws of a checked law; its value, or ``default`` for None,
    when it is constant."""
    tag, *values = law
    if tag == "constant":
        return default if values[0] is None else values[0]
    if tag == "uniform":
        return rng.uniform(*values, size)
    a, b, p = values
    return np.where(rng.random(size) < p, a, b)


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
    Raises :class:`SizeError`, before the pool is allocated, when a sweep of
    it at the largest degree the disorder allows would hold more than
    ``BYTE_CAP`` bytes.
    """
    disorder = disorder or DisorderSpec()
    degrees = disorder.degree[1:3]      # the law's degrees, or (None,)
    width = max((params.n if degrees[0] is None else max(degrees)) - 1, 0)
    # Above the tracemalloc peaks of a pool and its sweep at k-1 = 3 and 11:
    # per slot, 72 bytes for the pools and the slot-long temporaries of the
    # degree and coupling draws and the edge update, which peaked at 41.0 (no
    # disorder) to 65.0 bytes (both laws) at 10^5 and 10^6 slots; and 25 per
    # entry of one block of (slots x k-1) int64 indices, float draws and bool
    # mask, which peaked at 24.0 with the draws of the block before held.
    _check_bytes(72 * size + 25 * _BLOCK * width,
                 f"population pool of {size} samples and its sweep")
    k_branch = closed_form_fixed_point(params, lam) / (params.n - 1)
    rng = np.random.default_rng(seed)
    if sigma > 0:    # in place: the bits of k_branch + sigma * z
        samples = rng.standard_normal(size)
        samples *= sigma
        samples += k_branch
    else:
        samples = np.full(size, k_branch)
    return Population(samples=samples, lam=lam, params=params, seed=seed,
                      disorder=disorder, rng=rng)


#: Slots per block of the aggregate step, whose index draw, gather and sum
#: then stay in cache.  At 10^6 slots the step took 29-42 ms at k-1 = 3 and
#: 135-159 ms at k-1 = 11 for every block from 2^11 to 2^16 slots, against
#: 46-58 and 175-223 ms as one block (best of 9, one pinned CPU of a shared
#: host); 2^14 is the middle of that flat range.
_BLOCK = 1 << 14


def _aggregate(rng: np.random.Generator, source: np.ndarray, degree,
               count: int) -> np.ndarray:
    """Per slot, the sum of k-1 samples drawn uniformly from ``source``.

    Each block of ``_BLOCK`` slots draws its (slots x k-1) indices row by
    row, so the blocks draw the stream of one (count x k-1) draw, gathers
    them, zeroes the draws past each slot's own k-1 and sums its rows into
    its part of the total: column by column below 8 terms, which is
    numpy's row sum of so few terms, and by numpy, pairwise, from 8 on.
    """
    width = max(int(np.max(degree)) - 1, 0)
    total = np.empty(count)
    columns = np.arange(width)
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        drawn = source[rng.integers(0, source.size, size=(hi - lo, width))]
        if np.ndim(degree):
            drawn[columns >= degree[lo:hi, None] - 1] = 0.0
        out = total[lo:hi]
        if 0 < width < 8:
            out[:] = drawn[:, 0]
            for j in range(1, width):
                out += drawn[:, j]
        else:
            drawn.sum(axis=1, out=out)
    return total


def population_step(pop: Population) -> Population:
    """One generational sweep: every slot of a new pool drawn from the old one.

    Per slot: draw a degree k, sum k-1 samples drawn uniformly from the
    previous generation, draw a coupling and apply the edge update.  A round
    draws the degrees of all its slots, then their indices block by block
    (:func:`_aggregate`), then their couplings: the order of one whole-round
    draw, so each seed keeps its pool.  The k-1 terms of a slot are added in
    draw order below 8 terms and by numpy's pairwise row sum from 8 on.
    Slots that hit the edge-update pole are redrawn in further rounds, up to
    ``100 * size`` rejections in total.  The linearized variance contracts
    by :func:`variance_gain` per sweep.  Deterministic for a given seed.
    """
    rng, disorder = pop.rng, pop.disorder
    source = pop.samples
    size = source.size
    g0 = g0_laplace(pop.params, pop.lam)
    new = todo = None   # the first round fills every slot in order
    count, rejected = size, 0
    while count:
        degree = disorder.draw_degree(rng, pop.params.n, count)
        total = _aggregate(rng, source, degree, count)
        c_edge = disorder.draw_coupling(rng, pop.params.C, count)
        values, poles = _edge_update(total, g0, c_edge**2 / 2.0)
        if todo is None:
            new, todo = values, np.flatnonzero(poles)
        else:
            new[todo] = values
            todo = todo[poles]
        count = todo.size
        rejected += count
        if rejected > 100 * size:
            raise DomainError("population sweep kept hitting the edge-update pole")
    return replace(pop, samples=new, sweeps=pop.sweeps + 1,
                   rejected=pop.rejected + rejected)


def population_stats(pop: Population, bins: int = 50):
    """(mean, variance, histogram) of the pool; histogram is (counts, edges).

    A pool whose spread is too narrow to hold ``bins`` distinct bin edges is
    binned as numpy bins a constant pool, on ``[min - 0.5, max + 0.5]``, or,
    where 0.5 is below the samples' resolution (past about 4.5e15), with
    ``4 * bins`` of their ULPs on each side.
    """
    mean = float(np.mean(pop.samples))
    var = float(np.var(pop.samples))
    lo, hi = float(np.min(pop.samples)), float(np.max(pop.samples))
    ulp = float(np.spacing(max(abs(lo), abs(hi))))
    for pad in (0.0, 0.5, 4.0 * bins * ulp):
        span = (lo - pad, hi + pad)
        if np.all(np.diff(np.linspace(*span, bins + 1)) > 0):
            break
    counts, edges = np.histogram(pop.samples, bins=bins, range=span)
    return mean, var, (counts, edges)

