import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import netbath as nb
from netbath.errors import DomainError, ShapeError, SizeError
from netbath import rs
from netbath.rs import _BLOCK, MIN_POOL, DisorderSpec, Population


def test_variance_gain_identity(narrow_band, wide_band, lambda_grid):
    for p in (narrow_band, wide_band):
        for lam in lambda_grid[::7]:
            g = nb.variance_gain(p, lam)
            k = nb.closed_form_fixed_point(p, lam)
            alg = 4.0 * k**4 / ((p.n - 1) ** 3 * p.C**4)
            assert g == pytest.approx(alg, rel=1e-12)


def test_variance_gain_at_vanishing_root():
    c2 = nb.critical_coupling(2, 1.0, 1.0)
    p = nb.derive_params(2, 1.0, 2.0 * c2, 1.0)
    l_star = nb.lambda_star(p)
    g = nb.variance_gain(p, l_star * (1.0 + 1e-9))
    # where the square root vanishes, g = 1/(n-1)
    assert g == pytest.approx(1.0 / (p.n - 1), rel=1e-4)
    with pytest.raises(DomainError):
        nb.variance_gain(p, 0.5 * l_star)


def test_variance_gain_small_coupling_quartic():
    n = 4
    base = nb.critical_coupling(2, 1.0, 1.0)   # scale reference only
    lam = 0.7
    c_small = 1e-3 * base
    p1 = nb.derive_params(n, 1.0, c_small, 1.0)
    p2 = nb.derive_params(n, 1.0, 2.0 * c_small, 1.0)
    g1 = nb.variance_gain(p1, lam)
    g2 = nb.variance_gain(p2, lam)
    # C^4 scaling up to the O(nC/m) shift of omega^2 relative to omega0^2
    assert g2 / g1 == pytest.approx(16.0, rel=2e-2)
    expect = 4.0 * (n - 1) * c_small**4 / (lam**2 + 1.0) ** 4
    assert g1 == pytest.approx(expect, rel=2e-2)
    p0 = nb.derive_params(n, 1.0, 0.0, 1.0)
    assert nb.variance_gain(p0, lam) == 0.0


def test_variance_gain_across_the_float_range():
    # at lambda = 1 and omega0 = 10 the gain tends to a constant as C grows;
    # past C of about 1e76 C^4 or k*^4 alone leaves the float range, and
    # the gain is taken in powers of k*/C and C times the response
    gains = [nb.variance_gain(nb.derive_params(10, 10.0, c, 0.5), 1.0)
             for c in (1e20, 1e55, 5e76, 1e77)]
    assert gains == pytest.approx([gains[0]] * 4, rel=1e-12)
    # a gain the direct product holds keeps its bits
    p = nb.derive_params(10, 10.0, 1.0, 0.5)
    assert nb.variance_gain(p, 1.0) == 2.7408649142339156e-06


def test_population_stats_far_past_half_a_unit(narrow_band):
    # a collapsed pool at 1e20 and beyond: 0.5 is below one ULP there, so
    # the constant pool's span is widened by ULPs instead
    for k in (1e20, 1e55, 1e76):
        pop = Population(samples=np.full(1000, k), lam=1.0,
                         params=narrow_band, seed=0)
        mean, var, (counts, edges) = nb.population_stats(pop)
        assert mean == pytest.approx(k, rel=1e-15) and var <= (1e-15 * k) ** 2
        assert counts.sum() == 1000
        assert np.all(np.diff(edges) > 0) and edges[0] < k < edges[-1]


def test_delta_pool_exactly_invariant(narrow_band):
    lam = 1.0
    pop = nb.population_init(narrow_band, lam, size=2000, seed=5)
    k_branch = nb.closed_form_fixed_point(narrow_band, lam) / (narrow_band.n - 1)
    stepped = nb.population_step(pop)
    assert np.max(np.abs(stepped.samples - k_branch)) <= 1e-14 * abs(k_branch)


def test_population_zero_coupling_collapses():
    p = nb.derive_params(3, 2.0, 0.5, 1.0)
    pop = nb.population_init(p, 1.0, size=1500, seed=9, sigma=1e-3,
                             disorder=DisorderSpec(coupling=("constant", 0.0)))
    stepped = nb.population_step(pop)
    assert np.all(stepped.samples == 0.0)


def test_population_contraction_matches_gain():
    n = 3
    c_star = nb.critical_coupling(n, 1.0, 1.0)
    p = nb.derive_params(n, 1.0, 0.1 * c_star, 1.0)
    lam = 1.0
    g = nb.variance_gain(p, lam)
    k_branch = nb.closed_form_fixed_point(p, lam) / (n - 1)
    pop = nb.population_init(p, lam, size=20000, seed=11,
                             sigma=0.01 * k_branch)
    v0 = np.var(pop.samples)
    pop = nb.population_step(pop)
    v1 = np.var(pop.samples)
    assert v1 / v0 == pytest.approx(g, rel=0.2)
    # variance after many sweeps collapses far below the initial perturbation
    # and the mean settles on the single-branch fixed point
    for _ in range(4):
        pop = nb.population_step(pop)
    assert np.var(pop.samples) < 1e-6 * v0
    mean, var, _ = nb.population_stats(pop)
    se = np.sqrt(var / pop.samples.size)
    assert abs(mean - k_branch) <= max(3.0 * se, 1e-12 * abs(k_branch))


def test_population_determinism(narrow_band):
    def run():
        pop = nb.population_init(narrow_band, 2.0, size=1200, seed=77,
                                 sigma=1e-4)
        for _ in range(3):
            pop = nb.population_step(pop)
        return pop.samples

    a, b = run(), run()
    assert np.array_equal(a, b)


def _sweep_by_rounds(pop):
    """The sweep population_step replaced: each round draws the degrees,
    then one (slots x k-1) index array, sums its rows with numpy and draws
    the couplings; slots at the pole go to the next round."""
    rng, disorder = pop.rng, pop.disorder
    source = pop.samples
    size = source.size
    g0 = nb.g0_laplace(pop.params, pop.lam)
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
        c_edge = disorder.draw_coupling(rng, pop.params.C, todo.size)
        prod = g0 * total
        denom = 1.0 - prod
        poles = np.abs(denom) < np.maximum(np.abs(prod), 1.0) * 1e-14
        new[todo] = (c_edge**2 / 2.0) * g0 / np.where(poles, np.nan, denom)
        todo = todo[poles]
        rejected += todo.size
    return new, rejected


@pytest.mark.parametrize("n", range(2, 21))
def test_population_sweep_matches_uniform_reference(n):
    p = nb.derive_params(n, 1.0, 0.02, 1.0)
    k_branch = nb.closed_form_fixed_point(p, 0.5) / (n - 1)
    pop = nb.population_init(p, 0.5, size=1000, seed=n, sigma=0.1 * k_branch)
    ref = nb.population_init(p, 0.5, size=1000, seed=n, sigma=0.1 * k_branch)
    for sweep in range(1, 4):
        pop = nb.population_step(pop)
        values, rejected = _sweep_by_rounds(ref)
        ref = replace(ref, samples=values, rejected=ref.rejected + rejected)
        assert pop.sweeps == sweep
        assert pop.samples.shape == ref.samples.shape
        assert np.array_equal(pop.samples, ref.samples)
        assert pop.rejected == ref.rejected


# degree laws whose widest slot sums 0 to 12 terms, across the 7/8 boundary
# where numpy's row sum turns pairwise, and both coupling laws
_ROUND_LAWS = [dict(degree=("two_point", 1, k, 0.4)) for k in range(1, 14)] + [
    dict(degree=("constant", 1)),
    dict(degree=("two_point", 8, 9, 0.5)),
    dict(coupling=("uniform", 0.01, 0.03)),
    dict(coupling=("two_point", 0.01, 0.03, 0.3)),
    dict(degree=("two_point", 3, 12, 0.5), coupling=("uniform", 0.01, 0.03)),
]


@pytest.mark.parametrize("law", _ROUND_LAWS,
                         ids=[str(list(law.values())) for law in _ROUND_LAWS])
@pytest.mark.parametrize("size", [MIN_POOL, 2 * _BLOCK + 7])
def test_population_sweep_matches_row_sum_reference(law, size):
    # the block walk keeps the stream and the sums of the whole-round draw
    p = nb.derive_params(5, 1.0, 0.02, 1.0)
    k_branch = nb.closed_form_fixed_point(p, 0.5) / (p.n - 1)
    spec = DisorderSpec(**law)
    pop, ref = (nb.population_init(p, 0.5, size=size, seed=size, sigma=0.1 * k_branch,
                                   disorder=spec) for _ in range(2))
    for _ in range(2):
        pop = nb.population_step(pop)
        values, rejected = _sweep_by_rounds(ref)
        ref = replace(ref, samples=values, rejected=ref.rejected + rejected)
        assert np.array_equal(pop.samples, ref.samples)
        assert pop.rejected == ref.rejected


@pytest.mark.parametrize("law", [dict(), dict(degree=("two_point", 2, 5, 0.5)),
                                 dict(coupling=("uniform", 0.5, 1.5))])
def test_population_redraw_rounds_match_row_sum_reference(narrow_band, law):
    # half the samples sit where n-1 of them sum to the pole 1/G0, so whole
    # slots are redrawn over several rounds
    lam = 1.0
    sample = 1.0 / (nb.g0_laplace(narrow_band, lam) * (narrow_band.n - 1))
    samples = np.full(3 * MIN_POOL, sample)
    samples[1::2] *= 0.9
    pop, ref = (Population(samples=samples, lam=lam, params=narrow_band, seed=0,
                           disorder=DisorderSpec(**law), rng=np.random.default_rng(4))
                for _ in range(2))
    stepped = nb.population_step(pop)
    values, rejected = _sweep_by_rounds(ref)
    assert rejected > 0
    assert np.array_equal(stepped.samples, values)
    assert stepped.rejected == rejected


@pytest.mark.parametrize("n", [4, 12])
@pytest.mark.parametrize("size", [MIN_POOL, 3 * _BLOCK])
def test_sweep_memory_within_its_charge(monkeypatch, n, size):
    # a pool and its first sweep, k-1 = 3 and 11, hold less than
    # population_init charges against the byte cap
    charged = []
    monkeypatch.setattr(rs, "_check_bytes", lambda need, what: charged.append(need))
    p = nb.derive_params(n, 1.0, 0.02, 1.0)
    tracemalloc.start()
    try:
        pop = nb.population_init(p, 0.5, size=size, seed=1, sigma=1e-4)
        nb.population_step(pop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and peak < charged[0]


def test_population_two_point_degree_from_delta_pool(narrow_band):
    # every slot sums either k1-1 or k2-1 copies of the fixed-point sample
    lam, size, frac = 2.0, 100000, 0.3
    spec = DisorderSpec(degree=("two_point", 3, 7, frac))
    pop = nb.population_init(narrow_band, lam, size=size, seed=8, disorder=spec)
    k_branch = pop.samples[0]
    stepped = nb.population_step(pop)
    low, high = (nb.vernon_imag(sum([k_branch] * (k - 1)), narrow_band,
                                narrow_band.C, lam) for k in (3, 7))
    values, counts = np.unique(stepped.samples, return_counts=True)
    assert values.tolist() == sorted([low, high])
    share = counts[values.tolist().index(low)] / size
    assert abs(share - frac) <= 4.0 * np.sqrt(frac * (1.0 - frac) / size)
    degrees = spec.draw_degree(np.random.default_rng(0), narrow_band.n, 50)
    assert degrees.shape == (50,) and set(degrees.tolist()) <= {3, 7}


def test_population_uniform_coupling_mean(narrow_band):
    lam, size, lo, hi = 2.0, 100000, 0.5, 1.5
    spec = DisorderSpec(coupling=("uniform", lo, hi))
    pop = nb.population_init(narrow_band, lam, size=size, seed=12, disorder=spec)
    stepped = nb.population_step(pop)
    g0 = nb.g0_laplace(narrow_band, lam)
    k_in = (narrow_band.n - 1) * pop.samples[0]
    mean_c2 = (lo * lo + lo * hi + hi * hi) / 3.0
    expect = mean_c2 / 2.0 * g0 / (1.0 - g0 * k_in)
    se = np.std(stepped.samples) / np.sqrt(size)
    assert abs(np.mean(stepped.samples) - expect) <= 4.0 * se
    couplings = spec.draw_coupling(np.random.default_rng(0), narrow_band.C, 50)
    assert couplings.shape == (50,) and np.all((couplings >= lo) & (couplings < hi))
    assert DisorderSpec().draw_coupling(None, 0.7, 50) == 0.7


def test_population_two_point_coupling_from_delta_pool(narrow_band):
    # every slot pushes the same aggregate through the edge update, with
    # coupling a at probability p and b otherwise
    lam, size, frac, a, b = 2.0, 100000, 0.3, 0.5, 1.5
    spec = DisorderSpec(coupling=("two_point", a, b, frac))
    pop = nb.population_init(narrow_band, lam, size=size, seed=5, disorder=spec)
    k_in = sum([pop.samples[0]] * (narrow_band.n - 1))
    stepped = nb.population_step(pop)
    low, high = (nb.vernon_imag(k_in, narrow_band, c, lam) for c in (a, b))
    values, counts = np.unique(stepped.samples, return_counts=True)
    assert values.tolist() == sorted([low, high])
    share = counts[values.tolist().index(low)] / size
    assert abs(share - frac) <= 4.0 * np.sqrt(frac * (1.0 - frac) / size)
    couplings = spec.draw_coupling(np.random.default_rng(0), narrow_band.C, 50)
    assert couplings.shape == (50,) and set(couplings.tolist()) == {a, b}


_BAD_LAWS = [
    # unknown laws, once refused only by the first population_step, after
    # the pool was allocated; ("two_point", 3, 5) was a raw ValueError
    ("coupling", ("gaussian", 1.0), "unknown"),
    ("degree", ("poisson", 3.0), "unknown"),
    ("coupling", ("uniform", 1.0), "unknown"),
    ("coupling", (), "unknown"),
    ("coupling", [("constant", 1.0)], "unknown"),
    ("degree", ("two_point", 3, 5), "unknown"),
    # p = 1.5 once drew 0.2 alone
    ("coupling", ("two_point", 0.2, 0.4, 1.5), "value"),
    ("coupling", ("two_point", 0.2, 0.4, -0.1), "value"),
    ("degree", ("two_point", 3, 5, float("nan")), "value"),
    # degrees 0 and -3 were accepted
    ("degree", ("two_point", 0, 5, 0.5), "value"),
    ("degree", ("two_point", -3, 5, 0.5), "value"),
    ("degree", ("two_point", 3.5, 5, 0.5), "value"),
    ("degree", ("constant", 0), "value"),
    ("degree", ("constant", True), "value"),
    # a nan bound was a raw OverflowError from the first draw
    ("coupling", ("uniform", float("nan"), 1.0), "value"),
    ("coupling", ("uniform", 0.0, float("inf")), "value"),
    ("coupling", ("two_point", 0.2, float("inf"), 0.5), "value"),
    ("coupling", ("constant", float("nan")), "value"),
    ("coupling", ("constant", "1.0"), "value"),
    ("coupling", ("uniform", 1.5, 0.5), "value"),
]


@pytest.mark.parametrize("what, law, fault", _BAD_LAWS,
                         ids=[f"{what}{list(law)}" for what, law, _ in _BAD_LAWS])
def test_disorder_spec_refuses_a_law_it_cannot_draw(what, law, fault):
    match = (f"unknown {what} disorder" if fault == "unknown"
             else f"{what} disorder .* cannot be drawn")
    with pytest.raises(ShapeError, match=match):
        DisorderSpec(**{what: law})


def test_disorder_spec_takes_every_law_it_can_draw(narrow_band):
    # the benchmark's two laws among them: a uniform coupling about C and a
    # degree of n - 1 or n + 1
    C = narrow_band.C
    for law in (dict(), dict(coupling=("constant", 0.0)), dict(degree=("constant", 3)),
                dict(coupling=("uniform", 0.8 * C, 1.2 * C)),
                dict(coupling=("uniform", 1.0, 1.0)),
                dict(coupling=("two_point", 0.2, 0.4, 0.0)),
                dict(degree=("two_point", np.int64(1), 5, 1.0)),
                dict(degree=("two_point", narrow_band.n - 1, narrow_band.n + 1, 0.5))):
        spec = DisorderSpec(**law)
        pop = nb.population_init(narrow_band, 2.0, size=1000, seed=3, disorder=spec)
        assert np.all(np.isfinite(nb.population_step(pop).samples))


def test_population_disorder_draws(narrow_band):
    spec = DisorderSpec(coupling=("uniform", 0.5, 1.5),
                        degree=("two_point", 3, 5, 0.5))
    pop = nb.population_init(narrow_band, 2.0, size=1500, seed=21,
                             sigma=0.0, disorder=spec)
    stepped = nb.population_step(pop)
    # disorder broadens the delta pool
    assert np.var(stepped.samples) > 0.0
    mean, var, (counts, edges) = nb.population_stats(stepped, bins=30)
    assert counts.sum() == 1500 and len(edges) == 31


def test_population_stats_examples(narrow_band):
    pop = nb.population_init(narrow_band, 2.0, size=1000, seed=1)
    mean, var, _ = nb.population_stats(pop)
    assert var == 0.0
    two_val = Population(
        samples=np.array([0.0, 2.0] * 500), lam=2.0, params=narrow_band,
        seed=0)
    mean, var, _ = nb.population_stats(two_val)
    assert mean == pytest.approx(1.0) and var == pytest.approx(1.0)


def test_population_stats_few_ulp_spread(narrow_band):
    # a pool that has collapsed to a spread of a few ULPs cannot hold 50
    # distinct bin edges; it is binned like a constant pool, not refused
    k = 0.0180650589339513
    samples = k + np.spacing(k) * (np.arange(1000) % 3)
    pop = Population(samples=samples, lam=1.0, params=narrow_band, seed=0)
    mean, var, (counts, edges) = nb.population_stats(pop)
    assert mean == pytest.approx(k, rel=1e-15)
    assert counts.sum() == 1000 and len(edges) == 51
    assert edges[0] == samples.min() - 0.5 and edges[-1] == samples.max() + 0.5
    # an ordinary spread keeps numpy's own data-range binning
    wide = Population(samples=np.linspace(0.0, 1.0, 1000), lam=1.0,
                      params=narrow_band, seed=0)
    _, _, (counts, edges) = nb.population_stats(wide)
    ref_counts, ref_edges = np.histogram(wide.samples, bins=50)
    assert np.array_equal(counts, ref_counts) and np.array_equal(edges, ref_edges)


def test_pool_size_floor(narrow_band):
    with pytest.raises(ShapeError):
        nb.population_init(narrow_band, 1.0, size=10, seed=0)
    for bad in (np.nan, np.inf, -np.inf):
        samples = np.full(MIN_POOL, 0.01)
        samples[7] = bad
        with pytest.raises(ShapeError, match="pool samples must be finite"):
            Population(samples=samples, lam=1.0, params=narrow_band, seed=0)


def test_sweep_stops_redrawing_at_the_pole(narrow_band):
    # every sample at 1/(G0 (n-1)): every aggregate is 1/G0, so every draw
    # hits the pole, and the sweep gives up after 100 redraws of the pool
    lam = 1.0
    sample = 1.0 / (nb.g0_laplace(narrow_band, lam) * (narrow_band.n - 1))
    assert sum([sample] * (narrow_band.n - 1)) * nb.g0_laplace(narrow_band, lam) == 1.0
    pop = Population(samples=np.full(MIN_POOL, sample), lam=lam, params=narrow_band,
                     seed=0, rng=np.random.default_rng(0))
    with pytest.raises(DomainError, match="kept hitting the edge-update pole"):
        nb.population_step(pop)


def test_pool_refused_by_its_sweep_before_allocating(monkeypatch):
    # a sweep of 3 x 10^7 slots is charged 72 bytes a slot, about 2.01 GiB,
    # though the pool itself is 240 MB
    params = nb.derive_params(20, 1.0, 0.01, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="sweep"):
            nb.population_init(params, 1.0, size=3 * 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

    # 2.97 x 10^7 slots pass the charge at n = 3 and 20, which stops here
    # before any pool is allocated, but not under a degree law reaching 40,
    # whose block of 39 indices and draws a slot tips them past the cap
    class Passed(Exception):
        pass

    def charge(need, what, check=rs._check_bytes):
        check(need, what)
        raise Passed

    monkeypatch.setattr(rs, "_check_bytes", charge)
    size = 297 * 10**5
    for n in (3, 20):
        with pytest.raises(Passed):
            nb.population_init(nb.derive_params(n, 1.0, 0.01, 1.0), 1.0, size=size)
    spec = DisorderSpec(degree=("two_point", 2, 40, 0.99))
    with pytest.raises(SizeError):
        nb.population_init(nb.derive_params(3, 1.0, 0.01, 1.0), 1.0,
                           size=size, disorder=spec)


def test_map_orbit_classifications(narrow_band):
    rep = nb.map_orbit(narrow_band, 1.0)
    assert rep.classification == "converged"
    assert rep.final == pytest.approx(
        nb.closed_form_fixed_point(narrow_band, 1.0), rel=1e-10)
    k_star = nb.closed_form_fixed_point(narrow_band, 1.0)
    rep_const = nb.map_orbit(narrow_band, 1.0, x0=k_star)
    assert rep_const.classification == "converged"
    assert rep_const.orbit.size <= 3
    c2 = nb.critical_coupling(2, 1.0, 1.0)
    p_dis = nb.derive_params(2, 1.0, 2.0 * c2, 1.0)
    rep_dis = nb.map_orbit(p_dis, 0.5, steps=4000)
    assert rep_dis.classification in ("near-periodic", "wandering")
    assert rep_dis.classification == "near-periodic"


def test_orbit_onset_bracket():
    c2 = nb.critical_coupling(2, 1.0, 1.0)
    p = nb.derive_params(2, 1.0, 2.0 * c2, 1.0)
    l_star = nb.lambda_star(p)
    # the disordered-phase onset probe of criterion 9
    def converges(lam):
        return nb.map_orbit(p, lam, steps=20000).classification == "converged"

    assert not converges(0.97 * l_star)
    assert converges(1.03 * l_star)
