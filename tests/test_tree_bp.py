import numpy as np
import pytest

import netbath as nb
from netbath.errors import DomainError, SizeError
from netbath.tree_bp import _upward_messages


def _rerooting_reference(tree, params, grid):
    """Environment kernel at every node by the full re-rooting loop.

    The node-by-node downward pass that ``output_environment`` replaced: for
    each parent, sum all children's upward messages plus the parent's own
    downward message, then hand every child that total minus its own branch.
    """
    up, _ = _upward_messages(tree, params, grid)
    g0 = nb.g0_laplace(params, grid)
    children = [[] for _ in range(tree.n_nodes)]
    for v in range(tree.n_nodes):
        if tree.parent[v] >= 0:
            children[int(tree.parent[v])].append(v)
    down = np.zeros_like(up)
    for level in tree.levels:
        for p in level:
            if not children[p]:
                continue
            total = up[children[p]].sum(axis=0) + down[p]
            for v in children[p]:
                down[v] = nb.vernon_imag(total - up[v], params, params.C, grid)
    env = np.zeros_like(up)
    for v in range(tree.n_nodes):
        for c in children[v]:
            env[v] = env[v] + up[c]
        if tree.parent[v] >= 0:
            env[v] = env[v] + down[v]
    return env


def _random_tree(n_nodes, seed):
    """Irregular tree: each node hangs under a uniformly drawn earlier node."""
    rng = np.random.default_rng(seed)
    parent = np.array([-1] + [int(rng.integers(0, v)) for v in range(1, n_nodes)])
    depth = np.zeros(n_nodes, dtype=int)
    for v in range(1, n_nodes):
        depth[v] = depth[parent[v]] + 1
    levels = [rng.permutation(np.flatnonzero(depth == d))
              for d in range(depth.max() + 1)]
    return nb.TreeGraph(parent=parent, levels=levels)


def test_build_shapes():
    chain = nb.build_chain(3)
    assert chain.n_nodes == 4 and chain.parent.tolist() == [-1, 0, 1, 2]
    tree = nb.build_tree(2, 3)
    assert tree.n_nodes == 15
    assert [len(lvl) for lvl in tree.levels] == [1, 2, 4, 8]
    assert nb.build_tree(1, 5).n_nodes == nb.build_chain(5).n_nodes


def test_build_caps_and_validation():
    with pytest.raises(SizeError):
        nb.build_tree(2, 25)
    with pytest.raises(DomainError):
        nb.build_tree(0, 3)
    with pytest.raises(DomainError):
        nb.build_chain(-1)


def test_chain_aggregate_equals_scalar_iterates(ordered_chain, lambda_grid):
    depth = 9
    chain = nb.build_chain(depth)
    agg = nb.output_environment(chain, ordered_chain, 0, lambda_grid).values
    k = np.zeros_like(lambda_grid)
    for _ in range(depth):
        k = nb.uniform_map(k, ordered_chain, lambda_grid)
    assert np.max(np.abs(agg - k)) <= 1e-13 * np.max(np.abs(k))


def test_tree_aggregate_equals_scalar_iterates(narrow_band, lambda_grid):
    depth = 5
    tree = nb.build_tree(narrow_band.n - 1, depth)
    agg = nb.output_environment(tree, narrow_band, 0, lambda_grid).values
    k = np.zeros_like(lambda_grid)
    for _ in range(depth):
        k = nb.uniform_map(k, narrow_band, lambda_grid)
    assert np.max(np.abs(agg - k)) <= 1e-13 * np.max(np.abs(k))


def test_output_environment_of_one_edge_is_leaf_message(narrow_band):
    grid = np.array([0.5, 2.0])
    tree = nb.build_chain(1)            # one edge: leaf 1 -> root 0
    root = nb.output_environment(tree, narrow_band, 0, grid)
    # the root sees only the free-branch message of its leaf
    expect = narrow_band.C**2 / 2 * nb.g0_laplace(narrow_band, grid)
    assert np.allclose(root.values, expect, rtol=1e-14)


def test_sweep_sibling_permutation_invariance(narrow_band):
    # messages depend on the multiset of child messages, not their order;
    # two different labelings of the same shape give identical root output
    grid = np.logspace(-1, 1, 7)
    t1 = nb.build_tree(3, 3)
    out1 = nb.root_output_message(t1, narrow_band, grid)
    # rebuild with reversed level internals by relabeling children
    parent = t1.parent.copy()
    out2 = nb.root_output_message(
        nb.TreeGraph(parent=parent, levels=[lvl[::-1] for lvl in t1.levels]),
        narrow_band, grid)
    assert np.array_equal(out1, out2)


def test_output_environment_interior_limit(narrow_band):
    # deep regular tree: interior node sees n/(n-1) * k*
    grid = np.array([1.0, 3.0])
    tree = nb.build_tree(narrow_band.n - 1, 9)
    interior = int(tree.levels[4][0])
    env = nb.output_environment(tree, narrow_band, interior, grid)
    k_star = nb.closed_form_fixed_point(narrow_band, grid)
    expect = narrow_band.n / (narrow_band.n - 1) * k_star
    assert np.allclose(env.values, expect, rtol=1e-8)


def test_output_environment_boundary_cases(narrow_band):
    grid = np.array([1.0])
    single = nb.build_chain(0)
    env = nb.output_environment(single, narrow_band, 0, grid)
    assert env.values[0] == 0.0
    chain = nb.build_chain(3)
    leaf = chain.n_nodes - 1
    env_leaf = nb.output_environment(chain, narrow_band, leaf, grid)
    # the leaf sees exactly the downward message on its single edge
    root = nb.output_environment(chain, narrow_band, 0, grid)
    assert env_leaf.values[0] > 0.0 and np.isfinite(root.values[0])


@pytest.mark.parametrize("shape", ["regular", "irregular"])
def test_output_environment_matches_full_rerooting(narrow_band, shape):
    # the root-to-node path walk reproduces the full re-rooting loop at
    # every node, root and leaves included
    grid = np.logspace(-1, 1.5, 9)
    tree = nb.build_tree(3, 4) if shape == "regular" else _random_tree(300, 4)
    ref = _rerooting_reference(tree, narrow_band, grid)
    for v in range(tree.n_nodes):
        env = nb.output_environment(tree, narrow_band, v, grid)
        assert env.flags is None
        assert np.max(np.abs(env.values - ref[v]) / np.abs(ref[v])) <= 1e-13


def test_pole_inside_tree_gives_nan():
    # root -> node 1 -> eight leaves; at lambda = 1 the eight leaf messages
    # sum to exactly 1/G0, so the edge update out of node 1 hits its pole
    p = nb.derive_params(2, 1.0, 1.0, 1.0)
    parent = np.array([-1, 0] + [1] * 8)
    tree = nb.TreeGraph(parent=parent,
                        levels=[np.array([0]), np.array([1]), np.arange(2, 10)])
    grid = np.array([0.5, 1.0, 2.0])
    assert nb.g0_laplace(p, 1.0) == 0.5
    root = nb.root_output_message(tree, p, grid)
    assert np.isnan(root[1]) and np.all(np.isfinite(root[[0, 2]]))
    up, _ = _upward_messages(tree, p, grid)
    assert np.array_equal(np.isnan(up[1]), [False, True, False])
    for node in (0, 1, 9):
        env = nb.output_environment(tree, p, node, grid)
        assert np.array_equal(env.flags, [False, True, False])


def test_root_output_message_is_aggregate_plus_one_update(narrow_band):
    grid = np.logspace(-1, 1, 5)
    tree = nb.build_tree(4, 4)
    agg = nb.output_environment(tree, narrow_band, 0, grid).values
    out = nb.root_output_message(tree, narrow_band, grid)
    expect = nb.vernon_imag(agg, narrow_band, narrow_band.C, grid)
    assert np.allclose(out, expect, rtol=1e-14)


def test_depth_convergence_decoupled():
    p0 = nb.derive_params(5, 10.0, 0.0, 0.5)
    res = nb.depth_convergence(p0, 4, 10, 1.0)
    assert np.all(res == 0.0)


def test_depth_convergence_geometric(narrow_band, ordered_chain):
    res = nb.depth_convergence(narrow_band, narrow_band.n - 1, 60, 1.0)
    assert res[60] < 1e-10
    assert np.all(np.diff(res[:8]) < 0)
    # moderate contraction rate on the line: ratios settle to a constant
    # (lambda chosen so the residuals stay well above the float floor)
    res2 = nb.depth_convergence(ordered_chain, 1, 15, 0.3)
    ratios = res2[6:15] / res2[5:14]
    assert np.all(ratios < 1.0)
    assert np.ptp(ratios) < 1e-3


def _depth_convergence_reference(params, branching, max_depth, lam):
    """The scalar loop ``depth_convergence`` ran before it read ``map_orbit``."""
    n = branching + 1
    params_n = params if params.n == n else nb.derive_params(
        n, params.omega0, params.C, params.m)
    k_star = nb.closed_form_fixed_point(params_n, lam)
    residuals = np.empty(max_depth + 1)
    k = 0.0
    residuals[0] = abs(k - k_star)
    for d in range(1, max_depth + 1):
        k = nb.uniform_map(k, params_n, lam)
        residuals[d] = abs(k - k_star)
    return residuals


@pytest.mark.parametrize("params, branching, max_depth, lam, settles", [
    # the orbit stops moving long before max_depth: the padding is used
    (nb.derive_params(5, 10.0, 1.0, 0.5), 4, 200, 1.0, True),
    # a line near C* settles only after 270 steps: still moving at max_depth
    (nb.derive_params(2, 1.0, 1.2, 1.0), 1, 200, 0.01, False),
    # the README line: tree --branching 4 --depth 40 --lam 1.0
    (nb.derive_params(5, 10.0, 1.0, 0.5), 4, 40, 1.0, None),
], ids=["settles", "moving", "readme"])
def test_depth_convergence_matches_scalar_loop(params, branching, max_depth,
                                               lam, settles):
    res = nb.depth_convergence(params, branching, max_depth, lam)
    ref = _depth_convergence_reference(params, branching, max_depth, lam)
    assert np.array_equal(res, ref)
    orbit = nb.map_orbit(params, lam, steps=max_depth, tol=0.0).orbit
    if settles is not None:
        assert (orbit.size <= max_depth) == settles


def test_depth_convergence_requires_fixed_point():
    c2 = nb.critical_coupling(2, 1.0, 1.0)
    p = nb.derive_params(2, 1.0, 2.0 * c2, 1.0)
    with pytest.raises(DomainError):
        nb.depth_convergence(p, 1, 10, 0.5)


def test_edge_noise_gain_zero_coupling():
    # a decoupled network passes no noise along any edge: zero gain, and
    # every node's environment kernel is zero
    p0 = nb.derive_params(3, 2.0, 0.0, 1.0)
    grid = np.array([1.0, 5.0])
    assert np.all(nb.real_multiplier(p0, grid) == 0.0)
    chain = nb.build_chain(3)
    for node in range(chain.n_nodes):
        env = nb.output_environment(chain, p0, node, grid)
        assert np.all(env.values == 0.0)
