import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import netbath as nb
import netbath.errors
import netbath.tree_bp
from netbath.errors import DomainError, ShapeError, SizeError
from netbath.laplace import _edge_update


def _upward_reference(tree, params, grid):
    """Upward message and child aggregate of every node, as (N, grid) arrays.

    The sweep ``tree_bp`` ran before it held two levels: every node's row
    over the whole tree, siblings summed by ``np.add.at``.
    """
    grid = np.asarray(grid, dtype=float)
    g0 = np.atleast_1d(np.asarray(nb.g0_laplace(params, grid), dtype=float))
    msgs = np.zeros((tree.n_nodes, grid.size))
    agg = np.zeros_like(msgs)
    c_half = params.C**2 / 2.0
    for k in range(tree.depth.max(), -1, -1):
        level = np.flatnonzero(tree.depth == k)
        msgs[level] = _edge_update(agg[level], g0[None, :], c_half)[0]
        parents = tree.parent[level]
        has_parent = parents >= 0
        if np.any(has_parent):
            np.add.at(agg, parents[has_parent], msgs[level][has_parent])
    return msgs, agg


def _environment_reference(tree, params, grid, up, agg, node):
    """``output_environment(...).values`` from the reference sweep's rows."""
    g0 = nb.g0_laplace(params, grid)
    c_half = params.C**2 / 2.0
    path = [node]
    while tree.parent[path[-1]] >= 0:
        path.append(int(tree.parent[path[-1]]))
    down = np.zeros_like(g0)
    for p, v in zip(path[:0:-1], path[-2::-1]):
        down = _edge_update(agg[p] - up[v] + down, g0, c_half)[0]
    return agg[node] + down


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _rerooting_reference(tree, params, grid):
    """Environment kernel at every node by the full re-rooting loop.

    The node-by-node downward pass that ``output_environment`` replaced: for
    each parent, sum all children's upward messages plus the parent's own
    downward message, then hand every child that total minus its own branch.
    """
    up, _ = _upward_reference(tree, params, grid)
    g0 = nb.g0_laplace(params, grid)
    children = [[] for _ in range(tree.n_nodes)]
    for v in range(tree.n_nodes):
        if tree.parent[v] >= 0:
            children[int(tree.parent[v])].append(v)
    down = np.zeros_like(up)
    for p in range(tree.n_nodes):       # every parent before its children
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


def _renumbered(parent, order):
    """TreeGraph of ``parent`` with node ``order[i]`` renumbered i.

    ``order`` runs through the levels one after the other, so every parent
    keeps a smaller id than its children, and sets the id order of each
    level, which is the order a sweep adds siblings in.
    """
    new = np.empty_like(order)
    new[order] = np.arange(order.size)
    return nb.TreeGraph(parent=np.r_[-1, new[np.asarray(parent)[order[1:]]]])


def _random_tree(n_nodes, seed):
    """Irregular tree: each node hangs under a uniformly drawn earlier node;
    the nodes are then renumbered level by level, in random order within a
    level."""
    rng = np.random.default_rng(seed)
    parent = np.array([-1] + [int(rng.integers(0, v)) for v in range(1, n_nodes)])
    depth = np.zeros(n_nodes, dtype=int)
    for v in range(1, n_nodes):
        depth[v] = depth[parent[v]] + 1
    return _renumbered(parent, np.concatenate(
        [rng.permutation(np.flatnonzero(depth == d)) for d in range(depth.max() + 1)]))


def test_build_shapes():
    chain = nb.build_chain(3)
    assert chain.n_nodes == 4 and chain.parent.tolist() == [-1, 0, 1, 2]
    tree = nb.build_tree(2, 3)
    assert tree.n_nodes == 15
    assert np.bincount(tree.depth).tolist() == [1, 2, 4, 8]
    assert nb.build_tree(1, 5).n_nodes == nb.build_chain(5).n_nodes


def test_build_caps_and_validation():
    with pytest.raises(SizeError):
        nb.build_tree(2, 25)
    # refused from its depth or width, before a node count of thousands of
    # digits is formed or formatted; a one-node tree of any width is built
    for branching, depth in ((2, 20000), (3, 9000), (10**5000, 1), (1, 10**5000)):
        with pytest.raises(SizeError) as err:
            nb.build_tree(branching, depth)
        assert len(str(err.value)) < 100
    assert nb.build_tree(2, 19).n_nodes == (1 << 20) - 1
    assert nb.build_tree(10**5000, 0).n_nodes == 1
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
    # messages depend on the multiset of child messages, not their order:
    # renumbering the nodes so that the ids of each level run backwards
    # reverses every sibling order, and the root output stays, up to the
    # order of the additions
    grid = np.logspace(-1, 1, 7)
    t1 = _random_tree(300, 4)
    t2 = _renumbered(t1.parent, np.lexsort((-np.arange(t1.n_nodes), t1.depth)))
    assert t1 != t2
    out1 = nb.root_output_message(t1, narrow_band, grid)
    out2 = nb.root_output_message(t2, narrow_band, grid)
    assert np.max(np.abs(out1 - out2) / np.abs(out1)) <= 1e-14


def test_output_environment_interior_limit(narrow_band):
    # deep regular tree: interior node sees n/(n-1) * k*
    grid = np.array([1.0, 3.0])
    tree = nb.build_tree(narrow_band.n - 1, 9)
    interior = int(np.flatnonzero(tree.depth == 4)[0])
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


def _pole_tree():
    # root -> node 1 -> eight leaves; at lambda = 1 the eight leaf messages
    # sum to exactly 1/G0, so the edge update out of node 1 hits its pole
    p = nb.derive_params(2, 1.0, 1.0, 1.0)
    tree = nb.TreeGraph(parent=[-1, 0] + [1] * 8)
    return tree, p, np.array([0.5, 1.0, 2.0])


def _inner_leaves_tree():
    # leaves on levels 1, 2 and 3 besides the deepest; the children of
    # nodes 2 and 1 interleave on level 2, and those of 6 and 5 on level 3
    return nb.TreeGraph(parent=[-1, 0, 0, 0, 2, 1, 2, 6, 5, 8])


def _tree_from_children(children):
    """TreeGraph from each node's ordered children, node ids breadth first."""
    parent = [-1]
    for v, count in enumerate(children):
        parent += [v] * count
    return nb.TreeGraph(parent=parent)


def _swapped_tree():
    # five parents on level 1 whose children are, in level order, (X, Y),
    # (Y, X), (X, Y, Z), (Z, Y, X) and (X, Y, Z), with X a leaf, Y a node
    # with one leaf and Z a node with two: the same multisets in opposite
    # orders, which a class must tell apart
    x, y, z = 0, 1, 2
    rows = [(x, y), (y, x), (x, y, z), (z, y, x), (x, y, z)]
    return _tree_from_children([len(rows)] + [len(r) for r in rows]
                               + [c for r in rows for c in r])


def _star(n_leaves):
    return nb.TreeGraph(parent=np.r_[-1, np.zeros(n_leaves, dtype=int)])


def _caterpillar(spine):
    # a path of ``spine`` nodes, each but the last with a leaf beside the
    # next spine node; the leaf takes the smaller id on odd levels
    parent, tip = [-1], 0
    for k in range(1, spine):
        parent += [tip, tip]
        tip = len(parent) - (1 if k % 2 else 2)
    return nb.TreeGraph(parent=parent)


def test_pole_inside_tree_gives_nan():
    tree, p, grid = _pole_tree()
    assert nb.g0_laplace(p, 1.0) == 0.5
    root = nb.root_output_message(tree, p, grid)
    assert np.isnan(root[1]) and np.all(np.isfinite(root[[0, 2]]))
    up, _ = _upward_reference(tree, p, grid)
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


@pytest.mark.parametrize("shape", ["b3d4", "b2d8", "chain", "random300",
                                   "random500", "inner-leaves", "pole",
                                   "swapped", "star2000", "caterpillar"])
def test_sweep_keeps_the_bits_of_the_add_at_sweep(narrow_band, shape):
    # the class sweep adds each class's children in id order from 0.0, as
    # np.add.at did over the whole tree: the root message and the environment
    # of every node are the reference's, bit for bit, nan positions and flags
    # included
    grid = np.logspace(-1, 1.5, 9)
    params = narrow_band
    tree = {"b3d4": lambda: nb.build_tree(3, 4),
            "b2d8": lambda: nb.build_tree(2, 8),
            "chain": lambda: nb.build_chain(40),
            "random300": lambda: _random_tree(300, 4),
            "random500": lambda: _random_tree(500, 9),
            "inner-leaves": _inner_leaves_tree,
            "pole": lambda: None,
            "swapped": _swapped_tree,
            "star2000": lambda: _star(2000),
            "caterpillar": lambda: _caterpillar(60)}[shape]()
    if tree is None:
        tree, params, grid = _pole_tree()
    up, agg = _upward_reference(tree, params, grid)
    assert _same_bits(nb.root_output_message(tree, params, grid), up[0])
    for v in range(tree.n_nodes):
        ref = _environment_reference(tree, params, grid, up, agg, v)
        env = nb.output_environment(tree, params, v, grid)
        assert _same_bits(env.values, ref)
        flags = ~np.isfinite(ref)
        assert (env.flags is None) if not flags.any() else _same_bits(env.flags, flags)
    if shape == "pole":
        assert np.isnan(up[1, 1])
    if shape == "swapped":
        node_class = tree._classes[0]
        assert len(set(node_class[1:6].tolist())) == 4
        assert node_class[3] == node_class[5]


def test_subtree_classes_of_regular_trees_and_of_a_random_tree():
    # a regular tree has one class per level and one addition per child of
    # a class; a random tree's classes are its distinct ordered subtrees,
    # found here by a loop over the nodes
    node_class, counts, target, source, bounds = nb.build_chain(0)._classes
    assert counts == [1] and bounds.tolist() == [0, 0] and not target.size
    node_class, counts, target, source, bounds = nb.build_tree(3, 4)._classes
    assert counts == [1] * 5 and not node_class.any()
    assert np.diff(bounds).tolist() == [0, 3, 3, 3, 3]
    assert not target.any() and not source.any()
    tree = _random_tree(500, 9)
    node_class, counts, *_ = tree._classes
    children = [[] for _ in range(tree.n_nodes)]
    for v in range(1, tree.n_nodes):
        children[tree.parent[v]].append(v)
    levels = [np.flatnonzero(tree.depth == k) for k in range(tree.depth.max() + 1)]
    shape = {}
    for k, level in reversed(list(enumerate(levels))):
        keys = {v: (k, tuple(shape[c] for c in children[v])) for v in level.tolist()}
        ids = {key: i for i, key in enumerate(dict.fromkeys(keys.values()))}
        assert counts[k] == len(ids)
        for v, key in keys.items():
            shape[v] = ids[key]
    same = np.equal.outer(node_class, node_class)
    ref = np.equal.outer([shape[v] for v in range(tree.n_nodes)],
                         [shape[v] for v in range(tree.n_nodes)])
    on_level = np.equal.outer(tree.depth, tree.depth)
    assert np.array_equal(same & on_level, ref & on_level)


def test_deepest_node_of_the_largest_tree_over_a_thousand_lambda(ordered_chain):
    # build_tree(2, 19), 1,048,575 nodes, has one class per level: the sweep
    # over 1,000 lambda holds 20 class rows, where one row per node asked for
    # 9.89 GiB; the deepest node's environment is the message down its path,
    # which the iterated scalar map gives
    p = nb.derive_params(3, ordered_chain.omega0, ordered_chain.C, ordered_chain.m)
    tree = nb.build_tree(2, 19)
    lam = np.logspace(-2, 2, 1000)
    env = nb.output_environment(tree, p, tree.n_nodes - 1, lam)
    agg = [np.zeros_like(lam)]               # aggregate at height h
    for _ in range(19):
        agg.append(nb.uniform_map(agg[-1], p, lam))
    down = np.zeros_like(lam)
    for height in range(18, -1, -1):         # the sibling's subtree height
        down = nb.vernon_imag(nb.vernon_imag(agg[height], p, p.C, lam) + down,
                              p, p.C, lam)
    assert env.flags is None
    assert np.max(np.abs(env.values - down) / np.abs(down)) <= 1e-12


def test_sweep_holds_no_nodes_by_lambda_array(narrow_band):
    # the add.at sweep peaked at 169.9 MiB here: two 87,381 x 50 arrays and
    # the temporaries of a whole level; one row per node of two levels, 28.5
    # MiB.  Finding the classes holds index words, 6.7 MiB measured, below
    # their charge; a sweep then holds one row per class of two levels, all
    # 9 levels being one class each, and the path's rows: 12 kB measured
    tree = nb.build_tree(4, 8)
    grid = np.logspace(-1, 2, 50)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            nb.root_output_message(tree, narrow_band, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 8 * netbath.tree_bp.SWEEP_WORDS * tree.n_nodes
    assert peaks[1] <= 64 * 2**10


def test_sweep_refused_before_allocating(narrow_band, monkeypatch):
    # a random tree of 3,000 nodes has at most 107 classes on one level and
    # 299 terms; finding them is charged 0.58 MB of index words, and over
    # 200 lambda its rows are charged 1.34 MB, so with the cap at 1 MiB the
    # sweep is refused before any level is formed; over 50 lambda, 0.33 MB
    # of rows, it runs, and runs again once the cap is below the index
    # words, which the tree's first sweep paid for
    cap = 1 << 20
    monkeypatch.setattr(netbath.errors, "BYTE_CAP", cap)
    tree = _random_tree(3000, 4)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="upward sweep"):
            nb.root_output_message(tree, narrow_band, np.logspace(-1, 2, 200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cap
    assert nb.root_output_message(tree, narrow_band, np.logspace(-1, 2, 50)).size == 50
    monkeypatch.setattr(netbath.errors, "BYTE_CAP", cap // 2)
    assert nb.root_output_message(tree, narrow_band, np.logspace(-1, 2, 50)).size == 50


def test_tree_graph_is_read_only():
    # the depth index and subtree classes a tree derives and keeps cannot go
    # stale
    tree = nb.build_tree(2, 3)
    parent = np.array([-1, 0, 0, 1])
    other = nb.TreeGraph(parent=parent)
    parent[3] = 2                   # the caller's array, not the tree's
    assert other.parent.tolist() == [-1, 0, 0, 1]
    for array in (tree.parent, tree.depth, other.parent):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(AttributeError):
        tree.parent = other.parent


def test_trees_are_equal_when_their_parent_arrays_are():
    # equality and hash read the parent array alone, whatever its integer
    # dtype was and whatever the trees have derived so far
    a, b = nb.build_tree(2, 3), nb.build_tree(2, 3)
    a.depth
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a == nb.TreeGraph(parent=a.parent.astype(np.int32))
    assert a != nb.build_tree(3, 2) and a != nb.build_chain(14)
    assert {nb.build_chain(3): "chain"}[nb.TreeGraph(parent=[-1, 0, 1, 2])] == "chain"


def test_output_environment_refuses_node_and_grid_before_the_sweep(
        narrow_band, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep was entered")

    monkeypatch.setattr(netbath.tree_bp, "_upward_messages", no_sweep)
    tree = nb.build_tree(3, 3)
    grid = np.array([0.5, 1.0, 2.0])
    with pytest.raises(AssertionError, match="entered"):
        nb.output_environment(tree, narrow_band, np.int64(39), grid)
    for node in (-1, tree.n_nodes, 10**6, 2.0, True, "1"):
        with pytest.raises(ShapeError, match="node"):
            nb.output_environment(tree, narrow_band, node, grid)
    for bad in (grid[::-1], [1.0, 1.0], [], [[1.0]]):
        with pytest.raises(ShapeError, match="grid"):
            nb.output_environment(tree, narrow_band, 0, bad)
    with pytest.raises(DomainError, match="lambda"):
        nb.output_environment(tree, narrow_band, 0, [1.0, np.nan])


def test_tree_entries_refuse_a_lambda_array_before_the_sweep(narrow_band, monkeypatch):
    # a point or a 1-d grid: an array of two or more dimensions is a
    # ShapeError before the sweep, where it escaped the root message as a
    # raw numpy ValueError from the edge update; a bad lambda stays a
    # DomainError first
    def no_sweep(*args):
        raise AssertionError("the sweep was entered")

    monkeypatch.setattr(netbath.tree_bp, "_upward_messages", no_sweep)
    tree = nb.build_tree(3, 3)
    entries = (lambda lam: nb.root_output_message(tree, narrow_band, lam),
               lambda lam: nb.output_environment(tree, narrow_band, 5, lam))
    for evaluate in entries:
        for lam in (0.5, [0.5, 1.0]):
            with pytest.raises(AssertionError, match="entered"):
                evaluate(lam)
        for bad in ([[1.0]], np.ones((2, 3)), np.ones((1, 1, 2))):
            with pytest.raises(ShapeError, match="grid must be a point or 1-d"):
                evaluate(bad)
        with pytest.raises(DomainError, match="lambda"):
            evaluate([[1.0, -1.0]])


def test_tree_entries_take_a_point_as_a_grid_of_one(narrow_band):
    # the root message at a point is a Python float with the bits of the
    # grid of one; the environment at a point is the one-point kernel
    tree = _random_tree(300, 4)
    for lam in (0.0, 0.37, 2.0, 55.0):
        root = nb.root_output_message(tree, narrow_band, lam)
        assert type(root) is float
        assert _same_bits(np.array([root]),
                          nb.root_output_message(tree, narrow_band, [lam]))
        for node in (0, 7, tree.n_nodes - 1):
            env = nb.output_environment(tree, narrow_band, node, lam)
            ref = nb.output_environment(tree, narrow_band, node, [lam])
            assert _same_bits(env.grid, ref.grid) and _same_bits(env.values, ref.values)
            assert env.flags is None and ref.flags is None


@pytest.mark.parametrize("parent, why", [
    ([-1, 0, -1, 1], "only root"),
    ([0, 0, 0, 1], "only root"),
    ([1, -1, 0, 1], "only root"),
    ([-1, 0, 3, 0], "smaller id"),
    ([-1, 0, 7, 1], "smaller id"),
    ([], "nonempty"),
    ([[-1, 0]], "1-d"),
    # floats were once truncated to the ids [-1, 0, 1]
    ([-1, 0.7, 1.2], "integer"),
    # an id past int64 once escaped as OverflowError
    ([-1, 2**70], "integer"),
    ([-1, 2**63], "integer"),
], ids=["two-roots", "root-has-parent", "root-not-first", "parent-after-child",
        "out-of-range", "no-nodes", "two-d", "float-ids", "past-int64",
        "past-int64-float"])
def test_tree_graph_refuses_a_broken_contract(parent, why):
    with pytest.raises(ShapeError, match=why):
        nb.TreeGraph(parent=parent)


@st.composite
def _parent_arrays(draw):
    """Parent arrays with parent[v] < v: bushy when parents are drawn from
    the first nodes, deep when from the last."""
    n_nodes, deep = draw(st.integers(1, 60)), draw(st.booleans())
    parent = [-1]
    for v in range(1, n_nodes):
        p = draw(st.integers(0, v - 1))
        parent.append(v - 1 - p if deep else p)
    return parent


@given(_parent_arrays())
def test_depth_derived_from_any_parent_array(parent):
    # the root is level 0, every other node one level below its parent, and
    # the index is read-only
    tree = nb.TreeGraph(parent=parent)
    depth = tree.depth
    assert depth.dtype == np.int64 and depth.shape == (len(parent),)
    assert depth[0] == 0
    assert np.array_equal(depth[1:], depth[tree.parent[1:]] + 1)
    assert not depth.flags.writeable and not tree.parent.flags.writeable


def _build_tree_by_levels(branching, depth):
    """Parent array and levels of the regular tree, level by level: the loop
    ``build_tree`` ran before its closed form."""
    n_nodes = sum(branching**k for k in range(depth + 1))
    parent = np.full(n_nodes, -1, dtype=np.int64)
    levels = [np.array([0])]
    for _ in range(depth):
        ids = levels[-1][-1] + 1 + np.arange(levels[-1].size * branching)
        parent[ids] = np.repeat(levels[-1], branching)
        levels.append(ids)
    return parent, levels


@pytest.mark.parametrize("branching", range(1, 6))
def test_build_tree_closed_form_matches_the_level_loop(branching):
    for depth in range(7):
        tree = nb.build_tree(branching, depth)
        parent, levels = _build_tree_by_levels(branching, depth)
        assert tree.parent.dtype == np.int64 and np.array_equal(tree.parent, parent)
        assert np.array_equal(tree.depth, np.repeat(np.arange(depth + 1),
                                                    [lv.size for lv in levels]))
