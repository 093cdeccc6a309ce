import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import netbath as nb
from netbath.errors import DomainError, SizeError
from netbath.oracle import DENSE_LIMIT, _corner_inverse, tree_matrix
from netbath.tree_bp import TreeGraph


def _irregular_tree():
    """Hand-made rooted tree with uneven branching and leaves at many depths."""
    parent = [-1, 0, 0, 0, 1, 1, 3, 4, 4, 4, 4, 6, 8, 12, 12, 13]
    levels = [[0], [1, 2, 3], [4, 5, 6], [7, 8, 9, 10, 11], [12], [13, 14],
              [15]]
    return TreeGraph(parent=np.array(parent),
                     levels=[np.array(lv) for lv in levels], branching=0,
                     depth=len(levels) - 1)


def _loop_adjacency(tree):
    """Reference adjacency: one Python loop over the (child, parent) edges."""
    adj = np.zeros((tree.n_nodes, tree.n_nodes))
    for child, parent in enumerate(tree.parent.tolist()):
        if parent >= 0:
            adj[child, parent] = adj[parent, child] = 1.0
    return adj


def test_single_node_equals_leaf_message(ordered_chain):
    lam = 1.3
    single = nb.build_chain(0)
    val = nb.oracle_kernel_laplace(single, ordered_chain, lam)
    expect = ordered_chain.C**2 / 2 * nb.g0_laplace(ordered_chain, lam)
    assert val == pytest.approx(expect, rel=1e-14)


def test_chain_matches_message_passing(ordered_chain, lambda_grid):
    chain = nb.build_chain(35)
    bp = nb.root_output_message(chain, ordered_chain, lambda_grid)
    orc = nb.oracle_kernel_laplace_grid(chain, ordered_chain, lambda_grid)
    assert np.max(np.abs(orc - bp) / np.abs(bp)) <= 1e-10


def test_deep_tree_approaches_branch_fixed_point(narrow_band):
    lam = 2.0
    tree = nb.build_tree(narrow_band.n - 1, 8)
    val = nb.oracle_kernel_laplace(tree, narrow_band, lam)
    k_branch = nb.closed_form_fixed_point(narrow_band, lam) / (narrow_band.n - 1)
    assert val == pytest.approx(k_branch, rel=1e-10)


def test_dense_sparse_agree(ordered_chain):
    lam = 0.7
    chain = nb.build_chain(300)
    dense = nb.oracle_kernel_laplace(chain, ordered_chain, lam,
                                     dense_limit=4096)
    sparse = nb.oracle_kernel_laplace(chain, ordered_chain, lam,
                                      dense_limit=10)
    assert dense == pytest.approx(sparse, rel=1e-12)


def test_mode_decomposition_single_node(narrow_band):
    omega_b, w = nb.mode_decomposition(nb.build_chain(0), narrow_band)
    omega = math.sqrt(narrow_band.omega_sq)
    assert omega_b[0] == pytest.approx(omega, rel=1e-14)
    assert w[0] == pytest.approx(narrow_band.C**2 / (narrow_band.m * omega),
                                 rel=1e-14)


def test_mode_support_and_sum_rule(narrow_band):
    for depth in (2, 4, 6):
        tree = nb.build_tree(narrow_band.n - 1, depth)
        omega_b, w = nb.mode_decomposition(tree, narrow_band)
        assert narrow_band.lambda_pm < omega_b.min()
        assert omega_b.max() < narrow_band.lambda_pp
        assert float(np.sum(w * omega_b)) == pytest.approx(
            narrow_band.C**2 / narrow_band.m, rel=1e-10)


def test_mode_decomposition_refuses_outside_existence_region():
    # all finite-tree mode frequencies are bounded by the band edges, so an
    # unstable mode can only arise where the lower edge itself is complex;
    # the decomposition refuses before reaching the eigenproblem there
    c2 = nb.critical_coupling(2, 1.0, 1.0)
    p = nb.derive_params(2, 1.0, 3.0 * c2, 1.0)
    assert not p.band_defined
    with pytest.raises(DomainError):
        nb.mode_decomposition(nb.build_chain(50), p)


def test_oracle_time_kernel_zero_origin_and_forward_closure(ordered_chain):
    chain = nb.build_chain(120)
    T = 40.0
    step = 1.0 / (20.0 * ordered_chain.lambda_pp)
    n = int(math.ceil(T / step / 4.0)) * 4
    tau = np.linspace(0.0, T, n + 1)
    tk = nb.oracle_time_kernel(chain, ordered_chain, tau)
    assert tk.values[0] == 0.0
    lam = np.array([1.0, 2.0, 4.0])
    res = nb.forward_laplace(tk, lam)
    direct = nb.oracle_kernel_laplace_grid(chain, ordered_chain, lam)
    rel = np.abs(res.kernel.values - direct) / np.abs(direct)
    # bounded by quadrature plus the reported truncation bound
    bound = 1e-6 + res.truncation_bound / np.abs(direct)
    assert np.all(rel <= bound + 1e-6)


def test_finite_size_error_decreases(ordered_chain):
    tau = np.linspace(0.0, 700.0, 1501)
    bc = nb.branch_cut_kernel(ordered_chain, tau)
    scale = np.sqrt(np.mean(bc.values**2))
    errs = []
    for depth in (200, 400):
        otk = nb.oracle_time_kernel(nb.build_chain(depth), ordered_chain, tau)
        errs.append(float(np.sqrt(np.mean((otk.values - bc.values) ** 2)) / scale))
    assert errs[1] < errs[0]
    assert errs[1] <= 1e-2


def test_corner_inverse_residual_guard(ordered_chain):
    tm = tree_matrix(nb.build_chain(5), ordered_chain, 1.0)
    val = _corner_inverse(tm)
    assert math.isfinite(val) and val > 0.0


def test_tree_matrix_matches_loop_reference(ordered_chain, narrow_band):
    for tree, params in ((_irregular_tree(), ordered_chain),
                         (nb.build_tree(3, 3), narrow_band),
                         (nb.build_chain(0), ordered_chain)):
        for lam in (0.3, 2.0):
            tm = tree_matrix(tree, params, lam)
            assert isinstance(tm.matrix, scipy.sparse.csc_matrix)
            assert tm.matrix.has_sorted_indices
            diag = params.m * (lam**2 + params.omega_sq) / 2.0
            expect = (np.eye(tree.n_nodes) * diag
                      - params.C / math.sqrt(2.0) * _loop_adjacency(tree))
            assert np.array_equal(tm.matrix.toarray(), expect)
            # the diagonal is stored, so every node has an entry of its own
            assert tm.matrix.nnz == tree.n_nodes + 2 * (tree.n_nodes - 1)


def test_grid_equals_pointwise_on_both_sides_of_dense_limit(ordered_chain,
                                                             narrow_band):
    lam = np.array([0.1, 0.7, 3.0, 40.0])
    small, large = nb.build_chain(60), nb.build_tree(4, 4)
    assert small.n_nodes <= DENSE_LIMIT < large.n_nodes
    for tree, params in ((small, ordered_chain), (large, narrow_band),
                         (_irregular_tree(), ordered_chain)):
        grid = nb.oracle_kernel_laplace_grid(tree, params, lam)
        point = [nb.oracle_kernel_laplace(tree, params, x) for x in lam]
        assert np.array_equal(grid, point)
        forced = nb.oracle_kernel_laplace_grid(tree, params, lam, dense_limit=0)
        assert np.allclose(forced, grid, rtol=1e-12, atol=0.0)


def test_mode_decomposition_irregular_tree(ordered_chain):
    tree = _irregular_tree()
    omega_b, w = nb.mode_decomposition(tree, ordered_chain)
    mu = np.linalg.eigvalsh(_loop_adjacency(tree))
    expect = np.sort(np.sqrt(ordered_chain.omega_sq - math.sqrt(2.0)
                             * ordered_chain.C * mu / ordered_chain.m))
    assert np.allclose(omega_b, expect, rtol=1e-13, atol=0.0)
    assert float(np.sum(w * omega_b)) == pytest.approx(
        ordered_chain.C**2 / ordered_chain.m, rel=1e-12)


def test_mode_decomposition_refuses_before_allocating(narrow_band):
    # branching 4, depth 8: 87,381 nodes, one dense N x N float64 is 61 GB
    tree = nb.build_tree(4, 8)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError):
            nb.mode_decomposition(tree, narrow_band)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
