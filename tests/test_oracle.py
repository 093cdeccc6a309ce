import ast
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import netbath as nb
import netbath.errors
import netbath.oracle
from netbath.errors import DomainError, InstabilityError, SizeError
from netbath.oracle import _corner, _jacobi, _path_measure, _reach, \
    _tree_jacobi, _tree_matvec
from netbath.tree_bp import TreeGraph


def _irregular_tree():
    """Hand-made rooted tree with uneven branching and leaves at many depths."""
    return TreeGraph(parent=[-1, 0, 0, 0, 1, 1, 3, 4, 4, 4, 4, 6, 8, 12, 12, 13])


def _loop_adjacency(tree):
    """Reference adjacency: one Python loop over the (child, parent) edges."""
    adj = np.zeros((tree.n_nodes, tree.n_nodes))
    for child, parent in enumerate(tree.parent.tolist()):
        if parent >= 0:
            adj[child, parent] = adj[parent, child] = 1.0
    return adj


def _dense_matrix(tree, params, lam):
    """Reference M(lambda) = (m/2)(lambda^2+omega^2) I - (C/sqrt(2)) A, dense,
    from the loop adjacency."""
    diag = params.m * (lam**2 + params.omega_sq) / 2.0
    return (np.eye(tree.n_nodes) * diag
            - params.C / math.sqrt(2.0) * _loop_adjacency(tree))


def _dense_corner(dense):
    """Reference [M^{-1}]_{0,0} by a dense solve: Cholesky where M is
    positive definite, the symmetric indefinite solve where it is not."""
    e = np.eye(dense.shape[0])[0]
    try:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(dense), e)[0]
    except scipy.linalg.LinAlgError:
        return scipy.linalg.solve(dense, e, assume_a="sym")[0]


def _dense_kernel(tree, params, lam):
    """Reference kernel (C^2/2) [M^{-1}]_{0,0} over a lambda grid."""
    return np.array([params.C**2 / 2.0
                     * _dense_corner(_dense_matrix(tree, params, x))
                     for x in lam])


def _regular_graph(rng, n_nodes, degree):
    """Seeded simple random regular graph by stub pairing, in CSC form: the
    stubs are paired anew until no pair is a self-loop or a repeated edge."""
    while True:
        pairs = rng.permutation(np.repeat(np.arange(n_nodes), degree))
        lo, hi = np.sort(pairs.reshape(-1, 2), axis=1).T
        edges = lo * n_nodes + hi
        if np.all(lo != hi) and np.unique(edges).size == edges.size:
            break
    rows, cols = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    return scipy.sparse.csc_matrix((np.ones(rows.size), (rows, cols)),
                                   shape=(n_nodes, n_nodes))


def _random_tree(rng, max_nodes):
    """Seeded irregular tree, numbered breadth-first: each node draws from
    0 (the root from 1) to a seeded maximum of 1 to 4 children."""
    max_kids = int(rng.integers(1, 5))
    parent, level = [-1], [0]
    while len(parent) < max_nodes:
        below = []
        for v in level:
            for _ in range(rng.integers(0 if v else 1, max_kids + 1)):
                if len(parent) < max_nodes:
                    below.append(len(parent))
                    parent.append(v)
        if not below:
            break
        level = below
    return TreeGraph(parent=parent)


def _dense_modes_reference(tree, params):
    """Root-visible modes from a dense ``eigh`` of the whole adjacency.

    This is the route ``mode_decomposition`` took before it reduced the tree
    to the root's view of it.  It raises InstabilityError when any mode, seen from the root
    or not, has Omega^2 <= 0.  Eigenvalues closer than 1e-9 form one
    degenerate mode carrying their summed root weight, and modes whose root
    weight is zero to rounding (below 1e-20 of the total) are dropped.
    Returns (Omega, w) sorted by frequency.
    """
    mu, vecs = np.linalg.eigh(_loop_adjacency(tree))
    omega_sq = params.omega_sq - math.sqrt(2.0) * params.C * mu / params.m
    if np.any(omega_sq <= 0):
        raise InstabilityError(f"unstable mode: min Omega^2 = {omega_sq.min()}")
    first = np.flatnonzero(np.diff(mu, prepend=-np.inf) > 1e-9)
    share = np.add.reduceat(vecs[0] ** 2, first)
    seen = first[share > 1e-20][::-1]
    omega = np.sqrt(omega_sq[seen])
    return omega, params.C**2 / params.m * share[share > 1e-20][::-1] / omega


def _assert_modes_match(got, ref, params):
    """Every reference mode is matched in frequency to 1e-13 relative, and
    carries the summed weight of the modes matched to it to 1e-13 of the
    total; an unmatched mode has root weight below rounding.  No two modes
    the root sees coincide: each is one eigenvalue with its summed weight,
    and a near-copy would be a mode counted twice.  Modes the root does not
    see are dropped, so the mode counts agree."""
    (omega, w), (omega_ref, w_ref) = got, ref
    assert omega.size == omega_ref.size
    nearest = np.abs(omega[:, None] - omega_ref[None, :]).argmin(axis=1)
    matched = np.abs(omega - omega_ref[nearest]) <= 1e-13 * omega_ref[nearest]
    share = w * omega * params.m / params.C**2
    assert np.all(share[~matched] < 1e-20)
    assert np.all(np.diff(omega[share >= 1e-20]) > 1e-9 * omega[-1])
    summed = np.bincount(nearest[matched], weights=share[matched],
                         minlength=omega_ref.size)
    share_ref = w_ref * omega_ref * params.m / params.C**2
    assert np.max(np.abs(summed - share_ref)) <= 1e-13


def test_single_node_equals_leaf_message(ordered_chain):
    lam = 1.3
    single = nb.build_chain(0)
    val = nb.oracle_kernel_laplace(single, ordered_chain, lam)
    expect = ordered_chain.C**2 / 2 * nb.g0_laplace(ordered_chain, lam)
    assert val == pytest.approx(expect, rel=1e-14)


def test_chain_matches_message_passing(ordered_chain, lambda_grid):
    chain = nb.build_chain(35)
    bp = nb.root_output_message(chain, ordered_chain, lambda_grid)
    orc = nb.oracle_kernel_laplace(chain, ordered_chain, lambda_grid)
    assert np.max(np.abs(orc - bp) / np.abs(bp)) <= 1e-10


def test_deep_tree_approaches_branch_fixed_point(narrow_band):
    lam = 2.0
    tree = nb.build_tree(narrow_band.n - 1, 8)
    val = nb.oracle_kernel_laplace(tree, narrow_band, lam)
    k_branch = nb.closed_form_fixed_point(narrow_band, lam) / (narrow_band.n - 1)
    assert val == pytest.approx(k_branch, rel=1e-10)


def test_dense_sparse_agree(ordered_chain):
    # the Lanczos run and banded solve against the dense reference solve
    lam = 0.7
    chain = nb.build_chain(300)
    dense = _dense_kernel(chain, ordered_chain, (lam,))[0]
    sparse = nb.oracle_kernel_laplace(chain, ordered_chain, lam)
    assert dense == pytest.approx(sparse, rel=1e-12)


def test_mode_decomposition_single_node(narrow_band):
    omega_b, w = nb.mode_decomposition(nb.build_chain(0), narrow_band)
    omega = math.sqrt(narrow_band.omega_sq)
    assert omega_b[0] == pytest.approx(omega, rel=1e-14)
    assert w[0] == pytest.approx(narrow_band.C**2 / (narrow_band.m * omega),
                                 rel=1e-14)


def test_mode_support_and_sum_rule(narrow_band):
    # up to 87,381 nodes; the root sees one mode per level
    for depth in (2, 4, 6, 8):
        tree = nb.build_tree(narrow_band.n - 1, depth)
        omega_b, w = nb.mode_decomposition(tree, narrow_band)
        assert omega_b.size == depth + 1
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
    direct = nb.oracle_kernel_laplace(chain, ordered_chain, lam)
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


def test_corner_inverse_gap_guard_takes_a_regular_matrix(ordered_chain):
    p = ordered_chain
    val = _corner(p.C / math.sqrt(2.0),
                  np.array([p.m * (1.0 + p.omega_sq) / 2.0]),
                  *_tree_jacobi(nb.build_chain(5)))
    assert math.isfinite(val[0]) and val[0] > 0.0


@pytest.mark.parametrize("tree", [_irregular_tree(), nb.build_tree(4, 5),
                                  nb.build_chain(400)],
                         ids=["irregular-16", "branching4-1365", "chain-401"])
def test_corner_solve_matches_dense_cholesky(ordered_chain, tree):
    # the banded solve against the dense reference on every tree; on the
    # 1,365-node tree the reference falls back to the symmetric solve at
    # lambda <= 0.7
    lam = np.array([0.1, 0.7, 3.0, 40.0])
    dense = _dense_kernel(tree, ordered_chain, lam)
    got = nb.oracle_kernel_laplace(tree, ordered_chain, lam)
    assert np.max(np.abs(got - dense) / np.abs(dense)) <= 1e-13
    # past C*, at lambda = 0.5 the matrix is indefinite but not near-singular
    # on all three trees, where conjugate gradients would not apply
    p = nb.derive_params(2, 1.0, 2.5, 1.0)
    eig = np.linalg.eigvalsh(_dense_matrix(tree, p, 0.5))
    assert eig.min() < 0.0 < eig.max() and np.abs(eig).min() > 1e-3
    dense = _dense_kernel(tree, p, (0.5,))[0]
    sparse = nb.oracle_kernel_laplace(tree, p, 0.5)
    assert abs(sparse - dense) <= 1e-13 * abs(dense)


@pytest.mark.parametrize("tree", [_irregular_tree(), nb.build_tree(4, 5),
                                  nb.build_chain(400)],
                         ids=["irregular-16", "branching4-1365", "chain-401"])
def test_one_grid_mixes_definite_and_indefinite_shifts(tree):
    # past C*, the small lambda leave M indefinite and the large ones
    # positive definite; one Lanczos run serves the whole grid
    p = nb.derive_params(2, 1.0, 2.5, 1.0)
    lam = np.array([0.3, 0.5, 0.7, 1.3, 3.0, 40.0])
    eig = np.array([np.linalg.eigvalsh(_dense_matrix(tree, p, x)) for x in lam])
    assert np.any(eig.min(axis=1) < 0.0) and np.any(eig.min(axis=1) > 0.0)
    assert np.abs(eig).min() > 1e-3
    dense = _dense_kernel(tree, p, lam)
    got = nb.oracle_kernel_laplace(tree, p, lam)
    assert np.max(np.abs(got - dense) / np.abs(dense)) <= 1e-13


def test_grid_with_a_singular_shift_is_refused_whole(ordered_chain):
    # a chain of 41 nodes has an eigenvalue at 0 whose eigenvector overlaps
    # e_0, so its Jacobi matrix has it too; the gap guard refuses the zero
    # shift before a division by zero
    jacobi = _tree_jacobi(nb.build_chain(40))
    c = ordered_chain.C / math.sqrt(2.0)
    diagonal = np.array([0.5, 0.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="singular"):
            _corner(c, diagonal, *jacobi)
        ok = _corner(c, diagonal[[0, 2]], *jacobi)
    assert np.all(np.isfinite(ok))


def test_shift_on_an_eigenvalue_is_refused():
    # past C* lambda can put sigma on the largest eigenvalue c mu of cA
    # that the root sees; oracle_kernel_laplace refuses that lambda, alone
    # or in a grid, and takes its neighbours
    p = nb.derive_params(2, 1.0, 2.5, 1.0)
    tree = nb.build_tree(2, 4)
    c_mu = p.C / math.sqrt(2.0) * np.linalg.eigvalsh(_loop_adjacency(tree)).max()
    lam = math.sqrt(2.0 * c_mu / p.m - p.omega_sq)
    for grid in (lam, [0.5 * lam, lam]):
        with pytest.raises(DomainError, match="singular"):
            nb.oracle_kernel_laplace(tree, p, grid)
    near = np.array([0.99, 1.01]) * lam
    dense = _dense_kernel(tree, p, near)
    got = nb.oracle_kernel_laplace(tree, p, near)
    assert np.max(np.abs(got - dense) / np.abs(dense)) <= 1e-12


def test_lanczos_run_stops_where_the_krylov_space_is_exhausted(monkeypatch):
    # from the root of a binary tree of depth 12 the Krylov space has 13
    # dimensions: the rounding-level beta after 13 steps ends the run, from
    # a basis allocated for 13 vectors or grown from one to 16, not to the
    # 8,191 nodes
    charges = []
    charge = netbath.oracle._check_bytes
    monkeypatch.setattr(netbath.oracle, "_check_bytes",
                        lambda need, what: (charges.append(what), charge(need, what)))
    tree = nb.build_tree(2, 12)
    alpha, beta, measure = _tree_jacobi(tree)
    assert measure is None
    assert alpha.size == 13 and beta.size == 12
    assert charges == [f"Lanczos basis of 13 vectors of {tree.n_nodes} nodes"]
    grown, _ = _jacobi(_tree_matvec(tree), tree.n_nodes)
    assert grown.size == 13 and len(charges) == 6
    assert charges[-1] == f"Lanczos basis of 16 vectors of {tree.n_nodes} nodes"


def test_oracle_peaks_below_message_passing(narrow_band):
    # the Lanczos basis of the 87,381-node tree holds 9 vectors: over
    # criterion 4's grid the oracle peaked at 15.3 MiB, below the 33.3 MiB of
    # one (node x lambda) array, which message passing held before it formed
    # one row per subtree class
    tree = nb.build_tree(narrow_band.n - 1, 8)
    lam = np.logspace(-1, 2, 50)
    tracemalloc.start()
    try:
        nb.oracle_kernel_laplace(tree, narrow_band, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20 < 8 * tree.n_nodes * lam.size


def _chain_and_leaf(depth):
    """A chain of ``depth`` edges with one more leaf on its root: not a path
    from the root, so its Jacobi matrix takes the Lanczos run."""
    return TreeGraph(parent=np.append(nb.build_chain(depth).parent, 0))


@pytest.mark.parametrize("depth", [*range(61), 400, 2000])
def test_path_jacobi_is_the_run_without_running_it(depth):
    # on a path from its root every Lanczos step is exact arithmetic, so
    # alpha = 0 and beta = 1 are the very bits the run gives.  Its measure,
    # in closed form, is LAPACK's eigenpairs of that matrix (measured: nodes
    # 1.6e-15, weights 6.3e-16, most of it LAPACK's own error).  The nodes
    # ascend; a +-mu pair is an exact pair of negatives with equal weights,
    # an odd path's middle node is exactly 0 and one node is exactly (0, 1)
    chain = nb.build_chain(depth)
    run = _jacobi(_tree_matvec(chain), chain.n_nodes, bipartite=True)
    *got, (mu, weight) = _tree_jacobi(chain)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in run]
    ref_mu, vecs = scipy.linalg.eigh_tridiagonal(*run)
    assert np.max(np.abs(mu - ref_mu)) <= 2e-15
    assert np.max(np.abs(weight - vecs[0] ** 2)) <= 1e-15
    assert np.all(np.diff(mu) > 0.0)
    assert np.array_equal(mu, -mu[::-1])
    assert np.array_equal(weight, weight[::-1])
    if chain.n_nodes % 2:
        assert mu[depth // 2] == 0.0
    if depth == 0:
        assert (mu.tolist(), weight.tolist()) == ([0.0], [1.0])


def test_path_measure_matches_mpmath():
    # against 40 digits: 2 cos(j pi/(k+1)) and (2/(k+1)) sin^2(j pi/(k+1));
    # measured 2.2e-16 on the nodes and 5.6e-17 on the weights, where
    # LAPACK's eigenpairs were 1.6e-15 and 6.3e-16 off
    mpmath = pytest.importorskip("mpmath")
    for k in [*range(1, 61), 400, 2000]:
        mu, weight = _path_measure(k)
        with mpmath.workdps(40):
            angle = [j * mpmath.pi / (k + 1) for j in range(k, 0, -1)]
            ref_mu = [float(2 * mpmath.cos(a)) for a in angle]
            ref_weight = [float(2 * mpmath.sin(a) ** 2 / (k + 1))
                          for a in angle]
        assert np.max(np.abs(mu - ref_mu)) <= 8.9e-16, k
        assert np.max(np.abs(weight - ref_weight)) <= 4e-16, k


def test_path_and_leaf_takes_the_run():
    # one more leaf on the root and the tree is no longer a path: its
    # Jacobi matrix is the run's, and not all of its beta are 1
    tree = _chain_and_leaf(400)
    alpha, beta, measure = _tree_jacobi(tree)
    assert measure is None
    run = _jacobi(_tree_matvec(tree), tree.n_nodes, bipartite=True)
    assert [alpha.tobytes(), beta.tobytes()] == [a.tobytes() for a in run]
    assert alpha.size >= 401 and not np.all(beta == 1.0)


def test_path_modes_take_linear_memory(narrow_band, monkeypatch):
    # a path's modes come in closed form, with no k x k eigenvectors: the
    # 401-node chain, whose eigenproblem a 1 MiB cap refused, now takes 45
    # kB, and the peak stays about 105 bytes a node up to 100,001 nodes
    monkeypatch.setattr(netbath.errors, "BYTE_CAP", 1 << 20)
    for depth in (400, 2000, 20000, 100000):
        chain = nb.build_chain(depth)
        tracemalloc.start()
        try:
            omega, _ = nb.mode_decomposition(chain, narrow_band)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert omega.size == chain.n_nodes
        assert peak <= 120 * chain.n_nodes


def test_lanczos_basis_refused_before_allocating(ordered_chain, monkeypatch):
    # the 402-node path-plus-leaf takes at least 401 Lanczos steps, each
    # vector 3.2 kB; with the cap at 1 MiB the oracle refuses its depth+1
    # vectors at once, and a run from one vector on the 401-node chain is
    # refused where the basis would double from 128 to 256 vectors, the old
    # and the new basis together past the cap
    cap = 1 << 20
    monkeypatch.setattr(netbath.errors, "BYTE_CAP", cap)
    chain = nb.build_chain(400)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="Lanczos basis of 401 vectors"):
            nb.oracle_kernel_laplace(_chain_and_leaf(400), ordered_chain, 0.5)
        with pytest.raises(SizeError, match="Lanczos basis of 256 vectors"):
            _jacobi(_tree_matvec(chain), chain.n_nodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cap


@pytest.mark.parametrize("diagonal", [0.0, 1e-310], ids=["zero", "subnormal"])
def test_corner_inverse_refuses_singular_matrix(ordered_chain, diagonal):
    # a 3-node chain with zero or subnormal diagonal has an eigenvalue at 0
    # whose eigenvector overlaps e_0: no solution exists, and the gap guard
    # refuses the shift
    jacobi = _tree_jacobi(nb.build_chain(2))
    with pytest.raises(DomainError, match="singular"):
        _corner(ordered_chain.C / math.sqrt(2.0), np.array([diagonal]), *jacobi)


def test_gap_guard_refuses_what_is_not_finite(monkeypatch):
    # the tridiagonal solve makes no finiteness scan of its band, as
    # solve_banded did: a nan or infinite shift or coupling leaves the gap
    # nan or its bound infinite, and the guard refuses it before any solve
    def no_solve(*args):
        raise AssertionError("solve reached")
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs",
                        lambda *args: (no_solve,))
    cases = [(1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
             (math.nan, 3.0), (math.inf, 3.0), (-math.inf, 3.0)]
    # the 40-node path has no zero eigenvalue for an infinite c to meet
    for tree in (nb.build_chain(39), _irregular_tree()):
        for c, sigma in cases:
            for shifts in ([sigma], [sigma, 3.0]):
                with pytest.raises(DomainError, match="singular"):
                    _corner(c, np.array(shifts), *_tree_jacobi(tree))


@pytest.mark.parametrize("C", [1.0, 1e-10, 1e-100])
def test_corner_inverse_guard_is_scale_invariant(C):
    # with a zero diagonal the 7-node binary tree's matrix is singular, with
    # a null vector that overlaps e_0.  The gap to c mu_j is measured
    # against |sigma| + |c| max|mu|, so the guard refuses it at every scale,
    # and takes the same matrix with a diagonal of 3C, where the corner
    # scales as 1/C
    jacobi = _tree_jacobi(nb.build_tree(2, 2))
    c = C / math.sqrt(2.0)
    with pytest.raises(DomainError, match="singular"):
        _corner(c, np.array([0.0]), *jacobi)
    assert _corner(c, np.array([3.0 * C]), *jacobi)[0] * C == \
        pytest.approx(8.0 / 21.0, rel=1e-14)


def test_corner_inverse_on_random_regular_graphs():
    # a random 3-regular graph has loops of length about log N, so the
    # resolvent at a node approaches the BP output 1/(a - n k*/(n-1)) as the
    # loops around it grow
    p = nb.derive_params(3, 10.0, 1.0, 0.5)
    lam = np.array([0.5, 2.0])
    a = p.m * (lam**2 + p.omega_sq) / 2.0
    bp = 1.0 / (a - p.n * nb.closed_form_fixed_point(p, lam) / (p.n - 1))
    rng = np.random.default_rng(7)
    errs = []
    for n_nodes, bound in ((200, 1e-11), (2000, 1e-13)):
        adj = _regular_graph(rng, n_nodes, p.n)
        jacobi = _jacobi(lambda x: adj @ x, n_nodes)
        errs.append(np.abs(_corner(p.C / math.sqrt(2.0), a, *jacobi) - bp) / bp)
        assert errs[-1].max() <= bound
    assert np.all(np.less(errs[1], errs[0]))


def _imported_names(module):
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def test_oracle_imports_nothing_of_the_recursion():
    # the oracle is an independent check only while it shares no code with
    # the message passing: of tree_bp it may take the graph alone; and the
    # finite window is checked against the oracle's mode sum only while
    # neither imports the other.  The finite window imports no scipy, so
    # the finite-time command loads none
    for name in _imported_names(netbath.oracle):
        parts = name.split(".")
        assert "laplace" not in parts and "rs" not in parts, name
        assert "finite_time" not in parts, name
        assert "tree_bp" not in parts or parts[-1] == "TreeGraph", name
    for name in _imported_names(netbath.finite_time):
        assert "oracle" not in name.split("."), name
        assert name.split(".")[0] != "scipy", name


def test_tree_matrix_matches_loop_reference():
    # lambda moves only the diagonal, so the adjacency is all the Lanczos
    # run reads of the tree: its product with each unit vector is a column
    # of the loop adjacency, two entries per edge and none on the diagonal
    for tree in (_irregular_tree(), nb.build_tree(3, 3), nb.build_chain(0)):
        matvec = _tree_matvec(tree)
        columns = np.array([matvec(e) for e in np.eye(tree.n_nodes)]).T
        assert columns.dtype == float
        assert np.array_equal(columns, _loop_adjacency(tree))


def test_grid_equals_pointwise(ordered_chain, narrow_band):
    lam = np.array([0.1, 0.7, 3.0, 40.0])
    for tree, params in ((nb.build_chain(60), ordered_chain),
                         (nb.build_tree(4, 4), narrow_band),
                         (_irregular_tree(), ordered_chain)):
        grid = nb.oracle_kernel_laplace(tree, params, lam)
        point = [nb.oracle_kernel_laplace(tree, params, x) for x in lam]
        assert np.array_equal(grid, point)
        # a scalar lambda gives a float, a grid an array of its shape
        assert all(type(x) is float for x in point) and grid.shape == lam.shape
        dense = _dense_kernel(tree, params, lam)
        assert np.allclose(dense, grid, rtol=1e-12, atol=0.0)


def test_jacobi_is_a_scaled_chain_on_regular_trees():
    # seen from the root, a b-ary tree is sqrt(b) times a chain: its levels
    # span the Krylov space, so the run takes depth+1 steps, with alpha
    # exactly 0, as on every bipartite graph, and beta sqrt(b) to rounding
    # (up to 87,381 nodes; b = 1 is a chain, exact).  At b = 5 the rounding
    # grows with depth, to 2.7e-15, 5.8e-15 and 1.1e-13 at depths 6-8
    for b, bound in ((1, 4e-15), (2, 4e-15), (3, 4e-15), (4, 4e-15),
                     (5, 1.2e-13)):
        for depth in range(1, 9):
            alpha, beta, _ = _tree_jacobi(nb.build_tree(b, depth))
            assert alpha.size == depth + 1
            assert np.all(alpha == 0.0)
            assert np.max(np.abs(beta - math.sqrt(b))) <= bound


def test_reached_levels_keep_the_full_width_run():
    # step k reads and writes only the levels 0..k of a tree numbered
    # breadth first: against the run over all N entries, the same step
    # count and alpha exactly, and beta within 5e-15 relative (at b = 5 and
    # depths 7 and 8 the runs differ by 9.8e-15, where each is 1.1e-13 off
    # sqrt(5)).  A tree's first steps are those of the tree cut below them,
    # bit for bit, which the full-width run's are not
    for b in range(1, 6):
        cut = None
        for depth in range(1, 9):
            tree = nb.build_tree(b, depth)
            reach = _reach(tree)
            assert reach.tolist() == [(b ** (k + 1) - 1) // (b - 1) if b > 1
                                      else k + 1 for k in range(depth + 1)]
            args = _tree_matvec(tree), tree.n_nodes
            alpha, beta = _jacobi(*args, bipartite=True, reach=reach)
            full_alpha, full_beta = _jacobi(*args, bipartite=True)
            assert alpha.size == full_alpha.size == depth + 1
            assert alpha.tobytes() == full_alpha.tobytes()
            assert np.max(np.abs(beta - full_beta)) <= 5e-15 * math.sqrt(b)
            if b > 1:
                assert [a.tobytes() for a in _tree_jacobi(tree)[:2]] == \
                    [alpha.tobytes(), beta.tobytes()]
            if cut is not None:
                assert beta[:cut.size].tobytes() == cut.tobytes()
            cut = beta


def test_reach_bounds_the_levels_of_any_numbering():
    # numbered breadth first, the prefix of level k holds its levels alone;
    # numbered depth first, deeper nodes too, and the run keeps the dense
    # corner
    tree = _irregular_tree()
    depth = tree.depth
    reach = _reach(tree)
    assert reach.tolist() == [1 + int(np.flatnonzero(depth <= k).max())
                              for k in range(int(depth.max()) + 1)]
    # depth first: the prefix of level 1, nodes 0-4, holds 2 and 3 of level 2
    dfs = TreeGraph(parent=[-1, 0, 1, 1, 0, 4, 5, 4])
    assert _reach(dfs).tolist() == [1, 5, 8, 8]
    p = nb.derive_params(3, 1.0, 0.4, 1.0)
    lam = np.array([0.3, 1.0, 4.0])
    assert np.allclose(nb.oracle_kernel_laplace(dfs, p, lam),
                       _dense_kernel(dfs, p, lam), rtol=1e-13, atol=0.0)


def test_mode_decomposition_irregular_tree(ordered_chain):
    tree = _irregular_tree()
    got = nb.mode_decomposition(tree, ordered_chain)
    _assert_modes_match(got, _dense_modes_reference(tree, ordered_chain),
                        ordered_chain)
    omega_b, w = got
    assert float(np.sum(w * omega_b)) == pytest.approx(
        ordered_chain.C**2 / ordered_chain.m, rel=1e-12)


def test_mode_decomposition_matches_dense_on_random_trees(narrow_band):
    # narrow_band is stable on every tree here; n = 2 at C = 0.7 is stable up
    # to adjacency radius 2.4/(0.7 sqrt(2)) = 2.42, which 24 of the 50 trees
    # exceed, none within 0.019 of it
    tipping = nb.derive_params(2, 1.0, 0.7, 1.0)
    rng = np.random.default_rng(20240)
    tau = np.linspace(0.0, 60.0, 601)
    unstable = 0
    for _ in range(50):
        tree = _random_tree(rng, int(rng.integers(2, 250)))
        got = nb.mode_decomposition(tree, narrow_band)
        ref = _dense_modes_reference(tree, narrow_band)
        _assert_modes_match(got, ref, narrow_band)
        # Perron-Frobenius: the root sees both extremes of the spectrum
        mu = np.linalg.eigvalsh(_loop_adjacency(tree))
        extremes = np.sqrt(narrow_band.omega_sq - math.sqrt(2.0)
                           * narrow_band.C * mu[[-1, 0]] / narrow_band.m)
        assert np.allclose([got[0].min(), got[0].max()], extremes,
                           rtol=1e-12, atol=0.0)
        kernel = np.sin(np.outer(tau, got[0])) @ got[1]
        kernel_ref = np.sin(np.outer(tau, ref[0])) @ ref[1]
        assert np.max(np.abs(kernel - kernel_ref)) <= \
            1e-13 * np.max(np.abs(kernel_ref))
        try:
            _dense_modes_reference(tree, tipping)
        except InstabilityError:
            unstable += 1
            with pytest.raises(InstabilityError):
                nb.mode_decomposition(tree, tipping)
        else:
            nb.mode_decomposition(tree, tipping)
    assert unstable == 24


def test_corner_matches_dense_on_random_trees(narrow_band):
    # the banded solve on the trees of the test above.  Past C* the small
    # lambda leave M indefinite; shifts that keep M 1e-3 from
    # singular are compared against the corner's own scale, (C^2/2) sum_j
    # v_0j^2/|mu_j| over the eigenpairs of M, which is |corner| where M is
    # definite.  Signed terms can cancel in the corner: 1,010-fold on the
    # 20-node tree at lambda = 0.5, where the dense solve is 3.9e-13 and
    # the oracle 8.5e-13 of the corner from a 40-digit reference
    past = nb.derive_params(2, 1.0, 2.5, 1.0)
    rng = np.random.default_rng(20240)
    indefinite = 0
    for _ in range(50):
        tree = _random_tree(rng, int(rng.integers(2, 250)))
        lam = np.array([0.1, 0.7, 3.0, 40.0])
        dense = _dense_kernel(tree, narrow_band, lam)
        got = nb.oracle_kernel_laplace(tree, narrow_band, lam)
        assert np.max(np.abs(got - dense) / np.abs(dense)) <= 1e-13
        for x in (0.3, 0.5, 0.7, 1.3, 3.0, 40.0):
            mu, vecs = np.linalg.eigh(_dense_matrix(tree, past, x))
            if np.abs(mu).min() <= 1e-3:
                continue
            indefinite += int(mu.min() < 0.0)
            scale = past.C**2 / 2.0 * np.sum(vecs[0] ** 2 / np.abs(mu))
            dense = _dense_kernel(tree, past, (x,))[0]
            got = nb.oracle_kernel_laplace(tree, past, x)
            assert abs(got - dense) <= 1e-13 * scale
    assert indefinite == 123


def test_mode_decomposition_refuses_before_allocating(narrow_band, monkeypatch):
    # a 401-node path forked at its last node into two leaves is no path:
    # its run takes 401 steps (the leaves are symmetric) on a basis of 1.3
    # MB, which peaked at 1.32 MB, and the eigenproblem of the 401 x 401
    # Jacobi matrix is charged 2.7 MB, so with the cap at 2 MiB the modes
    # are refused after the run and before eigh starts
    cap = 2 << 20
    monkeypatch.setattr(netbath.errors, "BYTE_CAP", cap)
    fork = TreeGraph(parent=np.append(nb.build_chain(400).parent, 399))
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="eigenvectors of a 401 x 401"):
            nb.mode_decomposition(fork, narrow_band)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cap


def test_oracle_time_kernel_refuses_oversized_sum(narrow_band):
    # 10^9 tau points against the 4 modes of a depth-3 tree: the sum's output
    # alone would need 8 GB; the broadcast grid itself costs nothing
    tau = np.broadcast_to(0.0, (10**9,))
    tree = nb.build_tree(4, 3)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="sine sum"):
            nb.oracle_time_kernel(tree, narrow_band, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
