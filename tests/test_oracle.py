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
from netbath.oracle import _class_tree, _corner_inverse, _coupling_matrix
from netbath.tree_bp import TreeGraph


def _irregular_tree():
    """Hand-made rooted tree with uneven branching and leaves at many depths."""
    parent = [-1, 0, 0, 0, 1, 1, 3, 4, 4, 4, 4, 6, 8, 12, 12, 13]
    levels = [[0], [1, 2, 3], [4, 5, 6], [7, 8, 9, 10, 11], [12], [13, 14],
              [15]]
    return TreeGraph(parent=np.array(parent),
                     levels=[np.array(lv) for lv in levels])


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
    parent, levels = [-1], [[0]]
    while len(parent) < max_nodes:
        level = []
        for v in levels[-1]:
            for _ in range(rng.integers(0 if v else 1, max_kids + 1)):
                if len(parent) < max_nodes:
                    level.append(len(parent))
                    parent.append(v)
        if not level:
            break
        levels.append(level)
    return TreeGraph(parent=np.array(parent),
                     levels=[np.array(lv) for lv in levels])


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
    # the sparse MINRES route against the dense reference solve
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


def test_corner_inverse_residual_guard(ordered_chain):
    p = ordered_chain
    val = _corner_inverse(_coupling_matrix(nb.build_chain(5), p),
                          p.m * (1.0 + p.omega_sq) / 2.0)
    assert math.isfinite(val) and val > 0.0


@pytest.mark.parametrize("tree", [_irregular_tree(), nb.build_tree(4, 5),
                                  nb.build_chain(400)],
                         ids=["irregular-16", "branching4-1365", "chain-401"])
def test_corner_solve_matches_dense_cholesky(ordered_chain, tree):
    # MINRES against the dense reference on every tree; on the 1,365-node
    # tree the reference falls back to the symmetric solve at lambda <= 0.7
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
    # e_0; the Lanczos run exhausts its Krylov space with beta exactly 0 and
    # stops there, so the refusal comes from the residual guard, not from a
    # division by zero
    coupling = _coupling_matrix(nb.build_chain(40), ordered_chain)
    diagonal = np.array([0.5, 0.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="singular"):
            _corner_inverse(coupling, diagonal)
        ok = _corner_inverse(coupling, diagonal[[0, 2]])
    assert np.all(np.isfinite(ok))


def test_lanczos_run_stops_where_the_krylov_space_is_exhausted(narrow_band,
                                                               monkeypatch):
    # from the root of a binary tree of depth 12 the Krylov space has 13
    # dimensions; a NaN shift passes no convergence test, so only the
    # rounding-level beta after 13 steps ends the run, and the residual
    # guard refuses the shift instead of a basis grown to the size cap
    steps = []
    charge = netbath.oracle._check_bytes
    monkeypatch.setattr(netbath.oracle, "_check_bytes",
                        lambda need, what: (steps.append(what), charge(need, what)))
    coupling = _coupling_matrix(nb.build_tree(2, 12), narrow_band)
    with pytest.raises(DomainError, match="singular"):
        _corner_inverse(coupling, np.array([1.0, np.nan]))
    assert len(steps) == 13


def test_oracle_peaks_below_message_passing(narrow_band):
    # the Lanczos basis of the 87,381-node tree holds 9 vectors, against
    # message passing's (node x lambda) arrays over criterion 4's grid
    tree = nb.build_tree(narrow_band.n - 1, 8)
    lam = np.logspace(-1, 2, 50)
    peaks = []
    for f in (nb.oracle_kernel_laplace, nb.root_output_message):
        tracemalloc.start()
        try:
            f(tree, narrow_band, lam)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]


def test_lanczos_basis_refused_before_allocating(ordered_chain, monkeypatch):
    # past C* the 401-node chain takes 401 Lanczos steps; with the cap at
    # 1 MiB, and each 3.2 kB vector charged twice (the list and its stacked
    # copy), the basis is refused at its 164th vector
    cap = 1 << 20
    monkeypatch.setattr(netbath.errors, "BYTE_CAP", cap)
    p = nb.derive_params(2, 1.0, 2.5, 1.0)
    coupling = _coupling_matrix(nb.build_chain(400), p)
    diagonal = p.m * (0.5**2 + p.omega_sq) / 2.0
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match="Lanczos basis"):
            _corner_inverse(coupling, diagonal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cap


@pytest.mark.parametrize("diagonal", [0.0, 1e-310], ids=["zero", "subnormal"])
def test_corner_inverse_refuses_singular_matrix(ordered_chain, diagonal):
    # a 3-node chain with zero or subnormal diagonal has an eigenvalue at 0
    # whose eigenvector overlaps e_0: no solution exists, and the residual
    # guard refuses the least-squares one MINRES returns
    coupling = _coupling_matrix(nb.build_chain(2), ordered_chain)
    with pytest.raises(DomainError, match="singular"):
        _corner_inverse(coupling, diagonal)


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
        adj = -p.C / math.sqrt(2.0) * _regular_graph(rng, n_nodes, p.n)
        errs.append(np.abs(_corner_inverse(adj, a) - bp) / bp)
        assert errs[-1].max() <= bound
    assert np.all(np.less(errs[1], errs[0]))


def test_oracle_imports_nothing_of_the_recursion():
    # the oracle is an independent check only while it shares no code with
    # the message passing: of tree_bp it may take the graph alone
    source = Path(netbath.oracle.__file__).read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            assert "laplace" not in parts and "rs" not in parts, name
            assert "tree_bp" not in parts or parts[-1] == "TreeGraph", name


def test_tree_matrix_matches_loop_reference(ordered_chain, narrow_band):
    # lambda moves only the diagonal, so the coupling is all there is to
    # build, once per tree: two entries per edge and none on the diagonal
    for tree, params in ((_irregular_tree(), ordered_chain),
                         (nb.build_tree(3, 3), narrow_band),
                         (nb.build_chain(0), ordered_chain)):
        mat = _coupling_matrix(tree, params)
        assert isinstance(mat, scipy.sparse.csr_matrix)
        expect = -params.C / math.sqrt(2.0) * _loop_adjacency(tree)
        assert np.array_equal(mat.toarray(), expect)
        assert mat.nnz == 2 * (tree.n_nodes - 1)


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


def test_class_tree_is_a_chain_on_regular_trees():
    # seen from the root, a b-ary tree is sqrt(b) times a chain: its classes
    # are its depth+1 levels, each b nodes under each node of the one above
    # (up to 87,381 nodes)
    for b in (2, 3, 4):
        for depth in range(1, 9):
            class_parent, multiplicity = _class_tree(
                nb.build_tree(b, depth).parent)
            assert np.array_equal(class_parent, np.arange(-1, depth))
            assert np.array_equal(multiplicity[1:], np.full(depth, b))


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


def test_mode_decomposition_refuses_before_allocating(narrow_band):
    # a 20,001-node chain: every node is a class of its own, so the
    # eigenvectors of its class tree would be 20,001 x 20,001 float64, 3 GiB
    tree = nb.build_chain(20000)
    tracemalloc.start()
    try:
        with pytest.raises(SizeError):
            nb.mode_decomposition(tree, narrow_band)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
