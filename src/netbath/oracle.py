"""Independent linear-algebra verification of the cavity recursion.

The scalar map rewritten as a continued fraction,

    k_{d+1} = (C^2/2) / (m(lambda^2+omega^2)/2 - k_d),

is exactly the corner entry recursion of the symmetric tree matrix with
diagonal ``m(lambda^2+omega^2)/2`` and off-diagonal ``C/sqrt(2)``, the latter
fixed by b^2 = C^2/2.  Solving that matrix with a general linear solver
therefore gives finite-network kernels through a code path that shares no
code with the message-passing module:

    kernel(lambda) = (C^2/2) [M(lambda)^{-1}]_{root,root}.

The lambda dependence sits entirely on the diagonal, so the spectral measure
of the adjacency seen from the root gives the exact mode frequencies and
weights of the finite network, and with them the time-domain kernel.  That
measure is the one of a Jacobi (tridiagonal) matrix, which Lanczos from the
root vector builds on the sparse adjacency (the Haydock-Heine-Kelly
recursion, J. Phys. C 5, 2845 (1972)); its eigenvalues and first eigenvector
components are the Gauss nodes and weights (Golub & Welsch, Math. Comp. 23,
221 (1969)).  Only modes the root sees come out, a degenerate eigenvalue once
with its summed weight: depth+1 modes on a regular tree of any size, where a
dense eigendecomposition of the N x N adjacency returns N, most of zero
weight.  Lanczos stops at breakdown, a new coefficient below BREAKDOWN_TOL of
the largest, or at the number of node classes under the automorphisms that
fix the root, which bounds the dimension of the root's Krylov space and
sizes the basis before it is allocated.  A tree is connected and bipartite,
so by Perron-Frobenius the extreme adjacency eigenvalues +-rho(A) have
eigenvectors with no zero entry: the root sees them, and the extreme mode
frequencies it returns are those of the whole network.

The off-diagonal C/sqrt(2) is a convention derived from matching the cavity
recursion, not a physical identification of the edge Hamiltonian; it is
validated by the band edges omega^2 +- sqrt(8(n-1)) C/m that the adjacency
spectral radius 2 sqrt(branching) reproduces.

The sparsity pattern is assembled once per tree, vectorised from the parent
array with the diagonal stored explicitly; each lambda then writes only the
diagonal entries of a copy.  The corner comes from one MINRES solve per
lambda (Paige & Saunders, SIAM J. Numer. Anal. 12, 617 (1975)): no
factorisation, so no fill on a graph with loops, and it takes the indefinite
matrices past C* as well.  A true-residual guard checks every lambda.
"""

from __future__ import annotations

import math
import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import DomainError, InstabilityError, _check_bytes
from .model import ModelParams
from .timedomain import TimeKernel, _sine_sum
from .tree_bp import TreeGraph

#: Lanczos breakdown: a new coefficient below this fraction of the largest
#: one.  What a smaller one would couple to the root carries weight of its
#: square, below rounding in any kernel.
BREAKDOWN_TOL = 1e-8


def _adjacency(tree: TreeGraph) -> tuple[scipy.sparse.csc_matrix, np.ndarray]:
    """Tree adjacency in sorted CSC form, its zero diagonal stored explicitly.

    Returns the matrix and the positions of the diagonal entries in its data
    array, so that a matrix on the same pattern needs only new data.
    """
    n = tree.n_nodes
    child = np.flatnonzero(tree.parent >= 0)
    parent = tree.parent[child]
    node = np.arange(n)
    rows = np.concatenate((node, child, parent))
    cols = np.concatenate((node, parent, child))
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    adj = scipy.sparse.csc_matrix(((rows != cols).astype(float), rows, indptr),
                                  shape=(n, n))
    return adj, np.flatnonzero(rows == cols)


def _tree_matrices(tree: TreeGraph, params: ModelParams, lambdas):
    """Yield the sparse tree matrix at each lambda.

    The matrix is ``(m/2)(lambda^2+omega^2) I - (C/sqrt(2)) A`` in CSC form,
    root = node 0.  The pattern is assembled once; each lambda writes only
    the diagonal entries of a copy of the off-diagonal data.
    """
    adj, diag_pos = _adjacency(tree)
    offdiag = adj.data * -(params.C / math.sqrt(2.0))
    for lam in lambdas:
        data = offdiag.copy()
        data[diag_pos] = params.m * (lam**2 + params.omega_sq) / 2.0
        yield scipy.sparse.csc_matrix((data, adj.indices, adj.indptr),
                                      shape=adj.shape)


def _corner_inverse(mat: scipy.sparse.csc_matrix) -> float:
    """[M^{-1}]_{0,0}, the root corner, by MINRES from e_0."""
    e = np.zeros(mat.shape[0])
    e[0] = 1.0
    x, _ = scipy.sparse.linalg.minres(mat, e, rtol=1e-14)
    corner = float(x[0])
    residual = np.abs(mat @ x - e).max()
    if not math.isfinite(corner) or residual > 1e-8 * (1.0 + np.abs(x).max()):
        raise DomainError(
            f"tree matrix is singular or near-singular (residual {residual:.3g})")
    return corner


def oracle_kernel_laplace(tree: TreeGraph, params: ModelParams, lam: float,
                          dense_limit=None) -> float:
    """Exact finite-tree kernel (C^2/2) [M^{-1}]_{root,root} at one lambda.

    ``dense_limit`` is accepted and ignored.  It chose between a dense and a
    sparse factorisation before the single MINRES path, and the benchmark's
    warm-up (``warm_up("check")`` in ``perfbench/jobs.py``) still passes it;
    it goes with the next change to the benchmark.
    """
    return float(oracle_kernel_laplace_grid(tree, params, [lam])[0])


def oracle_kernel_laplace_grid(tree: TreeGraph, params: ModelParams,
                               lambda_grid) -> np.ndarray:
    """:func:`oracle_kernel_laplace` over a lambda grid, assembling the tree once.

    Every lambda still gets its own solve and residual check.
    """
    matrices = _tree_matrices(tree, params, np.asarray(lambda_grid, dtype=float))
    return np.array([params.C**2 / 2.0 * _corner_inverse(mat)
                     for mat in matrices])


def _root_classes(parent: np.ndarray) -> int:
    """Node classes of a tree under the automorphisms that fix the root.

    Nodes are numbered breadth-first, so every child follows its parent.
    Bottom-up, each inner node gets the id of its subtree's shape: its count
    of leaf children and the sorted shapes of the others.  Top-down, its
    class is the pair (class of its parent, its shape), and the leaves under
    one class form one class.  The root's Krylov space lies in the span of
    the class indicators, so the count bounds its dimension: depth+1 on a
    regular tree, N on a chain.
    """
    n_kids = np.bincount(parent[1:], minlength=parent.size)
    leaf_kids = np.bincount(parent[1:][n_kids[1:] == 0],
                            minlength=parent.size).tolist()
    inner = np.flatnonzero(n_kids).tolist()
    par = parent.tolist()
    kids = {v: [] for v in inner}
    shape, shapes = {}, {}
    for v in reversed(inner[1:]):
        key = (leaf_kids[v], tuple(sorted(kids[v])))
        shape[v] = shapes.setdefault(key, len(shapes))
        kids[par[v]].append(shape[v])
    cls, classes = {0: 0}, {}
    for v in inner[1:]:
        cls[v] = classes.setdefault((cls[par[v]], shape[v]), len(classes) + 1)
    return 1 + len(classes) + len({cls[v] for v in inner if leaf_kids[v]})


def _lanczos(adj: scipy.sparse.csc_matrix, k_max: int) -> np.ndarray:
    """Off-diagonal of the Jacobi matrix of a tree adjacency seen from e_0.

    A tree is bipartite, so q_j lives on the nodes whose depth has the parity
    of j: every diagonal entry q_j . A q_j is exactly 0, and vectors of
    opposite parity are exactly orthogonal.  Each step runs the three-term
    recurrence, then reorthogonalises in full against the vectors of its own
    parity: one classical Gram-Schmidt pass, and a second only when the
    first cut the norm below 1/sqrt(2) of its value.  Under breadth-first
    numbering the vectors so far are zero past the nodes they reach, one
    level further per step, so that work runs over those nodes, not all N.
    It stops at breakdown, when the new coefficient falls below
    ``BREAKDOWN_TOL`` times the largest norm seen, or after ``k_max``
    vectors, a bound on the dimension of the root's Krylov space.
    """
    n = adj.shape[0]
    # basis[j % 2, j // 2] is q_j, so each parity's vectors are contiguous.
    basis = np.zeros((2, (k_max + 1) // 2, n))
    basis[0, 0, 0] = 1.0
    beta = np.empty(k_max)
    # Nodes reached from the first c: with sorted indices and a stored
    # diagonal, a column's last index is its largest row.
    reach_after = (np.maximum.accumulate(adj.indices[adj.indptr[1:] - 1])
                   + 1).tolist()
    reach, scale = 1, 0.0
    for j in range(k_max):
        w = adj @ basis[j % 2, j // 2]
        reach = reach_after[reach - 1]
        q, v = basis[(j + 1) % 2, :(j + 1) // 2, :reach], w[:reach]
        if j:
            v -= beta[j - 1] * q[-1]
        before = math.sqrt(v @ v)
        scale = max(scale, before)
        v -= (q @ v) @ q
        after = math.sqrt(v @ v)
        if after < before / math.sqrt(2.0):
            v -= (q @ v) @ q
            after = math.sqrt(v @ v)
        if j + 1 == k_max or after <= BREAKDOWN_TOL * scale:
            return beta[:j]
        beta[j] = after
        basis[(j + 1) % 2, (j + 1) // 2, :reach] = v / after


def mode_decomposition(tree: TreeGraph, params: ModelParams):
    """Frequencies and root weights of the modes the root of the tree sees.

    The eigenpairs (mu_j, s_j) of the root's Jacobi matrix give ``Omega_j^2 =
    omega^2 - sqrt(2) C mu_j / m`` and ``w_j = (C^2/m) s_{0j}^2 / Omega_j``;
    the exact kernel is then ``k(tau) = sum_j w_j sin(Omega_j tau)``.
    Degenerate modes come out merged, and by the Perron argument of the
    module docstring the extreme Omega are those of the whole network.  On an
    irregular tree rounding can carry Lanczos past a breakdown; the modes it
    then adds carry root weight at the rounding level, and those below 1e-20
    of the total are dropped, so every mode returned is one the root sees.
    Returns (Omega, w) sorted by frequency.
    Raises :class:`InstabilityError` when some Omega^2 <= 0, and
    :class:`SizeError`, before the Lanczos basis is allocated, when it would
    need more than ``BYTE_CAP`` bytes.
    """
    if not params.band_defined:
        raise DomainError("band edges are not real at these parameters")
    n = tree.n_nodes
    chain = np.array_equal(tree.parent[1:], np.arange(n - 1))

    def check_basis(k):
        _check_bytes(8 * n * (k + 1), f"{k} Krylov vectors on {n} nodes")

    # The root's Krylov space reaches one level deeper per step, so it has at
    # least depth+1 dimensions: a free refusal before classes are counted.
    check_basis(len(tree.levels))
    k_max = n if chain else _root_classes(tree.parent)
    check_basis(k_max)
    # A chain numbered from its root end is its own Jacobi matrix.
    beta = np.ones(n - 1) if chain else _lanczos(_adjacency(tree)[0], k_max)
    mu, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(beta.size + 1), beta)
    omega_b_sq = params.omega_sq - math.sqrt(2.0) * params.C * mu / params.m
    if np.any(omega_b_sq <= 0):
        raise InstabilityError(
            f"unstable mode: min Omega^2 = {omega_b_sq.min():.6g}")
    share = vecs[0] ** 2
    seen = share >= 1e-20 * share.sum()
    omega_b = np.sqrt(omega_b_sq[seen])
    weights = params.C**2 / params.m * share[seen] / omega_b
    order = np.argsort(omega_b)
    return omega_b[order], weights[order]


def oracle_time_kernel(tree: TreeGraph, params: ModelParams, tau_grid) -> TimeKernel:
    """Exact finite-tree kernel in the time domain from the mode sum.

    Raises :class:`SizeError`, before the (tau x mode) sum is allocated, when
    it would need more than ``BYTE_CAP`` bytes.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    omega_b, weights = mode_decomposition(tree, params)
    values = _sine_sum(tau_grid, omega_b, weights)
    return TimeKernel(tau=tau_grid, values=values, params=params,
                      meta={"n_modes": omega_b.size})
