"""Independent linear-algebra verification of the cavity recursion.

The scalar map rewritten as a continued fraction,

    k_{d+1} = (C^2/2) / (m(lambda^2+omega^2)/2 - k_d),

is exactly the corner entry recursion of the symmetric tree matrix with
diagonal ``m(lambda^2+omega^2)/2`` and off-diagonal ``C/sqrt(2)``, the latter
fixed by b^2 = C^2/2.  Solving that matrix with a general factorization
therefore gives finite-network kernels through a code path that shares no
code with the message-passing module:

    kernel(lambda) = (C^2/2) [M(lambda)^{-1}]_{root,root}.

The lambda dependence sits entirely on the diagonal, so one eigenpair
decomposition of the adjacency structure yields the exact mode frequencies
and weights of the finite network, and with them the time-domain kernel.

The off-diagonal C/sqrt(2) is a convention derived from matching the cavity
recursion, not a physical identification of the edge Hamiltonian; it is
validated by the band edges omega^2 +- sqrt(8(n-1)) C/m that the adjacency
spectral radius 2 sqrt(branching) reproduces.

The sparsity pattern is assembled once per tree, vectorised from the parent
array with the diagonal stored explicitly; each lambda then writes only the
diagonal entries of a copy.  Small trees are solved by dense Cholesky, larger
ones by sparse LU: measured on one thread, sparse LU overtakes dense Cholesky
at about 85-100 nodes and is about 100x faster at 1,365 nodes (0.3 ms against
36 ms per factor and solve).

The sparse route is SuperLU with the minimum-degree ordering of A + A^T.  On
a tree that ordering eliminates leaves first, so the factors have no fill
(nnz(L) = nnz(U) = 2N - 1) and every supernode is a single column.  The
independence from the recursion therefore lies in the code, not in the
elimination order.  Since no supernode is wider than one column, SuperLU's
default relaxed supernodes and panels only add padding work; it runs with
``relax=1, panel_size=1``, which cuts one factor and solve on the 87,381-node
tree from about 70 to 25 ms.
"""

from __future__ import annotations

import math
import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import DomainError, InstabilityError, _check_bytes
from .model import ModelParams
from .timedomain import TimeKernel
from .tree_bp import TreeGraph

#: Dense symmetric factorization up to this node count, sparse LU above; just
#: above the measured crossover of about 85-100 nodes.
DENSE_LIMIT = 128

#: N x N float64 arrays alive at once in a dense eigendecomposition: the
#: adjacency plus LAPACK's copy, eigenvectors and workspace.
EIGH_ARRAYS = 4


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
    """Yield the sparse tree matrix (CSC, root = node 0) at each lambda.

    The pattern is assembled once; each lambda writes only the diagonal
    entries of a copy of the off-diagonal data.
    """
    adj, diag_pos = _adjacency(tree)
    offdiag = adj.data * -(params.C / math.sqrt(2.0))
    for lam in lambdas:
        data = offdiag.copy()
        data[diag_pos] = params.m * (lam**2 + params.omega_sq) / 2.0
        yield scipy.sparse.csc_matrix((data, adj.indices, adj.indptr),
                                      shape=adj.shape)


def tree_matrix(tree: TreeGraph, params: ModelParams,
                lam: float) -> scipy.sparse.csc_matrix:
    """Assemble ``(m/2)(lambda^2+omega^2) I - (C/sqrt(2)) A`` for the tree."""
    return next(_tree_matrices(tree, params, (lam,)))


def _corner_inverse(mat: scipy.sparse.csc_matrix,
                    dense_limit: int = DENSE_LIMIT) -> float:
    """[M^{-1}]_{0,0}, the root corner, by dense or sparse symmetric solve."""
    n = mat.shape[0]
    e = np.zeros(n)
    e[0] = 1.0
    if n <= dense_limit:
        dense = mat.toarray()
        try:
            cho = scipy.linalg.cho_factor(dense, check_finite=False)
            x = scipy.linalg.cho_solve(cho, e, check_finite=False)
        except scipy.linalg.LinAlgError:
            # Indefinite at this lambda; fall back to a general solve.
            try:
                x = scipy.linalg.solve(dense, e, assume_a="sym",
                                       check_finite=False)
            except scipy.linalg.LinAlgError as exc:
                raise DomainError(f"tree matrix is singular: {exc}") from exc
    else:
        # MMD orders a tree leaves first with no fill, so every supernode is
        # one column: larger relaxed supernodes and panels only pad.
        try:
            lu = scipy.sparse.linalg.splu(mat,
                                          permc_spec="MMD_AT_PLUS_A",
                                          relax=1, panel_size=1)
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise DomainError(f"tree matrix is singular: {exc}") from exc
        x = lu.solve(e)
    corner = float(x[0])
    residual = np.abs(mat @ x - e).max()
    if not math.isfinite(corner) or residual > 1e-8 * (1.0 + np.abs(x).max()):
        raise DomainError(
            f"tree matrix is singular or near-singular (residual {residual:.3g})")
    return corner


def oracle_kernel_laplace(tree: TreeGraph, params: ModelParams, lam: float,
                          dense_limit: int = DENSE_LIMIT) -> float:
    """Exact finite-tree kernel (C^2/2) [M^{-1}]_{root,root} at one lambda."""
    return float(oracle_kernel_laplace_grid(tree, params, [lam], dense_limit)[0])


def oracle_kernel_laplace_grid(tree: TreeGraph, params: ModelParams,
                               lambda_grid, dense_limit: int = DENSE_LIMIT) -> np.ndarray:
    """:func:`oracle_kernel_laplace` over a lambda grid, assembling the tree once.

    Every lambda still gets its own factorisation and residual check.
    """
    matrices = _tree_matrices(tree, params, np.asarray(lambda_grid, dtype=float))
    return np.array([params.C**2 / 2.0 * _corner_inverse(mat, dense_limit)
                     for mat in matrices])


def mode_decomposition(tree: TreeGraph, params: ModelParams):
    """Mode frequencies and root weights of the finite network.

    Adjacency eigenpairs (mu_b, v_b) give ``Omega_b^2 = omega^2 - sqrt(2) C
    mu_b / m`` and ``w_b = (C^2/m) v_{root,b}^2 / Omega_b``; the exact kernel
    is then ``k(tau) = sum_b w_b sin(Omega_b tau)``.  Returns (Omega, w)
    sorted by frequency.  Raises :class:`SizeError`, before allocating, when
    the dense eigendecomposition would need more than ``BYTE_CAP`` bytes.
    """
    if not params.band_defined:
        raise DomainError("band edges are not real at these parameters")
    n = tree.n_nodes
    _check_bytes(EIGH_ARRAYS * 8 * n * n,
                 f"dense eigendecomposition of {n} nodes")
    mu, vecs = np.linalg.eigh(_adjacency(tree)[0].toarray())
    omega_b_sq = params.omega_sq - math.sqrt(2.0) * params.C * mu / params.m
    if np.any(omega_b_sq <= 0):
        raise InstabilityError(
            f"unstable mode: min Omega^2 = {omega_b_sq.min():.6g}")
    omega_b = np.sqrt(omega_b_sq)
    weights = params.C**2 / params.m * vecs[0] ** 2 / omega_b
    order = np.argsort(omega_b)
    return omega_b[order], weights[order]


def oracle_time_kernel(tree: TreeGraph, params: ModelParams, tau_grid) -> TimeKernel:
    """Exact finite-tree kernel in the time domain from the mode sum."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    omega_b, weights = mode_decomposition(tree, params)
    values = np.sin(np.outer(tau_grid, omega_b)) @ weights
    return TimeKernel(tau=tau_grid, values=values, params=params,
                      meta={"n_modes": omega_b.size})
