"""Independent linear-algebra verification of the cavity recursion.

The scalar map rewritten as a continued fraction,

    k_{d+1} = (C^2/2) / (m(lambda^2+omega^2)/2 - k_d),

is exactly the corner entry recursion of the symmetric tree matrix
M(lambda) = sigma I - c A, with sigma = m(lambda^2+omega^2)/2 on the
diagonal, A the tree's adjacency and c = C/sqrt(2), the latter fixed by
b^2 = C^2/2.  Solving that matrix with general linear algebra therefore
gives finite-network kernels through a code path that shares no code with
the message-passing module:

    kernel(lambda) = (C^2/2) [M(lambda)^{-1}]_{root,root}.

Lambda moves only sigma, so all the root sees of the network is the spectral
measure of A at the root, and one Lanczos run from e_0 gives it: the Jacobi
matrix T, with alpha_j on its diagonal and beta_j beside it, is A on the
Krylov space of e_0.  By Golub & Welsch (Math. Comp. 23, 221 (1969)) the
eigenvalues mu_j of T and the squared first components of its eigenvectors
are the nodes and weights of that measure: the mode frequencies
Omega_j^2 = omega^2 - sqrt(2) C mu_j / m and their root weights, only modes
the root sees, a degenerate eigenvalue once with its summed weight.  They
give the time-domain kernel.  On the Laplace side the corner of M^{-1} is
that of sigma - cT, one banded solve per lambda.  A lambda whose sigma lies
within 1e-8 of the scale of M from some c mu_j leaves M singular or
near-singular, and that gap guard refuses it.  The run does not depend on
lambda, so one run serves a grid, and a point gets the bits it gets in one.

The run reorthogonalises each new vector against the basis vectors of its
parity; plain Lanczos loses orthogonality on irregular trees, and with it
the modes.  The Krylov space of a tree from its root holds a vector that
reaches each level, so the run takes at least depth+1 steps: exactly that
many on a b-ary tree, whose levels span the space and whose T is sqrt(b)
times a chain, the chain mapping of Chin, Rivas, Huelga & Plenio (J. Math.
Phys. 51, 092109 (2010)); N steps on a chain of N nodes.  The matrix-vector
product is two scatters over the parent array.  A tree is connected and
bipartite, so by Perron-Frobenius the extreme adjacency eigenvalues +-rho(A)
are simple, with eigenvectors that have no zero entry, the root's entry
among them.  The root therefore sees both, T keeps +-rho(A), and the extreme
mode frequencies the root sees are those of the whole network.

The off-diagonal C/sqrt(2) is a convention derived from matching the cavity
recursion, not a physical identification of the edge Hamiltonian; it is
validated by the band edges omega^2 +- sqrt(8(n-1)) C/m that the adjacency
spectral radius 2 sqrt(branching) reproduces.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import DomainError, InstabilityError, _check_bytes
from .model import ModelParams, _band, _laplace_s
from .timedomain import TimeKernel, _sine_sum
from .tree_bp import TreeGraph


def _tree_matvec(tree: TreeGraph):
    """``x -> A x`` for the tree's adjacency A: each node gathers its
    children by a bincount over the parent array and its parent by an
    indexed add."""
    child_of = tree.parent[1:]
    n = tree.n_nodes

    def matvec(x):
        # float even for one node, where the bincount is empty and int
        y = np.bincount(child_of, weights=x[1:], minlength=n).astype(float, copy=False)
        y[1:] += x[child_of]
        return y
    return matvec


def _jacobi(matvec, n: int, k_min: int = 1, bipartite: bool = False):
    """Jacobi matrix (alpha, beta) of a symmetric n x n operator from e_0.

    Lanczos with full reorthogonalisation: each new vector is projected out
    of the whole basis by classical Gram-Schmidt, a second time when the
    first pass leaves less than 1/sqrt(2) of its norm (Parlett, The
    Symmetric Eigenvalue Problem, 1980, sec. 6-9).  A ``bipartite``
    operator, whose e_0 side holds the even vectors and the other side the
    odd ones, keeps each new vector exactly zero off its own side, so it is
    projected out of the vectors of its parity only.  The run stops when beta
    falls to 1e-10 of the largest coefficient seen, where the Krylov space
    is exhausted, or after n steps.  The basis is allocated for ``k_min``
    vectors, a lower bound on the steps, and doubled when full; each
    allocation is charged, old and new basis together, before it is made.
    Returns alpha of the k steps and beta of the k-1 couplings between them.
    Raises :class:`SizeError` when the basis would pass ``BYTE_CAP``.
    """
    size = max(1, min(k_min, n))
    _check_bytes(8 * n * size, f"Lanczos basis of {size} vectors of {n} nodes")
    basis = np.zeros((size, n))
    basis[0, 0] = 1.0
    alpha, beta, largest = [], [], 0.0
    for k in range(1, n + 1):
        q = basis[k - 1]
        r = matvec(q)
        alpha.append(float(q @ r))
        r -= alpha[-1] * q
        if beta:
            r -= beta[-1] * basis[k - 2]
        rows = basis[k % 2:k:2] if bipartite else basis[:k]
        for _ in range(2):
            before = np.linalg.norm(r)
            r -= (rows @ r) @ rows
            norm = float(np.linalg.norm(r))
            if norm >= before / math.sqrt(2.0):
                break
        largest = max(largest, abs(alpha[-1]))
        if k == n or norm <= 1e-10 * largest:
            break
        largest = max(largest, norm)
        if k == size:
            grown = min(n, 2 * size)
            _check_bytes(8 * n * (size + grown),
                         f"Lanczos basis of {grown} vectors of {n} nodes")
            basis = np.concatenate((basis, np.empty((grown - size, n))))
            size = grown
        basis[k] = r / norm
        beta.append(norm)
    return np.array(alpha), np.array(beta)


def _tree_jacobi(tree: TreeGraph):
    """The root's Jacobi matrix, its basis first allocated for depth+1
    vectors, so a tree too deep for the cap is refused for free."""
    return _jacobi(_tree_matvec(tree), tree.n_nodes, int(tree.depth.max()) + 1,
                   bipartite=True)


def _corner(alpha, beta, c: float, sigma: np.ndarray) -> np.ndarray:
    """``[(sigma - c T)^{-1}]_{0,0}`` for each shift of the flat array
    ``sigma``, T the Jacobi matrix (alpha, beta), by one banded solve each.

    Raises :class:`DomainError` when some shift lies within 1e-8 (|sigma|
    + |c| max|mu|) of an eigenvalue c mu_j of cT: the matrix is singular
    or near-singular there.
    """
    import scipy.linalg

    c_mu = c * scipy.linalg.eigvalsh_tridiagonal(alpha, beta)
    reach = np.abs(c_mu).max()
    band = np.zeros((3, alpha.size))
    band[0, 1:] = band[2, :-1] = -c * beta
    e = np.zeros(alpha.size)
    e[0] = 1.0
    corner = np.empty(sigma.size)
    for i, s in enumerate(sigma.tolist()):
        gap = np.abs(s - c_mu).min()
        if not gap > 1e-8 * (abs(s) + reach):
            raise DomainError(
                f"tree matrix is singular or near-singular (gap {gap:.3g})")
        band[1] = s - c * alpha
        corner[i] = scipy.linalg.solve_banded((1, 1), band, e)[0]
    return corner


def oracle_kernel_laplace(tree: TreeGraph, params: ModelParams, lam,
                          dense_limit=None):
    """Exact finite-tree kernel (C^2/2) [M(lambda)^{-1}]_{root,root}.

    A float for a scalar ``lam``, an array for a grid; DomainError where
    :func:`~netbath.model._laplace_s` raises it, or where M is singular or
    near-singular.  One Lanczos run gives the root's Jacobi matrix, and each
    lambda takes one banded solve on it.  ``dense_limit`` is ignored; the
    benchmark's warm-up (``warm_up("check")`` in ``perfbench/jobs.py``)
    passes it.
    """
    sigma = params.m * _laplace_s(params, lam) / 2.0
    alpha, beta = _tree_jacobi(tree)
    c = params.C / math.sqrt(2.0)
    kernel = params.C**2 / 2.0 * _corner(alpha, beta, c, sigma.ravel())
    return float(kernel[0]) if sigma.ndim == 0 else kernel.reshape(sigma.shape)


def mode_decomposition(tree: TreeGraph, params: ModelParams):
    """Frequencies and root weights of the modes the root of the tree sees.

    The eigenpairs (mu_j, s_j) of the root's Jacobi matrix give ``Omega_j^2
    = omega^2 - sqrt(2) C mu_j / m`` and ``w_j = (C^2/m) s_{0j}^2 /
    Omega_j``; the exact kernel is then ``k(tau) = sum_j w_j sin(Omega_j
    tau)``.  Eigenvalues closer than 1e-9 are one mode carrying their summed
    weight, and modes of root weight below 1e-20 of the total are dropped,
    so every mode returned is one the root sees.  By the Perron argument of
    the module docstring the extreme Omega are those of the whole network.
    A decoupled network (C = 0) has no modes.  Returns (Omega, w) sorted by
    frequency.  Raises :class:`InstabilityError` when some Omega^2 <= 0, and
    :class:`SizeError` when the Lanczos basis would need more than
    ``BYTE_CAP`` bytes; the k x k eigenvectors need no more than the k
    basis vectors of N >= k nodes.
    """
    if not _band(params):
        return np.empty(0), np.empty(0)
    import scipy.linalg

    mu, vecs = scipy.linalg.eigh_tridiagonal(*_tree_jacobi(tree))
    omega_b_sq = params.omega_sq - math.sqrt(2.0) * params.C * mu / params.m
    if np.any(omega_b_sq <= 0):
        raise InstabilityError(
            f"unstable mode: min Omega^2 = {omega_b_sq.min():.6g}")
    first = np.flatnonzero(np.diff(mu, prepend=-np.inf) > 1e-9)
    share = np.add.reduceat(vecs[0] ** 2, first)
    seen = share >= 1e-20 * share.sum()
    omega_b = np.sqrt(omega_b_sq[first][seen])
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
