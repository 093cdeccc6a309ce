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
that of sigma - cT, one tridiagonal solve per lambda.  A lambda whose sigma lies
within 1e-8 of the scale of M from some c mu_j leaves M singular or
near-singular, and that gap guard refuses it.  The run does not depend on
lambda, so one run serves a grid, and a point gets the bits it gets in one.

The run reorthogonalises each new vector against the basis vectors of its
parity; plain Lanczos loses orthogonality on irregular trees, and with it
the modes.  The Krylov space of a tree from its root holds a vector that
reaches each level, so the run takes at least depth+1 steps: exactly that
many on a b-ary tree, whose levels span the space and whose T is sqrt(b)
times a chain, the chain mapping of Chin, Rivas, Huelga & Plenio (J. Math.
Phys. 51, 092109 (2010)).  A chain of N nodes rooted at its end is already
tridiagonal, T = A, so it takes no run, and its nodes and weights come in
closed form, mu_j = 2 cos(j pi/(N+1)) and s_0j^2 = (2/(N+1)) sin^2(j
pi/(N+1)): its modes and its gap guard take O(N) time and memory and no
eigensolver.  Any other tree takes its nodes and weights from LAPACK; the
eigenproblem of a k x k T peaks at two k x k arrays and is charged for
them.  The matrix-vector product is two scatters over the parent array.
A tree is connected and bipartite, so by Perron-Frobenius the extreme
adjacency eigenvalues +-rho(A) are simple, with eigenvectors that have no
zero entry, the root's entry among them.  The root therefore sees both, T
keeps +-rho(A), and the extreme mode frequencies the root sees are those of
the whole network.

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
    indexed add.  An ``x`` of p < N entries is the prefix of a vector that
    is zero past it, and gives the first p entries of A x: every parent has
    a smaller id than its child, so the edges within the prefix are those of
    its children."""
    parent = tree.parent

    def matvec(x):
        p = x.size
        child_of = parent[1:p]
        # float even for one node, where the bincount is empty and int
        y = np.bincount(child_of, weights=x[1:], minlength=p).astype(float, copy=False)
        y[1:] += x[child_of]
        return y
    return matvec


def _jacobi(matvec, n: int, bipartite: bool = False, reach=None):
    """Jacobi matrix (alpha, beta) of a symmetric n x n operator from e_0.

    Lanczos with full reorthogonalisation: each new vector is projected out
    of the whole basis by classical Gram-Schmidt, a second time when the
    first pass leaves less than 1/sqrt(2) of its norm (Parlett, The
    Symmetric Eigenvalue Problem, 1980, sec. 6-9).  A ``bipartite``
    operator, whose e_0 side holds the even vectors and the other side the
    odd ones, keeps each new vector exactly zero off its own side, so it is
    projected out of the vectors of its parity only.  The run stops when beta
    falls to 1e-10 of the largest coefficient seen, where the Krylov space
    is exhausted, or after n steps.  The basis is first allocated for as
    many vectors as ``reach`` has levels, or for one without it, and doubled
    when full; each allocation is charged, old and new basis together,
    before it is made.

    ``reach``, when given, bounds the support of the run: the vector that
    step k makes is zero past its first ``reach[k]`` entries (past the last
    entry of ``reach``, past its last value).  Step k then reads and writes
    only that prefix of its vectors and basis rows, and ``matvec`` takes
    the prefix of the operand and returns that of its product.  Without it
    every step runs over all n entries.
    Returns alpha of the k steps and beta of the k-1 couplings between them.
    Raises :class:`SizeError` when the basis would pass ``BYTE_CAP``.
    """
    size = 1 if reach is None else min(len(reach), n)
    _check_bytes(8 * n * size, f"Lanczos basis of {size} vectors of {n} nodes")
    # zeros: a step reads its rows up to its own reach, past what earlier
    # steps wrote
    basis = np.zeros((size, n))
    basis[0, 0] = 1.0
    alpha, beta, largest = [], [], 0.0
    for k in range(1, n + 1):
        p = n if reach is None else int(reach[min(k, len(reach) - 1)])
        q = basis[k - 1, :p]
        r = matvec(q)
        alpha.append(float(q @ r))
        r -= alpha[-1] * q
        if beta:
            r -= beta[-1] * basis[k - 2, :p]
        rows = basis[k % 2:k:2, :p] if bipartite else basis[:k, :p]
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
            basis = np.concatenate((basis, np.zeros((grown - size, n))))
            size = grown
        np.divide(r, norm, out=basis[k, :p])
        beta.append(norm)
    return np.array(alpha), np.array(beta)


def _path_measure(k: int):
    """Golub-Welsch nodes and weights of the k-node path seen from its end,
    in closed form: the sine transform diagonalises the path, so mu_j =
    2 cos(j pi/(k+1)) and s_0j^2 = (2/(k+1)) sin^2(j pi/(k+1)), j = 1..k.
    They are taken as 2 sin(theta_j) and (2/(k+1)) cos^2(theta_j), theta_j =
    pi (2j - k - 1) / (2(k+1)), in ascending order: a +-mu pair is an exact
    pair of negatives with equal weights, the middle node of an odd path is
    exactly 0, and one node is exactly (0, 1)."""
    theta = np.pi * np.arange(1 - k, k, 2) / (2 * (k + 1))
    return 2.0 * np.sin(theta), 2.0 / (k + 1) * np.cos(theta) ** 2


def _reach(tree: TreeGraph) -> np.ndarray:
    """For each level k, 1 + the largest id of a node at depth <= k: the
    prefix that holds the levels 0..k.  On a tree numbered breadth first, as
    :func:`~netbath.tree_bp.build_tree` numbers its trees, it holds those
    levels alone; on any other, deeper nodes too."""
    depth = tree.depth
    # node i is in the prefix of level k when some node from i on is at
    # depth <= k: the suffix minimum of the depths, nondecreasing, counts
    # the prefix of every level at once
    floor = np.minimum.accumulate(depth[::-1])[::-1]
    return np.searchsorted(floor, np.arange(int(depth.max()) + 1), side="right")


def _tree_jacobi(tree: TreeGraph):
    """The root's Jacobi matrix (alpha, beta) and, where it comes in closed
    form, its measure (mu, s0^2), else None.  A path from the root, the one
    tree with a node at every depth below N, is its own Jacobi matrix:
    alpha = 0 and beta = 1, the bits the run gives there, since each of its
    steps is exact, and its measure is :func:`_path_measure`'s.  Any other
    tree takes the run, its basis first allocated for depth+1 vectors, so a
    tree too deep for the cap is refused for free.

    The run's k-th vector lies on the levels 0..k, so step k reads and
    writes only the prefix of the nodes that :func:`_reach` gives for level
    k: on a b-ary tree of depth 8 the first step reads 5 nodes of 87,381.
    A tree's first k steps are then those of the tree cut below level k."""
    n, levels = tree.n_nodes, int(tree.depth.max()) + 1
    if levels == n:
        return np.zeros(n), np.ones(n - 1), _path_measure(n)
    return (*_jacobi(_tree_matvec(tree), n, bipartite=True,
                     reach=_reach(tree)), None)


def _corner(c: float, sigma: np.ndarray, alpha, beta,
            measure=None) -> np.ndarray:
    """``[(sigma - c T)^{-1}]_{0,0}`` for each shift of the flat array
    ``sigma``, T the Jacobi matrix (alpha, beta), by one LAPACK ``gtsv``
    solve each (the routine ``solve_banded`` runs on a tridiagonal band).

    The gap guard reads the eigenvalues mu_j of T from ``measure`` when it
    is given, else takes them by ``eigvalsh_tridiagonal``.  Raises
    :class:`DomainError` when some shift lies within 1e-8 (|sigma| + |c|
    max|mu|) of an eigenvalue c mu_j of cT, where the matrix is singular or
    near-singular, or is not finite; a nan or infinite c or sigma fails the
    guard, so no solve meets one.
    """
    import scipy.linalg

    mu = (scipy.linalg.eigvalsh_tridiagonal(alpha, beta) if measure is None
          else measure[0])
    c_mu = c * mu
    reach = np.abs(c_mu).max()
    # gtsv's wrapper takes one off-diagonal entry, never read, for one node
    off = -c * beta if beta.size else np.zeros(1)
    e = np.zeros((alpha.size, 1))
    e[0] = 1.0
    gtsv, = scipy.linalg.get_lapack_funcs(("gtsv",), (off, e))
    corner = np.empty(sigma.size)
    for i, s in enumerate(sigma.tolist()):
        gap = np.abs(s - c_mu).min()
        if not gap > 1e-8 * (abs(s) + reach):
            raise DomainError(
                f"tree matrix is singular or near-singular (gap {gap:.3g})")
        *_, x, info = gtsv(off, s - c * alpha, off, e)
        if info != 0:
            raise DomainError(f"tree matrix is singular (gtsv info {info})")
        corner[i] = x[0, 0]
    return corner


def oracle_kernel_laplace(tree: TreeGraph, params: ModelParams, lam,
                          dense_limit=None):
    """Exact finite-tree kernel (C^2/2) [M(lambda)^{-1}]_{root,root}.

    A float for a scalar ``lam``, an array for a grid; DomainError where
    :func:`~netbath.model._laplace_s` raises it, or where M is singular or
    near-singular.  One Lanczos run gives the root's Jacobi matrix (none on
    a path from the root), and each lambda takes one tridiagonal solve on
    it.  ``dense_limit`` is ignored; the benchmark's warm-up
    (``warm_up("check")`` in ``perfbench/jobs.py``) passes it.
    """
    sigma = params.m * _laplace_s(params, lam) / 2.0
    c = params.C / math.sqrt(2.0)
    corner = _corner(c, sigma.ravel(), *_tree_jacobi(tree))
    kernel = params.C**2 / 2.0 * corner
    return float(kernel[0]) if sigma.ndim == 0 else kernel.reshape(sigma.shape)


def mode_decomposition(tree: TreeGraph, params: ModelParams):
    """Frequencies and root weights of the modes the root of the tree sees.

    The Golub-Welsch nodes mu_j and weights s_{0j}^2 of the root's Jacobi
    matrix give ``Omega_j^2 = omega^2 - sqrt(2) C mu_j / m`` and ``w_j =
    (C^2/m) s_{0j}^2 / Omega_j``; the exact kernel is then ``k(tau) =
    sum_j w_j sin(Omega_j tau)``.  Eigenvalues closer than 1e-9 are one mode
    carrying their summed weight, and modes of root weight below 1e-20 of
    the total are dropped, so every mode returned is one the root sees.  By
    the Perron argument of the module docstring the extreme Omega are those
    of the whole network.  A decoupled network (C = 0) has no modes.
    Returns (Omega, w) sorted by frequency.  Raises
    :class:`InstabilityError` when some Omega^2 <= 0, and :class:`SizeError`
    when the Lanczos basis, or the eigenproblem of the k x k Jacobi matrix,
    would need more than ``BYTE_CAP`` bytes: that eigenproblem peaks at two
    k x k arrays, so it is charged on its own before it starts.  A path
    from the root takes its measure in closed form, O(N) time and memory,
    and no eigenproblem.
    """
    if not _band(params):
        return np.empty(0), np.empty(0)
    alpha, beta, measure = _tree_jacobi(tree)
    if measure is None:
        import scipy.linalg

        k = alpha.size
        # tracemalloc: eigh_tridiagonal peaks at two k x k arrays and ~10
        # k-vectors
        _check_bytes(8 * k * (2 * k + 32),
                     f"eigenvectors of a {k} x {k} Jacobi matrix")
        mu, vecs = scipy.linalg.eigh_tridiagonal(alpha, beta)
        measure = mu, vecs[0] ** 2
    mu, weight = measure
    omega_b_sq = params.omega_sq - math.sqrt(2.0) * params.C * mu / params.m
    if np.any(omega_b_sq <= 0):
        raise InstabilityError(
            f"unstable mode: min Omega^2 = {omega_b_sq.min():.6g}")
    first = np.flatnonzero(np.diff(mu, prepend=-np.inf) > 1e-9)
    share = np.add.reduceat(weight, first)
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
