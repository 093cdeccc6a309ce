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
weights of the finite network, and with them the time-domain kernel.  The
node classes under the automorphisms that fix the root form an equitable
partition: every node of one class has the same number of neighbours in
each other class.  The span of the class indicators is then invariant under
the adjacency, and on it, in the normalised indicators, the adjacency is the
symmetrised quotient, a weighted tree on the classes whose edge from a class
to its parent class carries the square root of the class's multiplicity
(Godsil, Algebraic Combinatorics, 1993).  The root is a class of its own, so
its spectral measure is that of the quotient: its eigenvalues and first
eigenvector components are the mode frequencies and weights, and only modes
the root sees come out, a degenerate eigenvalue once with its summed weight.
A b-ary tree of depth d has d+1 classes, one per level, and its quotient is
sqrt(b) times a chain, the chain mapping of Chin, Rivas, Huelga & Plenio
(J. Math. Phys. 51, 092109 (2010)); a dense eigendecomposition of the
N x N adjacency would return N modes, most of zero weight.  A tree is
connected and bipartite, so by Perron-Frobenius the extreme adjacency
eigenvalues +-rho(A) are simple, with eigenvectors that have no zero entry.
An automorphism that fixes the root maps such an eigenvector to a multiple
of itself with the same root entry, so to itself: it is constant on
classes, the quotient keeps +-rho(A), and the extreme mode frequencies the
root sees are those of the whole network.

The off-diagonal C/sqrt(2) is a convention derived from matching the cavity
recursion, not a physical identification of the edge Hamiltonian; it is
validated by the band edges omega^2 +- sqrt(8(n-1)) C/m that the adjacency
spectral radius 2 sqrt(branching) reproduces.

The coupling -(C/sqrt(2)) A is assembled once per tree, vectorised from the
parent array; lambda moves only the diagonal, a shift of the coupling.  The
Krylov space of the coupling from the root does not depend on the shift, so
one Lanczos run per tree serves every lambda of a grid, and each lambda
carries only its own MINRES recurrence on it (Paige & Saunders, SIAM J.
Numer. Anal. 12, 617 (1975); Jegerlehner, hep-lat/9612014, for shifted
systems).  No factorisation, so no fill on a graph with loops, and it takes
the indefinite matrices past C* as well.  The run stores its basis: depth+1
vectors on a regular tree, whose Krylov space from the root is exhausted
after depth+1 steps.  A backward-error guard checks every lambda.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import DomainError, InstabilityError, _check_bytes
from .model import ModelParams, _band, _laplace_s
from .timedomain import TimeKernel, _sine_sum
from .tree_bp import TreeGraph


def _coupling_matrix(tree: TreeGraph, params: ModelParams):
    """The tree's coupling ``-(C/sqrt(2)) A`` as a ``scipy.sparse.csr_matrix``;
    lambda is not in it."""
    import scipy.sparse

    child = np.flatnonzero(tree.parent >= 0)
    parent = tree.parent[child]
    rows = np.concatenate((child, parent))
    cols = np.concatenate((parent, child))
    data = np.full(rows.size, -params.C / math.sqrt(2.0))
    return scipy.sparse.csr_matrix((data, (rows, cols)),
                                   shape=(tree.n_nodes, tree.n_nodes))


def _corner_inverse(coupling, diagonal):
    """[M^{-1}]_{0,0} of ``diagonal I + coupling``, for one diagonal or a grid.

    One Lanczos run on ``coupling`` from e_0 serves every diagonal, because
    the Krylov space does not depend on the shift.  Each shift carries only
    MINRES's Givens recurrence (Paige & Saunders 1975), vectorised over the
    shift axis, and its iterate as coordinates in the stored basis.  Each
    shift stops at its own convergence test, so a diagonal in a grid gets
    the bits it gets alone.  The run ends when every shift has stopped, or
    when beta falls to rounding: the Krylov space is exhausted there, after
    depth+1 steps on a regular tree.  A backward-error guard then checks
    every shift, one at a time: the true residual against ``||e_0|| +
    ||M|| ||x||`` in the max norm, so a scaled M gets the same verdict.  A
    float for a scalar ``diagonal``, an array of its shape for a grid.
    Raises :class:`DomainError` when some shift leaves the matrix singular
    or near-singular, and :class:`SizeError`, before a basis vector is
    stored, when the basis would need more than ``BYTE_CAP`` bytes.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    sigma = diagonal.ravel()
    n, rtol, eps = coupling.shape[0], 1e-14, np.finfo(float).eps
    e = np.zeros(n)
    e[0] = 1.0
    # Per live shift: its index and MINRES scalars, and the coordinates of
    # its iterate and of its last two search directions.
    live = np.arange(sigma.size)
    cs, sn = np.full(live.size, -1.0), np.zeros(live.size)
    dbar, epsln, phibar = np.zeros(live.size), np.zeros(live.size), np.ones(live.size)
    tnorm2, gmax, gmin = np.zeros(live.size), np.zeros(live.size), np.full(live.size, np.inf)
    w_old = w = y = np.zeros((live.size, 0))
    solved = {}
    basis, v, v_old, beta = [], e, np.zeros(n), 0.0
    for step in range(1, 5 * n + 1):
        # the basis as a list and as the array stacked from it below
        _check_bytes(2 * 8 * n * step, f"Lanczos basis of {step} vectors of {n} nodes")
        basis.append(v)
        av = coupling @ v
        alpha = float(v @ av)
        r = av - alpha * v - beta * v_old
        beta_new = float(np.linalg.norm(r))
        exhausted = beta_new <= 10.0 * eps * (abs(alpha) + beta)
        # the previous rotation, then the next one, on each shift's column
        a = alpha + sigma[live]
        oldeps = epsln
        delta = cs * dbar + sn * a
        gbar = sn * dbar - cs * a
        epsln = sn * beta_new
        dbar = -cs * beta_new
        root = np.hypot(gbar, dbar)
        gamma = np.maximum(np.hypot(gbar, beta_new), eps)
        cs, sn = gbar / gamma, beta_new / gamma
        phi = cs * phibar
        phibar = sn * phibar
        pad = np.zeros((live.size, 1))
        w_old, w = np.hstack((w_old, pad)), np.hstack((w, pad))
        w_new = -oldeps[:, None] * w_old - delta[:, None] * w
        w_new[:, -1] += 1.0
        w_old, w = w, w_new / gamma[:, None]
        y = np.hstack((y, pad)) + phi[:, None] * w
        gmax, gmin = np.maximum(gmax, gamma), np.minimum(gmin, gamma)
        tnorm2 += a * a + beta * beta + beta_new * beta_new
        anorm, ynorm = np.sqrt(tnorm2), np.linalg.norm(y, axis=1)
        # scipy's tests: a small residual or normal-equations residual, an
        # ill-conditioned or exploding iterate, or the last step
        done = ((phibar <= rtol * anorm * ynorm) | (root <= rtol * anorm)
                | (gmax * eps >= 0.1 * gmin) | (anorm * ynorm * eps >= 1.0)
                | exhausted | (step == 5 * n))
        for i in np.flatnonzero(done).tolist():
            solved[int(live[i])] = y[i].copy()
        keep = ~done
        if not keep.any():
            break
        live, cs, sn, dbar, epsln, phibar, tnorm2, gmax, gmin, w_old, w, y = (
            q[keep] for q in (live, cs, sn, dbar, epsln, phibar, tnorm2, gmax,
                              gmin, w_old, w, y))
        v_old, v, beta = v, r / beta_new, beta_new
    basis = np.array(basis)
    # The coupling's max-norm; its diagonal is zero, so ||coupling + sigma I||
    # is this plus |sigma|.
    coupling_norm = float(abs(coupling).sum(axis=1).max())
    corner = np.empty(sigma.size)
    for s, coords in solved.items():
        k = coords.size
        x = coords @ basis[:k]
        # x[0] by a dot product of its own, so its bits depend on the
        # coordinates alone, not on how BLAS blocks the product above
        corner[s] = coords @ basis[:k, 0]
        residual = np.abs(coupling @ x + sigma[s] * x - e).max()
        scale = 1.0 + (coupling_norm + abs(sigma[s])) * np.abs(x).max()
        if not math.isfinite(corner[s]) or residual > 1e-8 * scale:
            raise DomainError(
                f"tree matrix is singular or near-singular (residual {residual:.3g})")
    corner = corner.reshape(diagonal.shape)
    return float(corner) if corner.ndim == 0 else corner


def oracle_kernel_laplace(tree: TreeGraph, params: ModelParams, lam,
                          dense_limit=None):
    """Exact finite-tree kernel (C^2/2) [M(lambda)^{-1}]_{root,root}.

    A float for a scalar ``lam``, an array for a grid; DomainError where
    :func:`~netbath.model._laplace_s` raises it.  The coupling matrix is built
    once, and one Lanczos run on it serves every lambda, each with its own
    MINRES recurrence and residual check.  ``dense_limit`` is ignored; the
    benchmark's warm-up (``warm_up("check")`` in ``perfbench/jobs.py``) passes it.
    """
    diagonal = params.m * _laplace_s(params, lam) / 2.0
    coupling = _coupling_matrix(tree, params)
    return params.C**2 / 2.0 * _corner_inverse(coupling, diagonal)


def _class_tree(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quotient of a tree by the automorphisms that fix its root.

    Every child follows its parent in id order, as ``TreeGraph`` ensures.
    Bottom-up, each inner node gets the id of its subtree's shape: its count
    of leaf children and the sorted shapes of the others.  Top-down, its
    class is the pair (class of its parent, its shape), and the leaves under
    one class form one class.  Returns, for each class, its parent class (-1
    for the root's class 0) and its multiplicity: the number of its nodes
    under each node of the parent class, read off the parent class's shape.
    Classes are numbered top-down, so a path of classes is numbered along
    the path: depth+1 classes on a regular tree, N on a chain.
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
    keys = list(shapes)
    class_key = [(leaf_kids[0], tuple(kids.get(0, ())))]
    edges = [(-1, 1)]
    for up, kind in classes:
        edges.append((up, class_key[up][1].count(kind)))
        class_key.append(keys[kind])
    edges += [(up, leaves) for up, (leaves, _) in enumerate(class_key) if leaves]
    class_parent, multiplicity = np.array(edges).T
    return class_parent, multiplicity


def mode_decomposition(tree: TreeGraph, params: ModelParams):
    """Frequencies and root weights of the modes the root of the tree sees.

    The eigenpairs (mu_j, s_j) of the tree's class quotient give ``Omega_j^2
    = omega^2 - sqrt(2) C mu_j / m`` and ``w_j = (C^2/m) s_{0j}^2 / Omega_j``;
    the exact kernel is then ``k(tau) = sum_j w_j sin(Omega_j tau)``.  When
    the classes form a path the quotient is the root's Jacobi matrix and
    goes to the tridiagonal solver; any other quotient takes one dense
    ``eigh``.  Eigenvalues closer than 1e-9 are one mode carrying their
    summed weight, and modes of root weight below 1e-20 of the total are
    dropped, so every mode returned is one the root sees.  By the Perron
    argument of the module docstring the extreme Omega are those of the
    whole network.  Returns (Omega, w) sorted by frequency.
    Raises :class:`InstabilityError` when some Omega^2 <= 0, and
    :class:`SizeError`, before the eigendecomposition is allocated, when it
    would need more than ``BYTE_CAP`` bytes.
    """
    _band(params)   # refuses a band that is not real
    # No class spans two levels, so there are at least depth+1 classes, and
    # a path of them has exactly that many: a free refusal of the path
    # branch's eigenvectors, before the classes are found.
    k = int(tree.depth.max()) + 1
    _check_bytes(8 * k * k, f"eigenvectors of {k} or more node classes")
    class_parent, multiplicity = _class_tree(tree.parent)
    k = class_parent.size
    coupling = np.sqrt(multiplicity[1:])
    if np.array_equal(class_parent[1:], np.arange(k - 1)):
        import scipy.linalg

        mu, vecs = scipy.linalg.eigh_tridiagonal(np.zeros(k), coupling)
    else:
        # Measured: the matrix, LAPACK's copy of it with a 2 k^2 workspace,
        # and the eigenvectors come to about 5.4 k^2 doubles.  numpy's eigh
        # (syevd): scipy's default, LAPACK's evr, has returned first components
        # whose squares sum to 1.00026 on a 50-node tree.
        _check_bytes(6 * 8 * k * k, f"eigendecomposition of {k} node classes")
        quotient = np.zeros((k, k))
        child, up = np.arange(1, k), class_parent[1:]
        quotient[child, up] = quotient[up, child] = coupling
        mu, vecs = np.linalg.eigh(quotient)
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
