"""Exact cavity message passing on explicit finite chains and trees.

Messages flow leaf-to-root: a leaf presents the free-branch kernel
``(C^2/2) G0``, an internal node sums its children's single-branch messages
and pushes the aggregate through the single-edge update.  On a regular tree
with branching b = n-1 the root aggregate after d levels equals the d-th
iterate of the uniform scalar map with degree n; the message the root would
send to a virtual parent is one further update and is what the resolvent
oracle reproduces.  The environment a node sees, :func:`output_environment`,
adds to its children's messages the one message from its parent side; at the
root (node 0) it is the root aggregate.

Message passing on trees is exact; these routines make no approximation
beyond floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SizeError
from .laplace import (CavityKernel, _edge_update, closed_form_fixed_point,
                      g0_laplace, map_orbit)
from .model import ModelParams, derive_params, fixed_point_exists

#: Refuse to build trees larger than this (2**20 nodes).
NODE_CAP = 1 << 20


@dataclass
class TreeGraph:
    """Rooted tree with breadth-first node numbering (root = 0).

    ``parent[v]`` is -1 for the root; ``levels[k]`` lists the node ids at
    depth k.  These two fields are all a sweep reads, so an irregular tree
    needs nothing else.
    """

    parent: np.ndarray
    levels: list[np.ndarray]

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int64)

    @property
    def n_nodes(self) -> int:
        return self.parent.size


def build_tree(branching: int, depth: int) -> TreeGraph:
    """Regular rooted tree: every node down to level depth-1 has ``branching`` children."""
    if branching < 1:
        raise DomainError(f"branching must be >= 1, got {branching}")
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    if branching == 1:
        n_nodes = depth + 1
    else:
        n_nodes = (branching ** (depth + 1) - 1) // (branching - 1)
    if n_nodes > NODE_CAP:
        raise SizeError(f"tree would have {n_nodes} nodes, cap is {NODE_CAP}")
    parent = np.full(n_nodes, -1, dtype=np.int64)
    levels = [np.array([0], dtype=np.int64)]
    next_id = 1
    for _ in range(depth):
        prev = levels[-1]
        count = prev.size * branching
        ids = np.arange(next_id, next_id + count, dtype=np.int64)
        parent[ids] = np.repeat(prev, branching)
        levels.append(ids)
        next_id += count
    return TreeGraph(parent=parent, levels=levels)


def build_chain(depth: int) -> TreeGraph:
    """Chain of depth edges (depth+1 nodes), root at one end."""
    return build_tree(1, depth)


def _upward_messages(tree: TreeGraph, params: ModelParams,
                     grid) -> tuple[np.ndarray, np.ndarray]:
    """m-type message each node sends toward its parent, per grid point.

    Vectorized level by level; returns ``(msgs, agg)``.  Entry [v, j] of
    ``msgs`` is the message from v on edge (v, parent(v)) at grid[j] (for the
    root: toward a virtual parent); ``agg[v, j]`` is the sum of the messages
    v receives from its children.  Pole hits are recorded as nan rather than
    aborting the sweep.
    """
    grid = np.asarray(grid, dtype=float)
    g0 = np.atleast_1d(np.asarray(g0_laplace(params, grid), dtype=float))
    msgs = np.zeros((tree.n_nodes, grid.size))
    agg = np.zeros_like(msgs)
    c_half = params.C**2 / 2.0
    for level in reversed(tree.levels):
        msgs[level] = _edge_update(agg[level], g0[None, :], c_half)[0]
        parents = tree.parent[level]
        has_parent = parents >= 0
        if np.any(has_parent):
            np.add.at(agg, parents[has_parent], msgs[level][has_parent])
    return msgs, agg


def root_output_message(tree: TreeGraph, params: ModelParams, lambda_grid) -> np.ndarray:
    """m-type message the root would send to a virtual parent.

    One single-edge update applied to the root aggregate; the kernel the
    whole tree presents as an environment, and the quantity the corner
    resolvent of the tree matrix reproduces.
    """
    msgs, _ = _upward_messages(tree, params, np.asarray(lambda_grid, dtype=float))
    return msgs[0]


def _downward_messages(tree: TreeGraph, params: ModelParams, lambda_grid,
                       up: np.ndarray, agg: np.ndarray, node: int) -> np.ndarray:
    """m-type message ``node`` receives from its parent (zero at the root).

    Walks only the root-to-node path, root first, using the ``(up, agg)``
    pair of :func:`_upward_messages`: the message into v from its parent p is
    the edge update of ``agg[p] - up[v] + down[p]``, everything p sees except
    v's own branch.  Needs nothing but ``tree.parent``, so any rooted tree
    works; a pole on the path gives nan.
    """
    g0 = g0_laplace(params, lambda_grid)
    c_half = params.C**2 / 2.0
    path = [node]
    while tree.parent[path[-1]] >= 0:
        path.append(int(tree.parent[path[-1]]))
    down = np.zeros_like(g0)
    for p, v in zip(path[:0:-1], path[-2::-1]):
        down = _edge_update(agg[p] - up[v] + down, g0, c_half)[0]
    return down


def output_environment(tree: TreeGraph, params: ModelParams, node: int,
                       lambda_grid) -> CavityKernel:
    """Effective-environment kernel at a node: sum over ALL incident messages.

    ``agg[node] + down[node]``: the children's messages from the upward sweep
    plus the one message from the parent side, found by walking the
    root-to-node path only (O(depth x grid) after the sweep).  An isolated
    node sees a zero kernel.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    up, agg = _upward_messages(tree, params, lambda_grid)
    total = agg[node] + _downward_messages(tree, params, lambda_grid, up, agg,
                                           node)
    flags = ~np.isfinite(total)
    return CavityKernel(grid=lambda_grid, values=total,
                        flags=flags if flags.any() else None)


def depth_convergence(params: ModelParams, branching: int, max_depth: int,
                      lam: float) -> np.ndarray:
    """Residuals |k^(d) - k*| of the root aggregate over depth d = 0..max_depth.

    The regular-tree root aggregate at depth d equals the d-th iterate of the
    uniform map with degree branching+1 starting from zero, so the residuals
    are those of the :func:`~netbath.laplace.map_orbit` orbit, run with zero
    tolerance and, once it settles exactly, held at its last iterate.
    Requires the fixed point to exist at ``lam``.
    """
    n = branching + 1
    params_n = params if params.n == n else derive_params(
        n, params.omega0, params.C, params.m)
    if not fixed_point_exists(params_n, lam):
        raise DomainError("no fixed point at this lambda; depth convergence "
                          "is undefined")
    orbit = map_orbit(params_n, lam, steps=max_depth, tol=0.0).orbit
    orbit = np.pad(orbit, (0, max_depth + 1 - orbit.size), mode="edge")
    return np.abs(orbit - closed_form_fixed_point(params_n, lam))
