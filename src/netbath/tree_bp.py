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

import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, ShapeError, SizeError, _check_bytes
from .laplace import (CavityKernel, _check_lambda_grid, _edge_update,
                      closed_form_fixed_point, g0_laplace, map_orbit)
from .model import ModelParams

#: Refuse to build trees larger than this (2**20 nodes).
NODE_CAP = 1 << 20

#: What an upward sweep is charged, above the tracemalloc peaks of regular,
#: random, chain, star and caterpillar trees: float rows per subtree class
#: of its widest level, times the grid size; and what finding a tree's
#: classes, once, is charged: words per node, where it peaked at 10 to 21.4,
#: the tree's depth index included.
SWEEP_ROWS = 5
SWEEP_WORDS = 24


@dataclass(frozen=True, eq=False)
class TreeGraph:
    """Rooted tree, root = node 0, given by its parent array alone.

    ``parent[v]`` is the parent of node v (-1 for the root).  Construction
    refuses with ShapeError an array that breaks the contract the sweeps and
    the oracle read: a nonempty 1-d array of signed integers (int64 at
    most), node 0 the only root, every parent with a smaller id than its
    child.  The tree keeps a read-only int64 copy.  ``depth``, the level
    of every node and the tree's one level index, is derived from it once,
    on first use, and is read-only too.  A sweep adds the siblings of a
    level in increasing id order.  Two trees are equal when their parent
    arrays are, and hash alike.
    """

    parent: np.ndarray

    def __post_init__(self):
        parent = np.asarray(self.parent)
        if parent.ndim != 1 or parent.size == 0:
            raise ShapeError("parent must be a nonempty 1-d array")
        if parent.dtype.kind != "i":
            raise ShapeError(f"parent must hold integer ids that fit int64, got {parent.dtype}")
        parent = parent.astype(np.int64)
        if parent[0] != -1 or np.any(parent[1:] < 0):
            raise ShapeError("node 0 must be the only root")
        if np.any(parent[1:] >= np.arange(1, parent.size)):
            raise ShapeError("every parent must have a smaller id than its child")
        parent.flags.writeable = False
        object.__setattr__(self, "parent", parent)

    def __eq__(self, other):
        if not isinstance(other, TreeGraph):
            return NotImplemented
        return np.array_equal(self.parent, other.parent)

    def __hash__(self):
        return hash(self.parent.tobytes())

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    @cached_property
    def depth(self) -> np.ndarray:
        """Level of every node, by pointer jumping: log2(height) passes."""
        up, depth = self.parent.copy(), np.ones_like(self.parent)
        up[0] = depth[0] = 0
        while up.any():
            depth += depth[up]
            up = up[up]
        depth.flags.writeable = False
        return depth

    @cached_property
    def _classes(self):
        """:func:`_subtree_classes` of this tree, found on its first sweep."""
        _check_bytes(8 * SWEEP_WORDS * self.n_nodes,
                     f"subtree classes of {self.n_nodes} nodes")
        return _subtree_classes(self)


def build_tree(branching: int, depth: int) -> TreeGraph:
    """Regular rooted tree: every node down to level depth-1 has ``branching`` children.

    Nodes are numbered breadth first, so each level is one run of ids.  A
    tree of more than ``NODE_CAP`` nodes is refused with SizeError, one that
    branches past depth 20 before its node count is formed.
    """
    if branching < 1:
        raise DomainError(f"branching must be >= 1, got {branching}")
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    # A wider or deeper branching tree than this count forms gets the same
    # verdict, and a one-node tree of any width the same parent array.
    b = min(branching, NODE_CAP + 1)
    levels = min(depth, NODE_CAP.bit_length()) + 1
    n_nodes = depth + 1 if b == 1 else (b ** levels - 1) // (b - 1)
    if n_nodes > NODE_CAP:
        raise SizeError(f"tree would have more than {NODE_CAP} nodes, the cap")
    return TreeGraph(parent=(np.arange(n_nodes) - 1) // b)


def build_chain(depth: int) -> TreeGraph:
    """Chain of depth edges (depth+1 nodes), root at one end."""
    return build_tree(1, depth)


def _subtree_classes(tree: TreeGraph):
    """Classes of identical subtrees, level by level.

    The bottom-up subtree labelling of Aho, Hopcroft & Ullman (1974), with
    ordered children.  Every node of the deepest level is a leaf, of class 0.
    A node of a higher level has the class of the sequence of its children's
    classes, in id order; the leaves of a level, the empty sequence, are
    its class 0.  A class is a sequence, not a multiset, so a class's row is
    formed by the same additions, in the same order, as each of its nodes.
    Returns ``(node_class, counts, target, source, bounds)``: the class of
    every node among those of its level, the number of classes of every
    level, and the terms that form the aggregates of one node of each class
    from its children's messages, child by child in id order, the terms
    of the children of level k being ``bounds[k]:bounds[k+1]``.  There,
    ``np.add.at(agg, target, msgs[source])`` adds them from 0.0 as
    ``np.add.at`` over the whole level did.
    """
    depth = tree.depth
    n_levels = int(depth.max()) + 1
    parents = tree.parent[1:]
    kids = np.bincount(parents, minlength=tree.n_nodes)
    # Every node but the root, by level, then by its parent's number of
    # children, then by parent; the stable sort keeps siblings in id order.
    # The children of the parents of one level with w children each are
    # then a block of rows of width w, one row per parent.
    order = np.lexsort((parents, kids[parents], depth[1:]))
    nodes, parents = order + 1, parents[order]
    width, level = kids[parents], depth[nodes]
    starts = np.flatnonzero(np.diff(level, prepend=-1) | np.diff(width, prepend=-1))
    ends = np.append(starts, nodes.size)[1:]
    block_level = level[starts]
    # A block of one row, one parent, is one class.  These take the classes
    # after the leaves' class 0 of their parents' level, so they need no
    # look at the classes below; only blocks of many rows are looked at.
    one = ends - starts == width[starts]
    node_class = np.zeros(tree.n_nodes, dtype=np.int64)
    counts = (np.bincount(depth[kids == 0], minlength=n_levels) > 0).astype(np.int64)
    one_level = block_level[one] - 1
    in_level = np.arange(one_level.size)
    in_level -= np.searchsorted(one_level, one_level)
    node_class[parents[starts[one]]] = counts[one_level] + in_level
    counts += np.bincount(one_level, minlength=n_levels)
    counts = counts.tolist()
    first_row = np.zeros(nodes.size, dtype=bool)    # of one parent of each class
    first_row[starts[one]] = True
    many = ~one
    for a, b, k in zip(starts[many][::-1].tolist(), ends[many][::-1].tolist(),
                       block_level[many][::-1].tolist()):
        w = int(width[a])
        if counts[k] == 1:      # every row is the same sequence
            first, inverse = np.zeros(1, dtype=np.int64), 0
        else:
            rows = node_class[nodes[a:b]].reshape(-1, w)
            _, first, inverse = np.unique(rows.view(np.dtype((np.void, 8 * w))).ravel(),
                                          return_index=True, return_inverse=True)
        node_class[parents[a:b:w]] = counts[k - 1] + inverse
        first_row[a + w * first] = True
        counts[k - 1] += first.size
    first = np.flatnonzero(first_row)
    row_width = width[first]
    terms = np.repeat(first - np.cumsum(row_width) + row_width, row_width)
    terms += np.arange(terms.size)
    bounds = np.searchsorted(level[terms], np.arange(n_levels + 1))
    return (node_class, counts, node_class[parents[terms]], node_class[nodes[terms]],
            bounds)


def _upward_messages(tree: TreeGraph, params: ModelParams, g0: np.ndarray,
                     path) -> tuple[np.ndarray, np.ndarray]:
    """Upward message and child aggregate along a root-to-node path, per grid point.

    ``g0`` is :func:`_g0_grid` of the lambda grid; ``path`` lists node ids
    from the root down, one per level.  Returns ``(up, agg)`` with one row
    per node of the path: ``up[k, j]`` is the message path[k] sends toward
    its parent at g0[j] (for the root: toward a virtual parent), and
    ``agg[k, j]`` the sum of the messages it receives from its children.
    Nodes with identical subtrees send identical messages, so the sweep
    forms one row per subtree class (:func:`_subtree_classes`, found on a
    tree's first sweep and kept on it), level by level from the deepest,
    holding the level being formed and the level below it, and reads the
    path's rows through each node's class.  Siblings are added in id order
    starting from 0.0.  Pole hits are recorded as nan rather than aborting
    the sweep.
    """
    node_class, counts, target, source, bounds = tree._classes
    # The widest level's class aggregates, edge-update temporaries and
    # messages, with the level above it; the most terms of one level,
    # gathered; the path's rows.
    rows = SWEEP_ROWS * max(counts) + np.diff(bounds).max() + 2 * len(path)
    _check_bytes(8 * g0.size * rows,
                 f"upward sweep of {tree.n_nodes} nodes over {g0.size} lambda points")
    c_half = params.C**2 / 2.0
    up = np.empty((len(path), g0.size))
    agg_path = np.empty_like(up)
    agg = np.zeros((1, g0.size))
    path_class = node_class[path].tolist()
    for k in reversed(range(len(counts))):
        msgs = _edge_update(agg, g0, c_half)[0]
        if k < len(path):
            up[k], agg_path[k] = msgs[path_class[k]], agg[path_class[k]]
        if k == 0:
            break
        del agg
        agg = np.zeros((counts[k - 1], g0.size))
        a, b = bounds[k], bounds[k + 1]
        np.add.at(agg, target[a:b], msgs[source[a:b]])
        del msgs
    return up, agg_path


def _g0_grid(params: ModelParams, lambda_grid) -> np.ndarray:
    """G0 on a lambda point, as a grid of one, or on a 1-d grid; after the
    model's DomainError, ShapeError for an array of two or more dimensions."""
    g0 = g0_laplace(params, lambda_grid)
    if np.ndim(g0) > 1:
        raise ShapeError(f"lambda grid must be a point or 1-d, got {np.ndim(g0)}-d")
    return np.atleast_1d(g0)


def root_output_message(tree: TreeGraph, params: ModelParams,
                        lambda_grid) -> float | np.ndarray:
    """m-type message the root would send to a virtual parent.

    One single-edge update applied to the root aggregate; the kernel the
    whole tree presents as an environment, and the quantity the corner
    resolvent of the tree matrix reproduces.  A float at a lambda point, an
    array over a 1-d grid.
    """
    up, _ = _upward_messages(tree, params, _g0_grid(params, lambda_grid), [0])
    return float(up[0, 0]) if np.ndim(lambda_grid) == 0 else up[0]


def output_environment(tree: TreeGraph, params: ModelParams, node: int,
                       lambda_grid) -> CavityKernel:
    """Effective-environment kernel at a node: sum over ALL incident messages.

    The children's messages plus the one from the parent side, found by
    walking the root-to-node path (O(depth x grid) after the sweep): into v
    from its parent p comes the edge update of ``agg[p] - up[v] + down[p]``,
    all p sees but v's branch.  An isolated node sees a zero kernel; a
    lambda point gives a kernel on a grid of one.  Before the sweep, a
    lambda the model refuses raises DomainError, and a node that is not an
    integer in 0..N-1 or a grid CavityKernel would refuse, ShapeError.
    """
    if (not isinstance(node, numbers.Integral) or isinstance(node, bool)
            or not 0 <= node < tree.n_nodes):
        raise ShapeError(f"node must be an integer in 0..{tree.n_nodes - 1}, got {node!r}")
    g0 = _g0_grid(params, lambda_grid)
    lambda_grid = _check_lambda_grid(np.atleast_1d(lambda_grid))
    path = [int(node)]
    while path[-1] > 0:
        path.append(int(tree.parent[path[-1]]))
    up, agg = _upward_messages(tree, params, g0, path[::-1])
    c_half = params.C**2 / 2.0
    down = np.zeros_like(g0)
    for i in range(1, len(up)):
        down = _edge_update(agg[i - 1] - up[i] + down, g0, c_half)[0]
    total = agg[-1] + down
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
    params_n = params if params.n == n else replace(params, n=n)
    k_star = closed_form_fixed_point(params_n, lam)
    orbit = map_orbit(params_n, lam, steps=max_depth, tol=0.0).orbit
    orbit = np.pad(orbit, (0, max_depth + 1 - orbit.size), mode="edge")
    return np.abs(orbit - k_star)
