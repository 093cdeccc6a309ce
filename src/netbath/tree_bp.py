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

from .errors import ShapeError, SizeError, _check_bytes
from .laplace import (POLE_RTOL, CavityKernel, _check_count, _edge_update,
                      _orbit_ends, closed_form_fixed_point, g0_laplace)
from .model import ModelParams

#: Refuse to build trees larger than this (2**20 nodes).
NODE_CAP = 1 << 20

#: What an upward sweep is charged, above the tracemalloc peaks of regular,
#: random, chain, star and caterpillar trees: float rows per subtree class
#: of its widest level, times the grid size, where they peaked at 3.1 over
#: 4,000 lambda; and what finding the classes of a tree that
#: :func:`build_tree` does not build is charged, once: words per node,
#: where it peaked at 10 to 21.4, the tree's depth index included.  A tree
#: it builds takes them in closed form, two words a node.
SWEEP_ROWS = 5
SWEEP_WORDS = 24

#: Denominators a pass of unguarded edge updates holds before it tests them
#: for the pole: every level of a tree of b >= 2 under the node cap.
_DENOM_ROWS = 32


@dataclass(frozen=True, eq=False)
class TreeGraph:
    """Rooted tree, root = node 0, given by its parent array alone.

    ``parent[v]`` is the parent of node v (-1 for the root).  Construction
    refuses with ShapeError an array that breaks the contract the sweeps and
    the oracle read: a nonempty 1-d array of signed integers (int64 at
    most), node 0 the only root, every parent with a smaller id than its
    child.  The tree keeps a read-only int64 copy.  ``depth``, the level
    of every node and the tree's one level index, is derived from it once,
    on first use, and is read-only too.  A tree :func:`build_tree` builds
    keeps the array it wrote, with no copy and no check, and the shape it
    built, so its depth and subtree classes are written down, not found.  A
    sweep adds siblings in id order.  Two trees are equal when their parent
    arrays are, and hash alike.
    """

    parent: np.ndarray

    #: ``(b, d)`` on the tree ``build_tree(b, d)`` builds (``(1, 0)`` on its
    #: one-node tree), None on any other, a copy of its array included.
    _regular = None

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

    @classmethod
    def _built(cls, parent: np.ndarray, regular: tuple[int, int]) -> TreeGraph:
        """:func:`build_tree`'s tree: its int64 array, made read-only, and shape."""
        parent.flags.writeable = False
        tree = object.__new__(cls)
        tree.__dict__.update(parent=parent, _regular=regular)
        return tree

    def __reduce__(self):
        """Copies and pickles are built again, by :func:`build_tree` on the
        shape it built, else from the array and checked: read-only, with
        nothing derived carried over."""
        if self._regular is None:
            return TreeGraph, (self.parent,)
        return build_tree, self._regular

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
        """Level of every node: runs of ``b**k`` nodes on a tree :func:`build_tree`
        builds, log2(height) passes of pointer jumping on any other."""
        if self._regular is None:
            up, depth = self.parent.copy(), np.ones_like(self.parent)
            up[0] = depth[0] = 0
            while up.any():
                depth += depth[up]
                up = up[up]
        else:
            b, d = self._regular
            level = np.arange(d + 1, dtype=np.int64)
            depth = level if b == 1 else np.repeat(level, b ** level)
        depth.flags.writeable = False
        return depth

    @cached_property
    def _classes(self):
        """:func:`_subtree_classes` of this tree, found on its first sweep.
        A tree :func:`build_tree` builds has one class a level, which b
        children of the one class below form, so it takes them in closed
        form: nothing is sorted, and two words a node are charged."""
        n = self.n_nodes
        if self._regular is None:
            _check_bytes(8 * SWEEP_WORDS * n, f"subtree classes of {n} nodes")
            return _subtree_classes(self)
        _check_bytes(16 * n, f"subtree classes of {n} nodes")
        b, d = self._regular
        return (np.zeros(n, dtype=np.int64), [1] * (d + 1),
                np.zeros(b * d, dtype=np.int64), np.zeros(b * d, dtype=np.int64),
                np.maximum(b * np.arange(-1, d + 1), 0))


def build_tree(branching: int, depth: int) -> TreeGraph:
    """Regular rooted tree: every node down to level depth-1 has ``branching`` children.

    Nodes are numbered breadth first: the parent array is one run of ids
    stored b times, strided, and the tree keeps it, read-only, with the
    shape it was built to.  Sizes that are not integers (bools included) are
    refused with DomainError, a tree of more than ``NODE_CAP`` nodes with
    SizeError, one branching past depth 20 before its node count is formed.
    """
    _check_count("branching", branching, 1)
    _check_count("depth", depth, 0)
    # A wider or deeper branching tree than this count forms gets the same
    # verdict, and a one-node tree of any width the same parent array.
    # Python ints: a numpy integer's power would wrap.
    b, d = int(min(branching, NODE_CAP + 1)), int(depth)
    levels = min(d, NODE_CAP.bit_length()) + 1
    n_nodes = d + 1 if b == 1 else (b ** levels - 1) // (b - 1)
    if n_nodes > NODE_CAP:
        raise SizeError(f"tree would have more than {NODE_CAP} nodes, the cap")
    parent = np.empty(n_nodes, dtype=np.int64)
    parent[0] = -1
    children = parent[1:].reshape(-1, b)    # row i: the children of node i
    if len(children) < b:       # depth 0 or 1: one row or none
        children[...] = np.arange(len(children))[:, None]
    else:
        children[:, 0] = np.arange(len(children))
        for j in range(1, b):
            children[:, j] = children[:, 0]
    return TreeGraph._built(parent, (b if d else 1, d))


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
    forms one row per subtree class (``TreeGraph._classes``, taken on a
    tree's first sweep and kept on it), level by level from the deepest,
    holding the level being formed and the level below it, and reads the
    path's rows through each node's class.  Siblings are added in id order
    starting from 0.0: a level of one class whose children are one class
    too adds its one message row in place, the additions ``np.add.at``
    makes, and any other level by ``np.add.at``.  A level of one class is
    updated as :func:`_unguarded_first` says.  Pole hits are recorded as
    nan rather than aborting the sweep.
    """
    node_class, counts, target, source, bounds = tree._classes
    path_class, bounds = node_class[path].tolist(), bounds.tolist()
    # The widest level's class aggregates, updated in place, with the
    # edge-update temporaries and the level above it; the most terms one
    # level gathers (a level of one class under one class adds its row in
    # place); the path's rows; the denominators held, and the mask of their
    # test.
    rows = SWEEP_ROWS * max(counts) + max(
        (bounds[k + 1] - bounds[k] for k in range(1, len(counts))
         if not counts[k - 1] == 1 == counts[k]), default=0)
    rows += 2 * len(path) + 2 * min(len(counts), _DENOM_ROWS)
    _check_bytes(8 * g0.size * rows,
                 f"upward sweep of {tree.n_nodes} nodes over {g0.size} lambda points")
    c_half = params.C**2 / 2.0

    def sweep(update):
        up = np.empty((len(path), g0.size))
        agg_path = np.empty_like(up)
        agg = np.zeros((1, g0.size))
        for k in reversed(range(len(counts))):
            if k < len(path):
                agg_path[k] = agg[path_class[k]]
            if counts[k] == 1:
                update(agg[0])
            else:
                _edge_update(agg, g0, c_half, out=agg)
            msgs = agg                  # updated in place
            if k < len(path):
                up[k] = msgs[path_class[k]]
            if k == 0:
                return up, agg_path
            a, b = bounds[k], bounds[k + 1]
            if counts[k - 1] == 1 == counts[k]:
                agg = msgs + 0.0        # np.add.at's first addition, from 0.0
                for _ in range(b - a - 1):
                    agg += msgs
            else:
                agg = np.zeros((counts[k - 1], g0.size))
                np.add.at(agg, target[a:b], msgs.take(source[a:b], axis=0))

    return _unguarded_first(sweep, g0, c_half, len(counts))


def _unguarded_first(run, g0, c_half, steps: int):
    """``run(update)``, a pass of at most ``steps`` single-edge updates
    ``update(k_in)`` of rows over the grid, each written into ``k_in``.

    The first pass makes :func:`~netbath.laplace._edge_update`'s array body
    with no pole test, raising on division by zero, overflow and invalid
    operations, and holds its denominators, ``_DENOM_ROWS`` rows at most,
    testing them as they fill and at its end.  When no error was raised and
    none was within ``2 POLE_RTOL`` of 0, the pole test would have passed
    every update, so the pass has the bits of its updates through
    _edge_update and is returned.  Otherwise it is made again with every
    update through _edge_update, whose nan at a pole and whose warnings are
    then the pass's.
    """
    held = np.empty((min(steps, _DENOM_ROWS), g0.size))
    filled = near = 0

    def near_pole():    # in place: the denominators held are read no more
        size = np.abs(held[:filled], out=held[:filled])
        return np.count_nonzero(size < 2.0 * POLE_RTOL)

    def unguarded(k_in):
        nonlocal filled, near
        if filled == len(held):
            near, filled = near + near_pole(), 0
        denom = held[filled]
        filled += 1
        np.subtract(1.0, np.multiply(g0, k_in, out=denom), out=denom)
        return np.divide(numer, denom, out=k_in)

    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            numer = c_half * g0
            result = run(unguarded)
        if not near + near_pole():
            return result
        del result      # before the second pass holds rows of its own
    except FloatingPointError:
        pass
    return run(lambda k_in: _edge_update(k_in, g0, c_half, out=k_in)[0])


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
    kernel = CavityKernel(grid=np.atleast_1d(lambda_grid), values=np.zeros_like(g0))
    path = [int(node)]
    while path[-1] > 0:
        path.append(int(tree.parent[path[-1]]))
    up, agg = _upward_messages(tree, params, g0, path[::-1])
    # every step's agg[p] - up[v] in one subtraction, over rows no longer read
    rest = np.subtract(agg[:-1], up[1:], out=up[1:])

    def walk(update):
        down = np.zeros_like(g0)
        for k_in in rest:
            down = update(k_in + down)
        return down

    kernel.values = agg[-1] + _unguarded_first(walk, g0, params.C**2 / 2.0, len(rest))
    flags = ~np.isfinite(kernel.values)
    kernel.flags = flags if flags.any() else None
    return kernel


def depth_convergence(params: ModelParams, branching: int, max_depth: int,
                      lam: float) -> np.ndarray:
    """Residuals |k^(d) - k*| of the root aggregate over depth d = 0..max_depth.

    The regular-tree root aggregate at depth d equals the d-th iterate of the
    uniform map with degree branching+1 starting from zero, so the residuals
    are those of its orbit from :func:`~netbath.laplace._orbit_ends`, with
    zero tolerance and, once it settles exactly, held at its last iterate;
    it is never scanned for recurrence.  Requires the fixed point to exist
    at one ``lam``; a ``branching`` below 1 or a ``max_depth`` below 0, or
    either not an integer, is refused with DomainError.
    """
    _check_count("branching", branching, 1)
    _check_count("max_depth", max_depth, 0)
    if np.ndim(lam) > 0:
        raise ShapeError("depth_convergence takes one lambda, not an array")
    n = int(branching) + 1
    params_n = params if params.n == n else replace(params, n=n)
    k_star = closed_form_fixed_point(params_n, lam)
    orbit = _orbit_ends(params_n, np.array([lam]), max_depth, 0.0)[3]
    orbit = np.pad(orbit, (0, max_depth + 1 - orbit.size), mode="edge")
    return np.abs(orbit - k_star)
