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

The update stage is one upward sweep that every output reads.  A tree of at
most ``_DENOM_ROWS`` subtree classes, fewer than its nodes, keeps the rows of
one lambda grid and coupling: its upward messages and child aggregates, one
row a class, and the down rows of the walks made on them, so a root message
and any number of environments on one grid make one sweep.  A tree
:func:`build_tree` builds keeps its shape and no node array: its
``parent`` is written on first read.

Message passing on trees is exact; these routines make no approximation
beyond floating point.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ShapeError, SizeError, _check_bytes
from .laplace import (POLE_RTOL, CavityKernel, _check_count, _edge_update,
                      _orbit_ends, closed_form_fixed_point, g0_laplace)
from .model import ModelParams

#: Refuse to build trees larger than this (2**20 nodes).
NODE_CAP = 1 << 20

#: What an upward sweep is charged, above the tracemalloc peaks of regular,
#: random, chain, star and caterpillar trees: float rows per subtree class
#: of its widest level, times the grid size, where they peaked at 1.9 over
#: 4,000 lambda (a random recursive tree of 20,000 nodes) above the rest of
#: its charge; and what finding the classes of a tree that
#: :func:`build_tree` does not build is charged, once: words per node,
#: where it peaked at 10.1 to 21.6, the tree's depth index included.  A
#: tree it builds takes them in closed form, charged 2b + 4 words a level,
#: where a chain peaked at 5.06.
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
    keeps the shape it built and no array: its node count, ancestors, depth
    and subtree classes are written down, not found, and ``parent`` is
    written on its first read, read-only, with no check.  A tree of few
    subtree classes keeps the message rows of the last lambda grid and
    coupling it was swept on (see :func:`_upward_messages`).  A sweep adds
    siblings in id order.  Two trees are equal when their parent arrays
    are, and hash alike.
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
    def _built(cls, regular: tuple[int, int]) -> TreeGraph:
        """:func:`build_tree`'s tree: its shape, and no array until one is read."""
        tree = object.__new__(cls)
        tree.__dict__["_regular"] = regular
        return tree

    def __getattr__(self, name):
        # Reached only for what the tree does not hold: a built tree's parent
        # array before its first read.  Node ids are breadth first, so the
        # array is one run of ids stored b times, strided.
        if name != "parent" or self._regular is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        b = self._regular[0]
        parent = np.empty(self.n_nodes, dtype=np.int64)
        parent[0] = -1
        children = parent[1:].reshape(-1, b)    # row i: the children of node i
        if len(children) < b:       # depth 0 or 1: one row or none
            children[...] = np.arange(len(children))[:, None]
        else:
            children[:, 0] = np.arange(len(children))
            for j in range(1, b):
                children[:, j] = children[:, 0]
        parent.flags.writeable = False
        self.__dict__["parent"] = parent
        return parent

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
        if self._regular is None:
            return self.parent.size
        b, d = self._regular
        return d + 1 if b == 1 else (b ** (d + 1) - 1) // (b - 1)

    def _root_path(self, node: int) -> list[int]:
        """Node ids from the root down to ``node``: each parent ``(v - 1) // b``
        on a tree :func:`build_tree` builds, read from the array on any other."""
        path = [node]
        if self._regular is None:
            parent = self.parent
            while path[-1] > 0:
                path.append(int(parent[path[-1]]))
        else:
            b = self._regular[0]
            while path[-1] > 0:
                path.append((path[-1] - 1) // b)
        return path[::-1]

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
        """:func:`_subtree_classes` of this tree, found on its first sweep,
        its node classes read-only.  A tree :func:`build_tree` builds has
        one class a level, which b children of the one class below form, so
        it takes them in closed form: every node's class 0 is one zero with
        a stride of 0, and only the b terms, the bound and the count of each
        level are charged and held."""
        n = self.n_nodes
        if self._regular is None:
            _check_bytes(8 * SWEEP_WORDS * n, f"subtree classes of {n} nodes")
            classes = _subtree_classes(self)
            classes[0].flags.writeable = False
            return classes
        b, d = self._regular
        _check_bytes(8 * (2 * b + 4) * (d + 2), f"subtree classes of {n} nodes")
        zero = np.ndarray((n,), np.int64, np.zeros(1, np.int64), 0, (0,))
        zero.flags.writeable = False
        return (zero, [1] * (d + 1),
                np.zeros(b * d, dtype=np.int64), np.zeros(b * d, dtype=np.int64),
                np.maximum(b * np.arange(-1, d + 1), 0))


def build_tree(branching: int, depth: int) -> TreeGraph:
    """Regular rooted tree: every node down to level depth-1 has ``branching`` children.

    Nodes are numbered breadth first, so the children of node i are the ids
    1 + b i .. b (i + 1).  The tree keeps the shape it was built to and
    writes its parent array, read-only, on the array's first read.  Sizes
    that are not integers (bools included) are refused with DomainError, a
    tree of more than ``NODE_CAP`` nodes with SizeError, one branching past
    depth 20 before its node count is formed.
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
    return TreeGraph._built((b if d else 1, d))


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
                     path) -> tuple[np.ndarray, np.ndarray, dict | None]:
    """Upward message and child aggregate along a root-to-node path, per grid point.

    ``g0`` is :func:`_g0_grid` of the lambda grid; ``path`` lists node ids
    from the root down, one per level.  Returns ``(up, agg, down)``: ``up``
    and ``agg`` have one row per node of the path, ``up[k, j]`` the message
    path[k] sends toward its parent at g0[j] (for the root: toward a virtual
    parent) and ``agg[k, j]`` the sum of the messages it receives from its
    children; ``down`` is the dict of down rows :func:`output_environment`
    keeps on the tree for this grid, or None on a tree that keeps no rows.
    Nodes with identical subtrees send identical messages, so the sweep
    (:func:`_sweep`) forms one row per subtree class (``TreeGraph._classes``,
    taken on a tree's first sweep and kept on it) and the path's rows are
    read through each node's class.

    A tree of at most ``_DENOM_ROWS`` classes, fewer than its nodes (every
    :func:`build_tree` tree of branching >= 2, not a chain), keeps every
    class row of the sweep, read-only, under the key (C^2/2, G0's bytes), on
    which alone the rows depend: a later call with that key reads its path
    rows from them, with no sweep, charged only the rows it reads and walks,
    and a call with another key sweeps and replaces them.  Any other tree
    sweeps on every call, holding two levels of rows.
    """
    node_class, counts, target, source, bounds = tree._classes
    c_half = params.C**2 / 2.0
    path_class = node_class[path].tolist()
    kept = tree.__dict__.get("_rows")
    if kept is not None and kept[0] == (c_half, g0.tobytes()):
        # the path's rows and a walk's down it
        _check_bytes(8 * g0.size * 3 * len(path),
                     f"upward rows of {len(path)} nodes over {g0.size} lambda points")
    else:
        classes, bounds = sum(counts), bounds.tolist()
        keep = classes <= _DENOM_ROWS and classes < tree.n_nodes
        # The widest level's class aggregates, updated in place, with the
        # edge-update temporaries and the level above it; the most terms one
        # level gathers (a level of one class under one class adds its row
        # in place); the path's rows; the denominators held, and the mask of
        # their test; on a tree that keeps its rows, the up, aggregate and
        # down rows kept and the rows of a walk down the path.
        rows = SWEEP_ROWS * max(counts) + max(
            (bounds[k + 1] - bounds[k] for k in range(1, len(counts))
             if not counts[k - 1] == 1 == counts[k]), default=0)
        rows += 2 * len(path) + 2 * min(len(counts), _DENOM_ROWS)
        rows += (3 * classes + len(path)) if keep else 0
        _check_bytes(8 * g0.size * rows,
                     f"upward sweep of {tree.n_nodes} nodes over {g0.size} lambda points")
        levels = (counts, target, source, bounds)
        if not keep:
            return (*_sweep(levels, g0, c_half, path_class), None)
        # the rows of another key go before the sweep holds rows of its own
        tree.__dict__.pop("_rows", None)
        kept = None
        up, agg = _sweep(levels, g0, c_half, None)
        up.flags.writeable = agg.flags.writeable = False
        kept = tree.__dict__["_rows"] = ((c_half, g0.tobytes()), up, agg, {})
    # each path node's row: its level's first row, plus its class
    at = [first + c for first, c in zip(accumulate(counts, initial=0), path_class)]
    return kept[1][at], kept[2][at], kept[3]


def _sweep(levels, g0, c_half, path_class) -> tuple[np.ndarray, np.ndarray]:
    """Upward messages and child aggregates of :func:`_upward_messages`: the
    rows of the classes ``path_class`` names, one a level from the root
    down, or, when it is None, of every class, level by level from the root.
    ``levels`` holds ``TreeGraph._classes``' counts, target, source and
    bounds, the bounds as a list.

    The sweep goes level by level from the deepest.  Given a path, it holds
    the level being formed and the level below it, and updates each level's
    aggregates in place into its messages; given none, it forms each
    level's aggregates in their rows and updates them into the message
    rows.  Siblings are added in id order starting from 0.0: a level of one
    class whose children are one class too adds its one message row in
    place, the additions ``np.add.at`` makes, and any other level by
    ``np.add.at``.  A level of one class is updated as
    :func:`_unguarded_first` says.  Pole hits are recorded as nan rather
    than aborting the sweep.
    """
    counts, target, source, bounds = levels
    keep = path_class is None
    at = list(accumulate(counts, initial=0)) if keep else None  # each level's first row

    def sweep(update):
        up = np.empty((at[-1] if keep else len(path_class), g0.size))
        agg_rows = np.zeros_like(up) if keep else np.empty_like(up)
        agg = agg_rows[at[-2]:] if keep else np.zeros((1, g0.size))
        for k in reversed(range(len(counts))):
            if keep:
                msgs = up[at[k]:at[k + 1]]
            else:
                if k < len(path_class):
                    agg_rows[k] = agg[path_class[k]]
                msgs = agg              # updated in place
            if counts[k] == 1:
                update(agg[0], msgs[0])
            else:
                _edge_update(agg, g0, c_half, out=msgs)
            if not keep and k < len(path_class):
                up[k] = msgs[path_class[k]]
            if k == 0:
                return up, agg_rows
            a, b = bounds[k], bounds[k + 1]
            out = agg_rows[at[k - 1]:at[k]] if keep else None
            if counts[k - 1] == 1 == counts[k]:
                agg = np.add(msgs, 0.0, out=out)    # np.add.at's first addition, from 0.0
                for _ in range(b - a - 1):
                    agg += msgs
            else:
                agg = np.zeros((counts[k - 1], g0.size)) if out is None else out
                np.add.at(agg, target[a:b], msgs.take(source[a:b], axis=0))

    return _unguarded_first(sweep, g0, c_half, len(counts))


def _unguarded_first(run, g0, c_half, steps: int):
    """``run(update)``, a pass of at most ``steps`` single-edge updates
    ``update(k_in, out=None)`` of rows over the grid, each written into
    ``out``, or into ``k_in`` when out is None.

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

    def unguarded(k_in, out=None):
        nonlocal filled, near
        if filled == len(held):
            near, filled = near + near_pole(), 0
        denom = held[filled]
        filled += 1
        np.subtract(1.0, np.multiply(g0, k_in, out=denom), out=denom)
        return np.divide(numer, denom, out=k_in if out is None else out)

    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            numer = c_half * g0
            result = run(unguarded)
        if not near + near_pole():
            return result
        del result      # before the second pass holds rows of its own
    except FloatingPointError:
        pass
    return run(lambda k_in, out=None:
               _edge_update(k_in, g0, c_half, out=k_in if out is None else out)[0])


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
    up, _, _ = _upward_messages(tree, params, _g0_grid(params, lambda_grid), [0])
    return float(up[0, 0]) if np.ndim(lambda_grid) == 0 else up[0]


def output_environment(tree: TreeGraph, params: ModelParams, node: int,
                       lambda_grid) -> CavityKernel:
    """Effective-environment kernel at a node: sum over ALL incident messages.

    The children's messages plus the one from the parent side, found by
    walking the root-to-node path (O(depth x grid) after the sweep): into v
    from its parent p comes the edge update of ``agg[p] - up[v] + down[p]``,
    all p sees but v's branch.  A tree that keeps its sweep's rows keeps the
    down rows of each walk too, under the classes along its root path (on a
    :func:`build_tree` tree, one row a level), and a walk steps only past
    the longest kept prefix of its path.  An isolated node sees a zero
    kernel; a lambda point gives a kernel on a grid of one.  Before the
    sweep, a lambda the model refuses raises DomainError, and a node that is
    not an integer in 0..N-1 or a grid CavityKernel would refuse, ShapeError.
    """
    if (not isinstance(node, numbers.Integral) or isinstance(node, bool)
            or not 0 <= node < tree.n_nodes):
        raise ShapeError(f"node must be an integer in 0..{tree.n_nodes - 1}, got {node!r}")
    g0 = _g0_grid(params, lambda_grid)
    kernel = CavityKernel(grid=np.atleast_1d(lambda_grid), values=np.zeros(g0.size))
    path = tree._root_path(int(node))
    up, agg, downs = _upward_messages(tree, params, g0, path)
    start, down = 0, np.zeros(g0.size)
    if downs is not None:
        # A down row depends on the classes along its root path alone, so it
        # is kept under them: the walk starts below the longest kept prefix.
        key = tuple(tree._classes[0][path].tolist())
        start = len(path) - 1
        while start and key[:start + 1] not in downs:
            start -= 1
        if start:
            down = downs[key[:start + 1]]
    # every step's agg[p] - up[v] in one subtraction, over rows no longer read
    rest = np.subtract(agg[start:-1], up[start + 1:], out=up[start + 1:])

    def walk(update):
        row, rows = down, []
        for k_in in rest:
            row = update(k_in + row)
            if downs is not None:
                rows.append(row)
        return row, rows

    row, rows = down, []
    if len(rest):
        row, rows = _unguarded_first(walk, g0, params.C**2 / 2.0, len(rest))
    if downs is not None:
        # kept once the pass is accepted, so nan rows at a pole keep their
        # bits; no more down rows than classes
        room = sum(tree._classes[1]) - len(downs)
        for end, each in zip(range(start + 2, len(path) + 1), rows[:room]):
            each.flags.writeable = False
            downs[key[:end]] = each
    kernel.values = agg[-1] + row
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
