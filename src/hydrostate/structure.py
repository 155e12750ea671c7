"""Linear-algebraic structure of a network.

Everything here rests on one fact: restricting the incidence matrix to any
proper nonempty node subset S leaves |S| linearly independent rows, so the
consumer rows always have full rank and admit an invertible square column
selection. The consumer rows are the reduced incidence matrix of the graph
with every reservoir merged into one ground node, so a set of pipe columns is
independent exactly when those pipes form a forest in that grounded graph.
Forest selection is therefore one union-find pass over the pipes. The
canonical forest from the reservoirs and its walk are cached as
:attr:`Network.grounded_tree`, which the decomposition and the flow routes
from the reservoir heads build, and which :func:`greedy_independent_columns`
and :func:`orient_forest`, the one orientation, read once built. Every
structure here reads the pipe end indices; the dense incidence matrix and
exact elimination on it are the test oracles of :mod:`hydrostate.exact`,
except that :func:`cycle_space_basis` still runs ``_solve_rational`` until
the tree-path cycle basis of ROADMAP item 2 replaces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import DecompositionMismatchError, UnknownNodeError
from .band import consumer_ends

if TYPE_CHECKING:
    from .network import Network


@dataclass(frozen=True)
class EdgeDecomposition:
    """Partition of the pipe set into independent (forest) and dependent (chord) edges.

    The consumer-row columns of ``independent`` form an invertible square
    matrix; viewed undirected they are a forest connecting every consumer to
    exactly one reservoir. ``dependent`` holds the remaining pipes, each of
    which closes one fundamental cycle.
    """

    independent: tuple[str, ...]
    dependent: tuple[str, ...]


def pipe_positions(net: Network, pipe_ids: Iterable[str]) -> list[int]:
    """Canonical positions of ``pipe_ids``; raises :class:`UnknownNodeError` for an unknown id."""
    try:
        return [net.pipe_index[pid] for pid in pipe_ids]
    except KeyError as exc:
        raise UnknownNodeError(f"unknown pipe id: {exc.args[0]!r}") from None


def join_sets(parent: list[int], a: int, b: int) -> bool:
    """Union-find step: merge the sets holding ``a`` and ``b`` (Tarjan 1975).

    ``parent`` starts as ``list(range(n))`` and is updated in place, with path
    halving. Returns False when ``a`` and ``b`` were already in one set.
    """
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    while parent[b] != b:
        parent[b] = parent[parent[b]]
        b = parent[b]
    if a == b:
        return False
    parent[a] = b
    return True


def grounded_forest(
    net: Network, positions: Iterable[int], grounded: Sequence[int] | None = None
) -> list[int]:
    """The pipe positions of ``positions`` that join two components, in the order given.

    One union-find pass over the graph with the ``grounded`` nodes (default: the
    reservoirs) merged into one node. A pipe's column in the other nodes' rows is
    independent of the columns kept before it exactly when the pipe joins two
    components, so this is the greedy rank scan without elimination.
    """
    tails, heads = net.tail_indices.tolist(), net.head_indices.tolist()
    parent = list(range(net.n_nodes))
    ground = np.asarray(net.reservoir_indices if grounded is None else grounded).tolist()
    for r in ground:
        parent[r] = ground[0]
    return [j for j in positions if join_sets(parent, tails[j], heads[j])]


def greedy_independent_columns(
    net: Network, candidates: Iterable[str], grounded: Sequence[int] | None = None
) -> tuple[str, ...]:
    """Greedy maximal subset of ``candidates`` with independent columns in the ungrounded rows.

    Scans candidates in canonical pipe order and keeps a pipe exactly when it raises the rank of
    the columns kept so far in the rows of the nodes outside ``grounded`` (default: the
    reservoirs), that is, when it joins two components of the graph with ``grounded`` merged.
    This is one union-find pass; by the matroid greedy argument it keeps the same pipes as a scan
    by exact rank. With the reservoirs grounded, candidates holding the forest of a built
    :attr:`Network.grounded_tree` skip the pass: it would keep each forest pipe and reject every
    other one, spanned by the forest pipes before it.
    """
    wanted = set(candidates)
    unknown = wanted.difference(net.pipe_index)
    if unknown:
        raise UnknownNodeError(f"unknown pipe id: {min(unknown)!r}")
    tree = vars(net).get("grounded_tree")  # building the tree costs more than this scan
    reservoirs = grounded is None or np.array_equal(grounded, net.reservoir_indices)
    if tree is not None and reservoirs and wanted.issuperset(tree.forest):
        return tree.forest
    ids = net.pipe_ids
    positions = [j for j, pid in enumerate(ids) if pid in wanted]
    return tuple(ids[j] for j in grounded_forest(net, positions, grounded))


def select_independent_edges(net: Network) -> EdgeDecomposition:
    """Deterministic forest/chord decomposition of all pipes.

    Greedy scan in canonical pipe order, whose forest is computed once per network
    (:attr:`Network.grounded_tree`); the chords are the other pipes, in canonical order. A full
    selection exists because the consumer rows have rank equal to the consumer count.
    """
    forest = net.grounded_tree.forest
    chosen = set(forest)
    return EdgeDecomposition(forest, tuple(pid for pid in net.pipe_ids if pid not in chosen))


@dataclass(frozen=True, eq=False)
class CycleBasis:
    """Integer basis of the flow vectors the consumer mass balance cannot see.

    One vector per chord, in ``decomposition.dependent`` order, each with
    coefficient 1 on its chord and the balancing coefficients on forest
    edges; all satisfy ``B_consumers @ v == 0`` exactly.
    """

    vectors: tuple[np.ndarray, ...]
    decomposition: EdgeDecomposition

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def cycle_space_basis(net: Network, decomposition: EdgeDecomposition | None = None) -> CycleBasis:
    """Fundamental-cycle basis of the kernel of the consumer-row incidence map.

    The consumer-row columns of the forest and chord pipes are built from the
    pipe ends, and ``Bc V = 0`` is checked once for the whole basis ``V``.
    Raises :class:`DecompositionMismatchError` unless the decomposition splits
    every pipe exactly once and its forest spans the grounded graph.
    """
    dec = decomposition if decomposition is not None else select_independent_edges(net)
    forest, chords = pipe_positions(net, dec.independent), pipe_positions(net, dec.dependent)
    positions = forest + chords
    if len(set(positions)) != len(positions) or len(positions) != net.n_pipes:
        raise DecompositionMismatchError("the decomposition must hold every pipe exactly once")
    orient_forest(net, forest, net.reservoir_indices)  # raises unless the forest spans
    tails, heads = consumer_ends(net)
    columns = np.zeros((net.n_consumers + 1, len(positions)), dtype=np.int64)
    k = np.arange(len(positions))
    columns[tails[positions], k] = 1
    columns[heads[positions], k] = -1
    columns = columns[:-1]  # drop the row that collects the reservoir ends

    # Solve forest_cols @ w = -chord_cols exactly; the forest matrix is
    # unimodular, so the solutions come out integer, and the kernel check
    # below would fail if one did not.
    coeffs = _solve_rational(columns[:, : len(forest)], -columns[:, len(forest) :])
    vectors = np.zeros((len(chords), net.n_pipes), dtype=np.int64)
    vectors[:, forest] = np.array([[int(v) for v in row] for row in coeffs], dtype=np.int64).T
    vectors[np.arange(len(chords)), chords] = 1
    assert not np.any(columns @ vectors[:, positions].T), "every vector lies in the kernel of Bc"
    vectors.setflags(write=False)
    return CycleBasis(tuple(vectors), dec)


def _solve_rational(a: np.ndarray, b: np.ndarray) -> list[list]:
    """Solve ``a @ x = b`` column by column over the rationals (a square, invertible)."""
    from fractions import Fraction  # loaded only here, off every solve route

    n = a.shape[0]
    n_rhs = b.shape[1]
    work = [
        [Fraction(int(a[i, j])) for j in range(n)]
        + [Fraction(int(b[i, j])) for j in range(n_rhs)]
        for i in range(n)
    ]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


@dataclass(frozen=True, eq=False)
class ForestWalk:
    """A forest oriented breadth-first from its grounded nodes, as level arrays.

    ``steps`` is a read-only (4, s) intp array of rows ``child, parent, pipe, sign``: ``pipe``
    reaches ``child`` from ``parent`` and points to it when ``sign`` is +1. Columns
    ``levels[d]:levels[d + 1]`` reach depth ``d + 1``, so each parent is grounded or walked before.
    """

    steps: np.ndarray
    levels: tuple[int, ...]

    @property
    def child(self) -> np.ndarray:
        """The walked nodes, that is, those not grounded, in walk order."""
        return self.steps[0]


@dataclass(frozen=True, eq=False)
class GroundedTree:
    """The canonical forest and its orientation from the reservoirs.

    ``forest`` holds the pipes that :func:`grounded_forest` keeps scanning all pipes in canonical
    order, and ``walk`` is :func:`orient_forest` of the forest from the reservoirs, so the sorted
    ``walk.steps[2]`` are the forest's positions. The chords are the other pipes, which
    :func:`select_independent_edges` lists.
    """

    forest: tuple[str, ...]
    walk: ForestWalk


def grounded_tree(net: Network) -> GroundedTree:
    """The canonical :class:`GroundedTree`, which :attr:`Network.grounded_tree` caches."""
    kept = grounded_forest(net, range(net.n_pipes))
    assert len(kept) == net.n_consumers, "a connected network has a spanning forest"
    forest = tuple(net.pipe_ids[j] for j in kept)
    return GroundedTree(forest, orient_forest(net, kept, net.reservoir_indices))


#: The walk of an empty forest with every node grounded (read-only: it views immutable bytes).
_ALL_GROUNDED = ForestWalk(np.frombuffer(b"", dtype=np.intp).reshape(4, 0), (0,))


def orient_forest(net: Network, positions: Sequence[int], grounded: Sequence[int]) -> ForestWalk:
    """Orient the forest pipes at ``positions`` breadth-first from the ``grounded`` node indices.

    A built :attr:`Network.grounded_tree` gives its walk for its forest's sorted positions and the
    reservoirs in order. Raises :class:`DecompositionMismatchError` unless they span the graph.
    """
    if len(positions) == 0 and len(grounded) == net.n_nodes:
        return _ALL_GROUNDED
    tree = vars(net).get("grounded_tree")  # building the tree costs more than this pass
    reservoirs = tree is not None and np.array_equal(grounded, net.reservoir_indices)
    if reservoirs and np.array_equal(positions, np.sort(tree.walk.steps[2])):
        return tree.walk
    return _breadth_first(net, positions, grounded)


def _breadth_first(net: Network, positions: Sequence[int], grounded: Sequence[int]) -> ForestWalk:
    """The breadth-first pass of :func:`orient_forest`."""
    queue, parents, pipes, levels = np.asarray(grounded).tolist(), [], [], [0]
    tails, ends = net.tail_indices.tolist(), net.head_indices.tolist()
    incident: list[list[int]] = [[] for _ in range(net.n_nodes)]
    for j in positions:
        incident[tails[j]].append(j)
        incident[ends[j]].append(j)
    reached, level_end = set(queue), len(queue)
    for i, parent in enumerate(queue):
        if i == level_end:  # the parents one level deeper begin
            levels.append(len(pipes))
            level_end = len(queue)
        for j in incident[parent]:
            child = ends[j] if tails[j] == parent else tails[j]
            if child not in reached:
                reached.add(child)
                queue.append(child)
                parents.append(parent)
                pipes.append(j)
    # Each reached node takes one forest pipe: any pipe left over closes a cycle.
    if len(pipes) != len(positions) or len(queue) != net.n_nodes:
        raise DecompositionMismatchError("the forest must reach every ungrounded node exactly once")
    steps = np.empty((4, len(pipes)), dtype=np.intp)
    steps[0], steps[1], steps[2] = queue[len(grounded):], parents, pipes
    steps[3] = np.where(net.tail_indices[steps[2]] == steps[1], 1, -1)
    steps.setflags(write=False)
    return ForestWalk(steps, tuple(levels))


def walk_heads(walk: ForestWalk, heads: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """Every head from the grounded ones: ``h[child] = h[parent] - sign * loss[pipe]`` per level."""
    child, parent, pipe, sign = walk.steps
    drop = sign * loss[pipe]
    h = np.array(heads, dtype=float)
    for a, b in zip(walk.levels, walk.levels[1:]):
        h[child[a:b]] = h[parent[a:b]] - drop[a:b]
    return h
