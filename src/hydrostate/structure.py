"""Linear-algebraic structure of a network.

Everything here rests on one fact: restricting the incidence matrix to any
proper nonempty node subset S leaves |S| linearly independent rows, so the
consumer rows always have full rank and admit an invertible square column
selection. The consumer rows are the reduced incidence matrix of the graph
with every reservoir merged into one ground node, so a set of pipe columns is
independent exactly when those pipes form a forest in that grounded graph.
Forest selection is therefore one union-find pass over the pipes. Every
structure here reads the pipe end indices; the dense incidence matrix and
exact elimination on it are the test oracles of :mod:`hydrostate.exact`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DecompositionMismatchError, UnknownNodeError
from .band import consumer_ends
from .network import Network, grounded_forest, orient_forest


def __getattr__(name: str):
    """``integer_determinant`` of :mod:`hydrostate.exact`, which loads only when it is asked for."""
    if name == "integer_determinant":
        from .exact import integer_determinant

        return integer_determinant
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    Greedy scan in canonical pipe order, computed once per network
    (:attr:`Network.grounded_tree`); existence of a full selection is
    guaranteed because the consumer rows have rank equal to the consumer
    count.
    """
    tree = net.grounded_tree
    return EdgeDecomposition(tree.forest, tree.chords)


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
    tree_walk(net, dec.independent)  # cached for the canonical split
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


def tree_walk(
    net: Network, forest: Sequence[str] | None = None, grounded: Sequence[int] | None = None
) -> tuple[tuple[int, int, int, int], ...]:
    """Orient ``forest`` (default: the canonical one) breadth-first from ``grounded`` (reservoirs).

    Step ``(child, parent, pipe, sign)`` has ``sign`` +1 when ``pipe`` points to ``child``. Raises
    :class:`DecompositionMismatchError` unless it spans the graph with ``grounded`` merged. The
    canonical forest from the reservoirs is oriented once per network
    (:attr:`Network.grounded_tree`); any other forest or grounded set is oriented afresh.
    """
    if grounded is None or np.array_equal(grounded, net.reservoir_indices):
        tree = net.grounded_tree
        if forest is None or tuple(forest) == tree.forest:
            return tree.steps
        grounded = net.reservoir_indices
    elif forest is None:
        forest = net.grounded_tree.forest
    return orient_forest(net, pipe_positions(net, forest), grounded)


def walk_heads(steps, heads: np.ndarray, loss: np.ndarray) -> np.ndarray:
    """Every head from the grounded ones: ``h[child] = h[parent] - sign * loss[pipe]``."""
    if not steps:  # every node grounded: skip the list round trip
        return np.array(heads, dtype=float)
    h, loss = np.asarray(heads, dtype=float).tolist(), np.asarray(loss, dtype=float).tolist()
    for child, parent, pipe, sign in steps:
        h[child] = h[parent] - sign * loss[pipe]
    return np.array(h)

