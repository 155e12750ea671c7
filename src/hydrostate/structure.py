"""Linear-algebraic structure of a network.

Everything here rests on one fact: restricting the incidence matrix to any
proper nonempty node subset S leaves |S| linearly independent rows, so the
consumer rows always have full rank and admit an invertible square column
selection. The consumer rows are the reduced incidence matrix of the graph
with every reservoir merged into one ground node, so a set of pipe columns is
independent exactly when those pipes form a forest in that grounded graph.
Forest selection and flow-pattern ranks are therefore one union-find pass
over the pipes. Exact integer elimination remains for :func:`submatrix_rank`,
for determinants and as the test oracle: incidence matrices are totally
unimodular, so fraction-free elimination keeps every intermediate entry in
{-1, 0, +1} and needs no floating tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySubsetError, UnknownNodeError
from .network import IncidenceMatrix, Network, incidence_matrix, join_sets

#: Default relative tolerance of the image-membership test.
DEFAULT_IMAGE_TOL = 1e-9


def integer_rank(entries: np.ndarray) -> int:
    """Exact rank of an integer matrix whose minors are all -1, 0 or +1."""
    mat = np.array(entries, dtype=np.int64, copy=True)
    n_rows, n_cols = mat.shape
    rank = 0
    prev_pivot = 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        nonzero = np.nonzero(mat[rank:, col])[0]
        if nonzero.size == 0:
            continue
        pivot_row = rank + int(nonzero[0])
        if pivot_row != rank:
            mat[[rank, pivot_row]] = mat[[pivot_row, rank]]
        pivot = int(mat[rank, col])
        below = mat[rank + 1 :, col]
        # Fraction-free update; dividing by the previous pivot (always +-1 for
        # totally unimodular input) keeps the arithmetic exact.
        mat[rank + 1 :] = (pivot * mat[rank + 1 :] - np.outer(below, mat[rank])) * prev_pivot
        prev_pivot = pivot
        rank += 1
    return rank


def integer_determinant(entries: np.ndarray) -> int:
    """Exact determinant of a square integer matrix with minors in {-1, 0, +1}."""
    mat = np.array(entries, dtype=np.int64, copy=True)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev_pivot = 1
    for col in range(n):
        nonzero = np.nonzero(mat[col:, col])[0]
        if nonzero.size == 0:
            return 0
        pivot_row = col + int(nonzero[0])
        if pivot_row != col:
            mat[[col, pivot_row]] = mat[[pivot_row, col]]
            sign = -sign
        pivot = int(mat[col, col])
        below = mat[col + 1 :, col]
        mat[col + 1 :] = (pivot * mat[col + 1 :] - np.outer(below, mat[col])) * prev_pivot
        prev_pivot = pivot
    return sign * int(mat[n - 1, n - 1])


def submatrix_rank(B: IncidenceMatrix, rows: Sequence[str]) -> int:
    """Exact rank of the incidence matrix restricted to the given node rows.

    For a nonempty proper subset of a connected network's nodes the rank
    always equals the subset size; that identity is asserted. Passing all
    nodes is allowed and simply reports the full-matrix rank (one less than
    the node count), with no subset assertion.
    """
    rows = tuple(rows)
    if not rows:
        raise EmptySubsetError("node subset must be nonempty")
    unknown = [r for r in rows if r not in B.node_ids]
    if unknown:
        raise UnknownNodeError(f"unknown node id: {unknown[0]!r}")
    if len(set(rows)) == len(B.node_ids):
        return integer_rank(B.entries)
    rank = integer_rank(B.restrict(nodes=rows).entries)
    assert rank == len(set(rows)), "proper node subsets of a connected network have full row rank"
    return rank


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


def _forest_scan(net: Network, pipe_ids: Iterable[str]) -> tuple[str, ...]:
    """The pipes of ``pipe_ids`` that join two components, in the order given.

    One union-find pass over the graph with every reservoir grounded into one
    node. A pipe's consumer-row column is independent of the columns kept
    before it exactly when the pipe joins two components, so this is the
    greedy rank scan without elimination.
    """
    index = net.pipe_index
    tails, heads = net.tail_indices.tolist(), net.head_indices.tolist()
    parent = list(range(net.n_nodes))
    ground = int(net.reservoir_indices[0])
    for r in net.reservoir_indices.tolist():
        parent[r] = ground
    kept = []
    for pid in pipe_ids:
        j = index.get(pid)
        if j is None:
            raise UnknownNodeError(f"unknown pipe id: {pid!r}")
        if join_sets(parent, tails[j], heads[j]):
            kept.append(pid)
    return tuple(kept)


def greedy_independent_columns(net: Network, candidates: Sequence[str]) -> tuple[str, ...]:
    """Greedy maximal subset of ``candidates`` with independent consumer-row columns.

    Scans candidates in canonical pipe order and keeps a pipe exactly when it
    raises the rank of the consumer-row columns kept so far, that is, when it
    joins two components of the graph with its reservoirs grounded. This is
    one union-find pass; by the matroid greedy argument it keeps the same
    pipes as a scan by exact rank.
    """
    candidate_set = set(candidates)
    unknown = [pid for pid in candidate_set if pid not in net.pipe_index]
    if unknown:
        raise UnknownNodeError(f"unknown pipe id: {sorted(unknown)[0]!r}")
    return _forest_scan(net, (pid for pid in net.pipe_ids if pid in candidate_set))


def flow_pattern_rank(net: Network, pipe_ids: Sequence[str]) -> int:
    """Rank of the consumer-row incidence columns indexed by ``pipe_ids``.

    That is the size of a spanning forest of those pipes in the graph with
    its reservoirs grounded, found by one union-find pass.
    """
    return len(_forest_scan(net, pipe_ids))


def select_independent_edges(net: Network) -> EdgeDecomposition:
    """Deterministic forest/chord decomposition of all pipes.

    Greedy scan in canonical pipe order; existence of a full selection is
    guaranteed because the consumer rows have rank equal to the consumer
    count.
    """
    independent = greedy_independent_columns(net, net.pipe_ids)
    assert len(independent) == net.n_consumers
    chosen = set(independent)
    dependent = tuple(pid for pid in net.pipe_ids if pid not in chosen)
    return EdgeDecomposition(independent, dependent)


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
    """Fundamental-cycle basis of the kernel of the consumer-row incidence map."""
    dec = decomposition if decomposition is not None else select_independent_edges(net)
    B_vc = incidence_matrix(net).restrict(nodes=net.consumer_ids)
    n_c = net.n_consumers
    forest_cols = B_vc.restrict(pipes=dec.independent).entries
    chord_cols = (
        B_vc.restrict(pipes=dec.dependent).entries
        if dec.dependent
        else np.zeros((n_c, 0), dtype=np.int64)
    )

    # Solve forest_cols @ w = -chord_col exactly; the forest matrix is
    # unimodular, so the solutions come out integer.
    coeffs = _solve_rational(forest_cols, -chord_cols)

    pipe_pos = {pid: k for k, pid in enumerate(net.pipe_ids)}
    vectors = []
    for j, chord in enumerate(dec.dependent):
        v = np.zeros(net.n_pipes, dtype=np.int64)
        for i, pid in enumerate(dec.independent):
            value = coeffs[i][j]
            assert value.denominator == 1
            v[pipe_pos[pid]] = int(value)
        v[pipe_pos[chord]] = 1
        assert not np.any(
            incidence_matrix(net).restrict(nodes=net.consumer_ids).entries @ v
        )
        v.setflags(write=False)
        vectors.append(v)
    return CycleBasis(tuple(vectors), dec)


def _solve_rational(a: np.ndarray, b: np.ndarray) -> list[list[Fraction]]:
    """Solve ``a @ x = b`` column by column over the rationals (a square, invertible)."""
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


@dataclass(frozen=True)
class ImageMembership:
    """Outcome of testing whether a pipe-space vector is reachable from consumer heads."""

    member: bool
    consumer_heads: np.ndarray | None
    residual: float


def image_membership(
    net: Network, target: np.ndarray, tol: float = DEFAULT_IMAGE_TOL
) -> ImageMembership:
    """Least-squares test of ``target in range(B_consumers^T)``.

    The consumer rows have full rank, so the minimizer of
    ``||B_consumers^T h - target||`` is unique. Membership is decided on the
    relative infinity-norm residual against ``tol``; a member result carries
    the consumer heads that realize the target.
    """
    target = np.asarray(target, dtype=float)
    if target.shape != (net.n_pipes,):
        raise ValueError(f"target must have one entry per pipe ({net.n_pipes})")
    A = (
        incidence_matrix(net)
        .restrict(nodes=net.consumer_ids)
        .entries.T.astype(float)
    )
    heads, *_ = np.linalg.lstsq(A, target, rcond=None)
    residual = float(np.max(np.abs(A @ heads - target), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(target), initial=0.0)))
    if residual / scale <= tol:
        return ImageMembership(True, heads, residual)
    return ImageMembership(False, None, residual)
