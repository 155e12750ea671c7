"""Dense incidence matrices and exact integer elimination: the test oracles.

The runtime answers every rank question on the pipe end indices, by union-find
and tree walks. The tests check those answers here, by fraction-free
elimination (Bareiss 1968) on the dense signed incidence matrix, which is
totally unimodular: every intermediate entry stays in {-1, 0, +1}, so no
floating tolerance is needed. ``hydrostate solve`` never imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptySubsetError, UnknownNodeError
from .network import Network


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Signed node-by-pipe incidence matrix with entries in {-1, 0, +1}.

    Each column carries +1 at the pipe's tail and -1 at its head. Row and
    column order follow the id tuples; :meth:`restrict` produces the
    submatrix for any node and/or pipe subset. Instances are immutable.
    """

    entries: np.ndarray
    node_ids: tuple[str, ...]
    pipe_ids: tuple[str, ...]

    def __post_init__(self):
        self.entries.setflags(write=False)

    @cached_property
    def _row_index(self) -> dict[str, int]:
        return {nid: i for i, nid in enumerate(self.node_ids)}

    @cached_property
    def _col_index(self) -> dict[str, int]:
        return {pid: j for j, pid in enumerate(self.pipe_ids)}

    def restrict(
        self, nodes: Sequence[str] | None = None, pipes: Sequence[str] | None = None
    ) -> "IncidenceMatrix":
        """Submatrix for the given node rows and/or pipe columns."""
        mat, row_ids, col_ids = self.entries, self.node_ids, self.pipe_ids
        if nodes is not None:
            try:
                rows = [self._row_index[nid] for nid in nodes]
            except KeyError as exc:
                raise UnknownNodeError(f"unknown node id: {exc.args[0]!r}") from None
            mat = mat[rows, :]
            row_ids = tuple(nodes)
        if pipes is not None:
            try:
                cols = [self._col_index[pid] for pid in pipes]
            except KeyError as exc:
                raise UnknownNodeError(f"unknown pipe id: {exc.args[0]!r}") from None
            mat = mat[:, cols]
            col_ids = tuple(pipes)
        return IncidenceMatrix(np.ascontiguousarray(mat), row_ids, col_ids)


def incidence_matrix(net: Network) -> IncidenceMatrix:
    """Full incidence matrix of a network."""
    mat = np.zeros((net.n_nodes, net.n_pipes), dtype=np.int64)
    cols = np.arange(net.n_pipes)
    mat[net.tail_indices, cols] = 1
    mat[net.head_indices, cols] = -1
    return IncidenceMatrix(mat, net.node_ids, net.pipe_ids)


def _eliminate(mat: np.ndarray) -> tuple[int, int]:
    """Fraction-free elimination of ``mat`` in place: its rank and the signed last pivot.

    The sign flips with every row swap, so a square matrix of full rank has the
    signed last pivot as its determinant (1 when no pivot is taken).
    """
    n_rows, n_cols = mat.shape
    rank, sign, prev_pivot = 0, 1, 1
    for col in range(n_cols):
        if rank == n_rows:
            break
        nonzero = np.nonzero(mat[rank:, col])[0]
        if nonzero.size == 0:
            continue
        pivot_row = rank + int(nonzero[0])
        if pivot_row != rank:
            mat[[rank, pivot_row]] = mat[[pivot_row, rank]]
            sign = -sign
        pivot = int(mat[rank, col])
        below = mat[rank + 1 :, col]
        # Dividing by the previous pivot (always +-1 for totally unimodular
        # input) is multiplying by it, which keeps the arithmetic exact.
        mat[rank + 1 :] = (pivot * mat[rank + 1 :] - np.outer(below, mat[rank])) * prev_pivot
        prev_pivot = pivot
        rank += 1
    return rank, sign * prev_pivot


def integer_rank(entries: np.ndarray) -> int:
    """Exact rank of an integer matrix whose minors are all -1, 0 or +1."""
    return _eliminate(np.array(entries, dtype=np.int64, copy=True))[0]


def integer_determinant(entries: np.ndarray) -> int:
    """Exact determinant of a square integer matrix with minors in {-1, 0, +1}; 1 for 0×0."""
    mat = np.array(entries, dtype=np.int64, copy=True)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("determinant needs a square matrix")
    rank, pivot = _eliminate(mat)
    return pivot if rank == len(mat) else 0


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
    rank = integer_rank(B.restrict(nodes=rows).entries)  # raises on an unknown id
    proper = len(set(rows)) < len(B.node_ids)
    assert not proper or rank == len(set(rows)), "proper node subsets have full row rank"
    return rank


def symmetric_expansion(net: Network, flows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand flows to the doubled representation with one edge per direction.

    Returns ``(B_sym, q_sym)``: the incidence matrix over all nodes with a
    forward column per pipe followed by its reversed column, and the matching
    flow vector with ``q_reverse = -q_forward``. In this representation the
    consumer rows of ``B_sym @ q_sym`` equal minus twice the demands.
    """
    flows = np.asarray(flows, dtype=float)
    if flows.shape != (net.n_pipes,):
        raise ValueError(f"flow vector must have one entry per pipe ({net.n_pipes})")
    B = incidence_matrix(net).entries.astype(float)
    return np.hstack([B, -B]), np.concatenate([flows, -flows])
