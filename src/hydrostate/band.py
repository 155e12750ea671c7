"""The consumer-head matrix ``Bc diag(w) Bc^T`` of the Global Gradient Algorithm: layout and solves.

Each Newton step of the demand-driven route solves this symmetric positive
definite matrix over the consumer heads (Todini & Pilati). :class:`HeadBand`
lays it out in blocks in reverse Cuthill-McKee order (George & Liu), and a
block elimination solves it in O(n_c * block) memory with numpy alone, as
``import scipy.sparse.linalg`` costs about 0.45 s and 32 MB by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .network import Network

#: Smallest block of :class:`HeadBand`. Each block costs one Python-level
#: elimination step, so a path-like network (bandwidth 1) still takes blocks
#: large enough that the per-step overhead stays below the arithmetic.
_MIN_HEAD_BLOCK = 32


@dataclass(frozen=True, eq=False)
class HeadBand:
    """Where each pipe's weight lands in the blocks of the consumer-head matrix.

    Consumers are renumbered by ``order``. Reverse Cuthill-McKee over the
    consumer-consumer pipes keeps every such pipe within ``bandwidth`` ranks
    of the diagonal; blocks of ``block >= bandwidth`` consecutive ranks then
    make the matrix, padded with an identity to ``n_blocks * block`` rows,
    block-tridiagonal. ``order`` is that numbering with each block
    partitioned stably: first the consumers joined to the block before by a
    pipe, then the others. So block row ``k + 1`` meets block column ``k``
    only in its first ``n_coupled[k]`` rows (about half of a block on
    mesh-like networks).

    The blocks are stored flat. First come the ``n_blocks`` diagonal blocks,
    each after a right-hand side column (``block x (1 + block)``). From
    ``lower_starts[k]`` to ``lower_starts[k + 1]`` follows the transpose of
    the block below diagonal block ``k``, kept to its coupled columns and
    again after a right-hand side column (``block x (1 + n_coupled[k])``).
    Entry ``e`` adds ``weight[pipes[e]]`` to cell ``cells[e]``, negated from
    ``n_diagonal`` on.
    """

    order: np.ndarray
    bandwidth: int
    block: int
    n_blocks: int
    pipes: np.ndarray
    cells: np.ndarray
    n_diagonal: int
    n_coupled: tuple[int, ...]
    lower_starts: tuple[int, ...]


def _reverse_cuthill_mckee(neighbours: list[list[int]]) -> list[int]:
    """Reverse Cuthill-McKee order of a graph given by adjacency lists (sorted in place).

    Each connected component in turn is numbered breadth-first from a
    pseudo-peripheral node (George & Liu), visiting neighbours by increasing
    degree; reversing the whole numbering leaves the bandwidth unchanged and
    reduces fill.
    """
    degree = [len(nb) for nb in neighbours]
    for nb in neighbours:
        nb.sort(key=lambda v: (degree[v], v))

    def levels(root: int) -> list[list[int]]:
        seen = {root}
        out = [[root]]
        while True:
            nxt = []
            for v in out[-1]:
                for w in neighbours[v]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            if not nxt:
                return out
            out.append(nxt)

    placed = [False] * len(neighbours)
    order: list[int] = []
    for start in range(len(neighbours)):
        if placed[start]:
            continue
        root, structure = start, levels(start)
        while True:
            candidate = min(structure[-1], key=lambda v: (degree[v], v))
            deeper = levels(candidate)
            if len(deeper) <= len(structure):
                break
            root, structure = candidate, deeper
        placed[root] = True
        component = [root]
        for v in component:
            for w in neighbours[v]:
                if not placed[w]:
                    placed[w] = True
                    component.append(w)
        order.extend(component)
    order.reverse()
    return order


def head_band(net: Network) -> HeadBand:
    """The block layout of ``Bc diag(w) Bc^T`` for the consumers and pipes of ``net``."""
    n_c = net.n_consumers
    position = np.full(net.n_nodes, -1)
    position[net.consumer_indices] = np.arange(n_c)
    tails, heads = position[net.tail_indices], position[net.head_indices]
    inner = np.flatnonzero((tails >= 0) & (heads >= 0))
    ends = np.stack([tails[inner], heads[inner]])
    neighbours: list[set[int]] = [set() for _ in range(n_c)]
    for a, b in zip(*ends.tolist()):
        neighbours[a].add(b)
        neighbours[b].add(a)
    order = np.array(_reverse_cuthill_mckee([list(nb) for nb in neighbours]), dtype=np.intp)
    rank = np.empty(n_c, dtype=np.intp)
    rank[order] = np.arange(n_c)
    lo, hi = np.sort(rank[ends], axis=0)
    bandwidth = int(np.max(hi - lo, initial=0))
    s = max(bandwidth, _MIN_HEAD_BLOCK)
    n_blocks = -(-n_c // s)
    # Coupled rows first within each block; the stable sort keeps the
    # Cuthill-McKee order inside both parts and every consumer in its block.
    joined = np.zeros(n_c, dtype=bool)
    joined[hi[lo // s < hi // s]] = True
    order = order[np.lexsort((~joined, np.arange(n_c) // s))]
    n_coupled = np.bincount(np.flatnonzero(joined) // s, minlength=n_blocks)[1:]
    rank[order] = np.arange(n_c)
    lo, hi = np.sort(rank[ends], axis=0)

    width = 1 + s  # a right-hand side column and a diagonal block

    def diagonal_cell(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return (i // s) * s * width + (i % s) * width + 1 + j % s

    end_pipes = np.concatenate([np.flatnonzero(tails >= 0), np.flatnonzero(heads >= 0)])
    end_ranks = rank[np.concatenate([tails[tails >= 0], heads[heads >= 0]])]
    same = lo // s == hi // s
    lower_starts = n_blocks * s * width + s * np.concatenate([[0], np.cumsum(n_coupled + 1)])
    # A pipe between blocks k and k + 1 joins row lo % s of the stored
    # transpose to coupled column hi % s, which the partition put first.
    k = lo[~same] // s
    below = lower_starts[k] + (lo[~same] % s) * (n_coupled[k] + 1) + 1 + hi[~same] % s
    pipes = np.concatenate([end_pipes, inner[same], inner[same], inner[~same]])
    cells = np.concatenate([
        diagonal_cell(end_ranks, end_ranks), diagonal_cell(lo[same], hi[same]),
        diagonal_cell(hi[same], lo[same]), below,
    ])
    for arr in (order, pipes, cells):
        arr.setflags(write=False)
    return HeadBand(
        order, bandwidth, s, n_blocks, pipes, cells, len(end_pipes),
        tuple(n_coupled.tolist()), tuple(lower_starts.tolist()),
    )


def _eliminate(band: HeadBand, weights: np.ndarray, rhs: np.ndarray | None):
    """Forward block elimination of ``A = Bc diag(weights) Bc^T``: the one loop of every head solve.

    One scatter over ``band`` fills the blocks of the matrix. With diagonal
    blocks ``D_k`` and blocks ``L_k`` below them, the Schur complements are
    ``S_0 = D_0`` and ``S_{k+1} = D_{k+1} - L_k S_k^-1 L_k^T``. ``L_k`` is
    nonzero only in its first ``m = band.n_coupled[k]`` rows, so step ``k``
    solves ``S_k`` against the ``m`` columns of ``L_k[:m]^T`` and updates
    only the leading ``m x m`` block of ``S_{k+1}``. The matrix is symmetric
    positive definite, so every ``S_k`` is too and pivoting inside each block
    suffices. Time is O(n_c * block**2) and memory O(n_c * block).

    Each solve carries the reduced right-hand side ``y_k`` as its first
    column. Returns the solution ``S_k^-1 [y_k | L_k[:m]^T]`` of every step
    but the last, the last Schur complement after its ``y`` column, and,
    without ``rhs`` (``y = 0``), the inverse of every Schur complement but
    the last, which solves the same matrix for later right-hand sides.
    """
    s, n = band.block, band.n_blocks
    values = weights[band.pipes]
    values[band.n_diagonal :] *= -1.0
    flat = np.bincount(band.cells, values, minlength=band.lower_starts[-1])
    diagonal = flat[: n * s * (s + 1)].reshape(n, s, s + 1)
    used = len(band.order) - (n - 1) * s  # the rows of the last block that hold consumers
    np.fill_diagonal(diagonal[-1, used:, 1 + used :], 1.0)
    inverses = [] if rhs is None else None
    if rhs is not None:
        diagonal[:, :, 0] = _blocked(band, rhs)

    schur, steps = diagonal[0], []
    for k, m in enumerate(band.n_coupled):
        lower = flat[band.lower_starts[k] : band.lower_starts[k + 1]].reshape(s, 1 + m)
        lower[:, 0] = schur[:, 0]
        if inverses is None:
            step = np.linalg.solve(schur[:, 1:], lower)
        else:
            inverses.append(np.linalg.inv(schur[:, 1:]))
            step = inverses[-1] @ lower
        steps.append(step)
        schur = diagonal[k + 1]
        schur[:m, : 1 + m] -= lower[:, 1:].T @ step
    return steps, schur, inverses


def _blocked(band: HeadBand, rhs: np.ndarray) -> np.ndarray:
    """``rhs`` in head-band order, zero-padded to ``n_blocks x block``."""
    y = np.zeros(band.n_blocks * band.block)
    y[: len(band.order)] = rhs[band.order]
    return y.reshape(band.n_blocks, band.block)


def _back_substitute(
    band: HeadBand, steps: Sequence[np.ndarray], z: list[np.ndarray]
) -> np.ndarray:
    """``x_k = z_k - S_k^-1 L_k[:m]^T x_{k+1}[:m]`` from the last block up, in consumer order."""
    x = np.empty((band.n_blocks, band.block))
    x[-1] = z[-1]
    for k in range(band.n_blocks - 2, -1, -1):
        x[k] = z[k] - steps[k][:, 1:] @ x[k + 1, : band.n_coupled[k]]
    out = np.empty(len(band.order))
    out[band.order] = x.reshape(-1)[: len(band.order)]
    return out


def solve_heads(band: HeadBand, weights: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``Bc diag(weights) Bc^T x = rhs`` for positive pipe weights, in one pass.

    The elimination (:func:`_eliminate`) carries ``rhs`` along, so nothing
    outlives the call: each Newton step has new weights.
    """
    steps, last, _ = _eliminate(band, weights, rhs)
    z = [step[:, 0] for step in steps]
    z.append(np.linalg.solve(last[:, 1:], last[:, 0]))
    return _back_substitute(band, steps, z)


@dataclass(frozen=True, eq=False)
class HeadFactor:
    """Block factors of ``Bc diag(weights) Bc^T``, reusable for any right-hand side.

    ``steps[k]`` is ``S_k^-1 [0 | L_k[:m]^T]`` from :func:`_eliminate` and
    ``inverses[k]`` is ``S_k^-1``. Together they hold at most
    ``2 * n_c * block`` floats; on looped grids 0.19 MB at 500 consumers
    (block 32), 1.4 MB at 2000 (block 57) and 15 MB at 10**4 (block 124).
    """

    band: HeadBand
    steps: tuple[np.ndarray, ...]
    inverses: tuple[np.ndarray, ...]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """One forward and one back substitution, O(n_c * block) per call."""
        y = _blocked(self.band, rhs)
        z = []
        for k, m in enumerate(self.band.n_coupled):
            z.append(self.inverses[k] @ y[k])
            # L_k[:m] S_k^-1 y_k, with S_k^-1 L_k[:m]^T behind the zero column of the step.
            y[k + 1, :m] -= self.steps[k][:, 1:].T @ y[k]
        z.append(self.inverses[-1] @ y[-1])
        return _back_substitute(self.band, self.steps, z)


def factor_heads(band: HeadBand, weights: np.ndarray) -> HeadFactor:
    """Factor ``Bc diag(weights) Bc^T`` by the elimination of :func:`solve_heads`."""
    steps, last, inverses = _eliminate(band, weights, None)
    inverses.append(np.linalg.inv(last[:, 1:]))
    for arr in (*steps, *inverses):
        arr.setflags(write=False)
    return HeadFactor(band, tuple(steps), tuple(inverses))
