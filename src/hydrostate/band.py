"""The consumer-head matrix ``Bc diag(w) Bc^T`` of the Global Gradient Algorithm: layout and solves.

Each Newton step of the demand-driven route solves this symmetric positive
definite matrix over the consumer heads (Todini & Pilati). Two stages share
the work, and :class:`HeadBand` holds the layout of both:

* **Condensation.** A maximal independent set of consumers with at most
  :data:`MAX_ELIMINATED_PIPES` pipes each has a diagonal block, so it is
  eliminated in closed form: the series and star-mesh reduction of the
  network (node elimination as in Ulanicki, Zehnpfund & Martinez). Its Schur
  complement is again a grounded weighted Laplacian, over the kept consumers,
  with one fill link per pair of pipes of an eliminated consumer. On looped
  grids of 500 consumers this removes 195 rows, and no nonzeros are added.
* **Band.** The kept consumers are numbered in reverse Cuthill-McKee order
  (George & Liu), and a block elimination solves the condensed matrix in
  O(n_kept * block) memory with numpy alone, as ``import
  scipy.sparse.linalg`` costs about 0.45 s and 32 MB by itself.
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

#: Most pipes an eliminated consumer may have. Eliminating a consumer with
#: ``d`` pipes removes those ``d`` pipes and adds at most ``d * (d - 1) / 2``
#: fill links, which is no more than ``d`` for ``d <= 3``: the condensed
#: matrix never has more nonzeros than the full one.
MAX_ELIMINATED_PIPES = 3

#: The pairs ``(i, j)`` of the pipes of an eliminated consumer, in its
#: canonical pipe order; a consumer with more than ``j`` pipes has the pair.
_PIPE_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True, eq=False)
class HeadBand:
    """How the consumer-head matrix is condensed, and where each weight lands in its blocks.

    Consumer positions index ``net.consumer_indices``; position ``n_consumers``
    stands for the ground, every reservoir merged into one node.

    The consumers at ``eliminated`` are condensed out. Star entry ``e`` is
    pipe ``star_pipes[e]`` from eliminated consumer ``eliminated[star_rows[e]]``
    to the consumer at ``star_far[e]`` (a kept one, or the ground), sorted
    by row and then by pipe. Fill link ``k`` joins the far ends of the star
    entries ``fill_ends[:, k]`` with weight ``w_i * w_j / G_v``, where
    ``G_v`` is the total weight at their eliminated consumer; pairs with one
    far end (parallel pipes, or both grounded) add nothing and are left out.

    The kept consumers are numbered by ``order`` (consumer positions).
    Reverse Cuthill-McKee over the kept pipes and fill links between kept
    consumers keeps every one within ``bandwidth`` ranks of the diagonal;
    blocks of ``block >= bandwidth`` consecutive ranks then make the
    condensed matrix, padded with an identity to ``n_blocks * block`` rows,
    block-tridiagonal. ``order`` is that numbering with each block
    partitioned stably: first the consumers joined to the block before, then
    the others. So block row ``k + 1`` meets block column ``k`` only in its
    first ``n_coupled[k]`` rows (about half of a block on mesh-like networks).

    The blocks are stored flat. First come the ``n_blocks`` diagonal blocks,
    each after a right-hand side column (``block x (1 + block)``). From
    ``lower_starts[k]`` to ``lower_starts[k + 1]`` follows the transpose of
    the block below diagonal block ``k``, kept to its coupled columns and
    again after a right-hand side column (``block x (1 + n_coupled[k])``).
    Entry ``e`` adds link weight ``pipes[e]`` to cell ``cells[e]``, negated
    from ``n_diagonal`` on; link weights are the pipe weights followed by the
    fill-link weights.
    """

    n_consumers: int
    eliminated: np.ndarray
    star_rows: np.ndarray
    star_pipes: np.ndarray
    star_far: np.ndarray
    fill_ends: np.ndarray
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


def _neighbours(n: int, tails: np.ndarray, heads: np.ndarray) -> list[set[int]]:
    """Adjacency sets of nodes ``0..n-1`` under links ``tails -> heads``; ``n`` is the ground."""
    inner = (tails < n) & (heads < n)
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for a, b in zip(tails[inner].tolist(), heads[inner].tolist()):
        neighbours[a].add(b)
        neighbours[b].add(a)
    return neighbours


def _consumer_ends(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Consumer positions of the two ends of every pipe, ``n_consumers`` for a reservoir."""
    position = np.full(net.n_nodes, net.n_consumers)
    position[net.consumer_indices] = np.arange(net.n_consumers)
    return position[net.tail_indices], position[net.head_indices]


def _independent_set(n_c: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """The consumer positions that :func:`head_band` eliminates, ascending.

    Consumers are scanned by (pipe count, position). Each one with at most
    :data:`MAX_ELIMINATED_PIPES` pipes, reservoir and parallel pipes
    included, is taken unless a pipe joins it to one taken before. The set is
    independent, maximal among such consumers, and a function of the network.
    """
    pipe_count = np.bincount(np.concatenate([tails, heads]), minlength=n_c + 1)[:n_c]
    scan = np.flatnonzero(pipe_count <= MAX_ELIMINATED_PIPES)
    scan = scan[np.argsort(pipe_count[scan], kind="stable")]
    neighbours = _neighbours(n_c, tails, heads)
    blocked = [False] * n_c
    taken = []
    for v in scan.tolist():
        if not blocked[v]:
            taken.append(v)
            for w in neighbours[v]:
                blocked[w] = True
    return np.sort(np.array(taken, dtype=np.intp))


def head_band(net: Network) -> HeadBand:
    """The condensation and block layout of ``Bc diag(w) Bc^T`` for the pipes of ``net``."""
    n_c = net.n_consumers
    tails, heads = _consumer_ends(net)
    eliminated = _independent_set(n_c, tails, heads)
    row = np.full(n_c + 1, -1)
    row[eliminated] = np.arange(len(eliminated))
    at_tail, at_head = row[tails] >= 0, row[heads] >= 0
    star_rows = row[np.concatenate([tails[at_tail], heads[at_head]])]
    star_pipes = np.concatenate([np.flatnonzero(at_tail), np.flatnonzero(at_head)])
    star_far = np.concatenate([heads[at_tail], tails[at_head]])
    by_row = np.lexsort((star_pipes, star_rows))
    star_rows, star_pipes, star_far = star_rows[by_row], star_pipes[by_row], star_far[by_row]
    counts = np.bincount(star_rows, minlength=len(eliminated))
    firsts = np.cumsum(counts) - counts
    fill_ends = np.stack([
        np.concatenate([firsts[counts > j] + i for i, j in _PIPE_PAIRS]),
        np.concatenate([firsts[counts > j] + j for _, j in _PIPE_PAIRS]),
    ])
    fill_ends = fill_ends[:, star_far[fill_ends[0]] != star_far[fill_ends[1]]]

    # The condensed graph: the pipes that touch no eliminated consumer, then the fill links.
    kept = np.ones(n_c + 1, dtype=bool)
    kept[eliminated] = False
    kept_pipes = np.flatnonzero(kept[tails] & kept[heads] & ((tails < n_c) | (heads < n_c)))
    kept_consumers = np.flatnonzero(kept[:n_c])
    position = np.full(n_c + 1, len(kept_consumers))
    position[kept_consumers] = np.arange(len(kept_consumers))
    link_tails = position[np.concatenate([tails[kept_pipes], star_far[fill_ends[0]]])]
    link_heads = position[np.concatenate([heads[kept_pipes], star_far[fill_ends[1]]])]
    links = np.concatenate([kept_pipes, net.n_pipes + np.arange(fill_ends.shape[1])])
    order, *layout = _layout(len(kept_consumers), link_tails, link_heads, links)
    for arr in (eliminated, star_rows, star_pipes, star_far, fill_ends):
        arr.setflags(write=False)
    return HeadBand(n_c, eliminated, star_rows, star_pipes, star_far, fill_ends,
                    kept_consumers[order], *layout)


def _layout(n: int, tails: np.ndarray, heads: np.ndarray, links: np.ndarray) -> tuple:
    """The band fields of :class:`HeadBand` for the grounded graph of links ``tails -> heads``.

    Nodes are ``0..n-1`` and ``n`` is the ground; link ``e`` carries weight
    ``links[e]``. Returns ``order`` (in node numbers) and the fields after it.
    """
    inner = (tails < n) & (heads < n)
    ends = np.stack([tails[inner], heads[inner]])
    order = np.array(
        _reverse_cuthill_mckee([list(nb) for nb in _neighbours(n, tails, heads)]), dtype=np.intp
    )
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    lo, hi = np.sort(rank[ends], axis=0)
    bandwidth = int(np.max(hi - lo, initial=0))
    s = max(bandwidth, _MIN_HEAD_BLOCK)
    # One block at least: with every consumer condensed out, the band is
    # one identity block and solves nothing.
    n_blocks = max(1, -(-n // s))
    # Coupled rows first within each block; the stable sort keeps the
    # Cuthill-McKee order inside both parts and every node in its block.
    joined = np.zeros(n, dtype=bool)
    joined[hi[lo // s < hi // s]] = True
    order = order[np.lexsort((~joined, np.arange(n) // s))]
    n_coupled = np.bincount(np.flatnonzero(joined) // s, minlength=n_blocks)[1:]
    rank[order] = np.arange(n)
    lo, hi = np.sort(rank[ends], axis=0)

    width = 1 + s  # a right-hand side column and a diagonal block

    def diagonal_cell(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return (i // s) * s * width + (i % s) * width + 1 + j % s

    end_links = np.concatenate([links[tails < n], links[heads < n]])
    end_ranks = rank[np.concatenate([tails[tails < n], heads[heads < n]])]
    same = lo // s == hi // s
    lower_starts = n_blocks * s * width + s * np.concatenate([[0], np.cumsum(n_coupled + 1)])
    # A link between blocks k and k + 1 joins row lo % s of the stored
    # transpose to coupled column hi % s, which the partition put first.
    k = lo[~same] // s
    below = lower_starts[k] + (lo[~same] % s) * (n_coupled[k] + 1) + 1 + hi[~same] % s
    pipes = np.concatenate([end_links, links[inner][same], links[inner][same], links[inner][~same]])
    cells = np.concatenate([
        diagonal_cell(end_ranks, end_ranks), diagonal_cell(lo[same], hi[same]),
        diagonal_cell(hi[same], lo[same]), below,
    ])
    for arr in (order, pipes, cells):
        arr.setflags(write=False)
    return (
        order, bandwidth, s, n_blocks, pipes, cells, len(end_links),
        tuple(n_coupled.tolist()), tuple(lower_starts.tolist()),
    )


def _condense(band: HeadBand, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eliminate ``band.eliminated`` from ``Bc diag(weights) Bc^T`` in closed form.

    Returns the link weights of the condensed matrix (``weights``, then the
    fill links'), the total weight ``G_v`` at each eliminated consumer and
    ``w / G_v`` for each star entry. A zero ``G_v`` (conductances that
    underflowed) makes the matrix singular, as a singular block would.
    """
    star = weights[band.star_pipes]
    total = np.bincount(band.star_rows, star, minlength=len(band.eliminated))
    if not total.all():
        raise np.linalg.LinAlgError("an eliminated consumer has no conductance")
    share = star / total[band.star_rows]
    first, second = band.fill_ends
    return np.concatenate([weights, star[first] * share[second]]), total, share


def _condensed_rhs(band: HeadBand, share: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``rhs`` with ``(w_av / G_v) * rhs_v`` added at the kept far end ``a`` of each star entry."""
    spread = np.bincount(
        band.star_far, share * rhs[band.eliminated[band.star_rows]], minlength=band.n_consumers + 1
    )
    return rhs + spread[:-1]


def _eliminate(band: HeadBand, weights: np.ndarray, rhs: np.ndarray | None):
    """Forward block elimination of the condensed matrix with link ``weights``: the one loop of
    every head solve.

    One scatter over ``band`` fills the blocks of the matrix. With diagonal
    blocks ``D_k`` and blocks ``L_k`` below them, the Schur complements are
    ``S_0 = D_0`` and ``S_{k+1} = D_{k+1} - L_k S_k^-1 L_k^T``. ``L_k`` is
    nonzero only in its first ``m = band.n_coupled[k]`` rows, so step ``k``
    solves ``S_k`` against the ``m`` columns of ``L_k[:m]^T`` and updates
    only the leading ``m x m`` block of ``S_{k+1}``. The matrix is symmetric
    positive definite, so every ``S_k`` is too and pivoting inside each block
    suffices. Time is O(n_kept * block**2) and memory O(n_kept * block).

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
    """The kept entries of ``rhs`` in head-band order, zero-padded to ``n_blocks x block``."""
    y = np.zeros(band.n_blocks * band.block)
    y[: len(band.order)] = rhs[band.order]
    return y.reshape(band.n_blocks, band.block)


def _back_substitute(
    band: HeadBand,
    steps: Sequence[np.ndarray],
    z: list[np.ndarray],
    total: np.ndarray,
    share: np.ndarray,
    rhs: np.ndarray,
) -> np.ndarray:
    """``x_k = z_k - S_k^-1 L_k[:m]^T x_{k+1}[:m]`` from the last block up, then the eliminated
    heads ``x_v = (rhs_v + sum w_av x_a) / G_v``; in consumer order."""
    x = np.empty((band.n_blocks, band.block))
    x[-1] = z[-1]
    for k in range(band.n_blocks - 2, -1, -1):
        x[k] = z[k] - steps[k][:, 1:] @ x[k + 1, : band.n_coupled[k]]
    out = np.zeros(band.n_consumers + 1)  # the ground, last, stays at 0
    out[band.order] = x.reshape(-1)[: len(band.order)]
    gathered = np.bincount(band.star_rows, share * out[band.star_far], minlength=len(total))
    out[band.eliminated] = rhs[band.eliminated] / total + gathered
    return out[:-1]


def solve_heads(band: HeadBand, weights: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``Bc diag(weights) Bc^T x = rhs`` for positive pipe weights, in one pass.

    The condensation and the elimination (:func:`_eliminate`) carry ``rhs``
    along, so nothing outlives the call: each Newton step has new weights.
    """
    links, total, share = _condense(band, weights)
    steps, last, _ = _eliminate(band, links, _condensed_rhs(band, share, rhs))
    z = [step[:, 0] for step in steps]
    z.append(np.linalg.solve(last[:, 1:], last[:, 0]))
    return _back_substitute(band, steps, z, total, share, rhs)


@dataclass(frozen=True, eq=False)
class HeadFactor:
    """Condensation and block factors of ``Bc diag(weights) Bc^T``, reusable for any rhs.

    ``total`` and ``share`` are the ``G_v`` and ``w / G_v`` of
    :func:`_condense`. ``steps[k]`` is ``S_k^-1 [0 | L_k[:m]^T]`` from
    :func:`_eliminate` and ``inverses[k]`` is ``S_k^-1``. Together they hold
    at most ``2 * n_kept * block`` floats, plus about four per eliminated
    consumer. On looped grids (``bench/workloads.looped_grid``) that is
    0.12 MB at 500 consumers (193 eliminated, block 32), 0.84 MB at 2000
    (791 eliminated, block 56) and 8.9 MB at 10**4 (3979 eliminated, block
    119), against 0.19, 1.4 and 15 MB for the band of every consumer.
    """

    band: HeadBand
    total: np.ndarray
    share: np.ndarray
    steps: tuple[np.ndarray, ...]
    inverses: tuple[np.ndarray, ...]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """One forward and one back substitution, O(n_kept * block) per call."""
        y = _blocked(self.band, _condensed_rhs(self.band, self.share, rhs))
        z = []
        for k, m in enumerate(self.band.n_coupled):
            z.append(self.inverses[k] @ y[k])
            # L_k[:m] S_k^-1 y_k, with S_k^-1 L_k[:m]^T behind the zero column of the step.
            y[k + 1, :m] -= self.steps[k][:, 1:].T @ y[k]
        z.append(self.inverses[-1] @ y[-1])
        return _back_substitute(self.band, self.steps, z, self.total, self.share, rhs)


def factor_heads(band: HeadBand, weights: np.ndarray) -> HeadFactor:
    """Factor ``Bc diag(weights) Bc^T`` by the condensation and elimination of ``solve_heads``."""
    links, total, share = _condense(band, weights)
    steps, last, inverses = _eliminate(band, links, None)
    inverses.append(np.linalg.inv(last[:, 1:]))
    for arr in (total, share, *steps, *inverses):
        arr.setflags(write=False)
    return HeadFactor(band, total, share, tuple(steps), tuple(inverses))
