"""Graph model of a water distribution network.

A network is a finite connected graph of reservoir and consumer nodes joined
by pipes. Every physical pipe is stored once, with the orientation given at
construction time as its canonical orientation; flow signs downstream are
interpreted relative to that orientation. Networks and incidence matrices are
immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DecompositionMismatchError,
    DisconnectedNetworkError,
    DuplicateIdError,
    FormatError,
    NoConsumerError,
    NonpositiveParameterError,
    NoReservoirError,
    SelfLoopError,
    UnknownNodeError,
)

#: Exponent of the Hazen-Williams head-loss law.
HAZEN_WILLIAMS_EXPONENT = 1.852

#: Coefficient and diameter exponent of the SI resistance formula
#: r = 10.67 * length * diameter**-4.8704 * roughness**-1.852.
RESISTANCE_COEFFICIENT = 10.67
RESISTANCE_DIAMETER_EXPONENT = -4.8704


class NodeRole(enum.Enum):
    RESERVOIR = "reservoir"
    CONSUMER = "consumer"

    @classmethod
    def parse(cls, value: "NodeRole | str") -> "NodeRole":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise FormatError(f"unknown node role: {value!r}") from None


@dataclass(frozen=True)
class PipeParams:
    """Physical pipe parameters in SI units.

    length in meters, diameter in meters, roughness the dimensionless
    Hazen-Williams coefficient. All three must be finite and strictly positive.
    """

    length: float
    diameter: float
    roughness: float


def resistance(params: PipeParams) -> float:
    """Hazen-Williams resistance coefficient of a pipe (strictly positive)."""
    return (
        RESISTANCE_COEFFICIENT
        * params.length
        * params.diameter**RESISTANCE_DIAMETER_EXPONENT
        * params.roughness**-HAZEN_WILLIAMS_EXPONENT
    )


@dataclass(frozen=True)
class Node:
    id: str
    role: NodeRole


@dataclass(frozen=True)
class Pipe:
    """A pipe in canonical orientation ``tail -> head``."""

    id: str
    tail: str
    head: str
    params: PipeParams


@dataclass(frozen=True)
class Network:
    """A validated water distribution network.

    Node and pipe order is the insertion order of the building spec; every
    vector and matrix in this package indexes nodes and pipes in that order.
    Instances are created through :func:`build_network`, which enforces the
    structural invariants (connectivity, role counts, positive parameters).
    """

    nodes: tuple[Node, ...]
    pipes: tuple[Pipe, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_pipes(self) -> int:
        return len(self.pipes)

    @property
    def n_reservoirs(self) -> int:
        return len(self.reservoir_ids)

    @property
    def n_consumers(self) -> int:
        return len(self.consumer_ids)

    @cached_property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    @cached_property
    def pipe_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.pipes)

    @cached_property
    def reservoir_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.role is NodeRole.RESERVOIR)

    @cached_property
    def consumer_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.role is NodeRole.CONSUMER)

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {n.id: i for i, n in enumerate(self.nodes)}

    @cached_property
    def pipe_index(self) -> dict[str, int]:
        return {p.id: i for i, p in enumerate(self.pipes)}

    @cached_property
    def tail_indices(self) -> np.ndarray:
        idx = np.array([self.node_index[p.tail] for p in self.pipes], dtype=np.intp)
        idx.setflags(write=False)
        return idx

    @cached_property
    def head_indices(self) -> np.ndarray:
        idx = np.array([self.node_index[p.head] for p in self.pipes], dtype=np.intp)
        idx.setflags(write=False)
        return idx

    @cached_property
    def consumer_indices(self) -> np.ndarray:
        """Node positions of the consumers, in ``consumer_ids`` order."""
        idx = np.array([self.node_index[nid] for nid in self.consumer_ids], dtype=np.intp)
        idx.setflags(write=False)
        return idx

    @cached_property
    def reservoir_indices(self) -> np.ndarray:
        """Node positions of the reservoirs, in ``reservoir_ids`` order."""
        idx = np.array([self.node_index[nid] for nid in self.reservoir_ids], dtype=np.intp)
        idx.setflags(write=False)
        return idx

    @cached_property
    def resistances(self) -> np.ndarray:
        """Resistance coefficient per pipe, canonical order."""
        r = np.array([resistance(p.params) for p in self.pipes], dtype=float)
        r.setflags(write=False)
        return r

    @cached_property
    def head_band(self) -> "HeadBand":
        """Block-tridiagonal layout of the consumer-head matrix ``Bc diag(w) Bc^T``."""
        return _head_band(self)

    @cached_property
    def grounded_tree(self) -> "GroundedTree":
        """Canonical spanning forest with the reservoirs grounded, oriented from the ground."""
        return _grounded_tree(self)

    def role_of(self, node_id: str) -> NodeRole:
        return self.nodes[self.node_index[node_id]].role


#: Smallest block of :class:`HeadBand`. Each block costs one Python-level
#: elimination step, so a path-like network (bandwidth 1) still takes blocks
#: large enough that the per-step overhead stays below the arithmetic.
_MIN_HEAD_BLOCK = 32


@dataclass(frozen=True, eq=False)
class HeadBand:
    """Where each pipe's weight lands in the blocks of the consumer-head matrix.

    Consumers are renumbered by ``order`` (reverse Cuthill-McKee over the
    consumer-consumer pipes), which keeps every such pipe within
    ``bandwidth`` ranks of the diagonal. With ``block >= bandwidth`` the
    matrix, padded with an identity to ``n_blocks * block`` rows, is
    block-tridiagonal in ``block x block`` blocks. They are stored flat:
    ``n_blocks`` diagonal blocks, then the ``n_blocks - 1`` blocks below the
    diagonal (block row ``k + 1``, block column ``k``). Entry ``e`` adds
    ``weight[pipes[e]]`` to cell ``cells[e]``, negated from ``n_diagonal``
    on; ``padding`` lists the diagonal cells of the identity padding.
    """

    order: np.ndarray
    bandwidth: int
    block: int
    n_blocks: int
    pipes: np.ndarray
    cells: np.ndarray
    n_diagonal: int
    padding: np.ndarray


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


def _head_band(net: Network) -> HeadBand:
    n_c = net.n_consumers
    position = np.full(net.n_nodes, -1)
    position[net.consumer_indices] = np.arange(n_c)
    tails, heads = position[net.tail_indices], position[net.head_indices]
    inner = np.flatnonzero((tails >= 0) & (heads >= 0))

    neighbours: list[set[int]] = [set() for _ in range(n_c)]
    for a, b in zip(tails[inner].tolist(), heads[inner].tolist()):
        neighbours[a].add(b)
        neighbours[b].add(a)
    order = np.array(_reverse_cuthill_mckee([list(nb) for nb in neighbours]), dtype=np.intp)
    rank = np.empty(n_c, dtype=np.intp)
    rank[order] = np.arange(n_c)

    inner_ranks = rank[tails[inner]], rank[heads[inner]]
    lo, hi = np.minimum(*inner_ranks), np.maximum(*inner_ranks)
    bandwidth = int(np.max(hi - lo, initial=0))
    s = max(bandwidth, _MIN_HEAD_BLOCK)
    n_blocks = -(-n_c // s)

    def diagonal_cell(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return (i // s) * s * s + (i % s) * s + j % s

    end_pipes = np.concatenate([np.flatnonzero(tails >= 0), np.flatnonzero(heads >= 0)])
    end_ranks = rank[np.concatenate([tails[tails >= 0], heads[heads >= 0]])]
    same = lo // s == hi // s
    below = n_blocks * s * s + (lo[~same] // s) * s * s + (hi[~same] % s) * s + lo[~same] % s
    pipes = np.concatenate([end_pipes, inner[same], inner[same], inner[~same]])
    cells = np.concatenate(
        [
            diagonal_cell(end_ranks, end_ranks),
            diagonal_cell(lo[same], hi[same]),
            diagonal_cell(hi[same], lo[same]),
            below,
        ]
    )
    pad = np.arange(n_c, n_blocks * s)
    padding = diagonal_cell(pad, pad)
    for arr in (order, pipes, cells, padding):
        arr.setflags(write=False)
    return HeadBand(order, bandwidth, s, n_blocks, pipes, cells, len(end_pipes), padding)


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """Signed node-by-pipe incidence matrix with entries in {-1, 0, +1}.

    Each column carries +1 at the pipe's tail and -1 at its head. Row and
    column order follow the id tuples; :meth:`restrict` produces the
    submatrix for any node and/or pipe subset.
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
        self,
        nodes: Sequence[str] | None = None,
        pipes: Sequence[str] | None = None,
    ) -> "IncidenceMatrix":
        """Submatrix for the given node rows and/or pipe columns."""
        mat = self.entries
        row_ids = self.node_ids
        col_ids = self.pipe_ids
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


def consumer_outflow(net: Network, pipe_values: np.ndarray) -> np.ndarray:
    """``Bc @ pipe_values`` for the consumer-row incidence ``Bc``, without building it.

    With flows as ``pipe_values`` this is the net outflow at each consumer: the
    flow leaving through pipes it tails minus the flow arriving through pipes
    it heads, summed by one scatter per pipe end.
    """
    out = np.bincount(net.tail_indices, pipe_values, minlength=net.n_nodes)
    out -= np.bincount(net.head_indices, pipe_values, minlength=net.n_nodes)
    return out[net.consumer_indices]


NodeSpec = tuple[str, "NodeRole | str"]
PipeSpec = tuple[str, str, str, PipeParams]


def build_network(nodes: Iterable[NodeSpec], pipes: Iterable[PipeSpec]) -> Network:
    """Validate and build a network from node and pipe specs.

    ``nodes`` is an iterable of ``(id, role)`` pairs; ``pipes`` an iterable of
    ``(id, tail, head, PipeParams)`` tuples whose order fixes the canonical
    pipe orientation. Raises a distinct :class:`NetworkValidationError`
    subclass per defect: duplicate ids, unresolved endpoints, self-loops,
    nonpositive or non-finite pipe parameters, missing reservoirs or
    consumers, and disconnectedness.
    """
    node_objs: list[Node] = []
    seen_nodes: set[str] = set()
    for nid, role in nodes:
        nid = str(nid)
        if nid in seen_nodes:
            raise DuplicateIdError(f"duplicate node id: {nid!r}")
        seen_nodes.add(nid)
        node_objs.append(Node(nid, NodeRole.parse(role)))

    pipe_objs: list[Pipe] = []
    seen_pipes: set[str] = set()
    for pid, tail, head, params in pipes:
        pid, tail, head = str(pid), str(tail), str(head)
        if pid in seen_pipes:
            raise DuplicateIdError(f"duplicate pipe id: {pid!r}")
        seen_pipes.add(pid)
        for endpoint in (tail, head):
            if endpoint not in seen_nodes:
                raise UnknownNodeError(
                    f"pipe {pid!r} references unknown node {endpoint!r}"
                )
        if tail == head:
            raise SelfLoopError(f"pipe {pid!r} is a self-loop at {tail!r}")
        for field in ("length", "diameter", "roughness"):
            value = getattr(params, field)
            if not (math.isfinite(value) and value > 0):
                raise NonpositiveParameterError(
                    f"pipe {pid!r}: {field} must be finite and > 0, got {value!r}"
                )
        pipe_objs.append(Pipe(pid, tail, head, params))

    net = Network(tuple(node_objs), tuple(pipe_objs))
    if net.n_reservoirs == 0:
        raise NoReservoirError("a network needs at least one reservoir node")
    if net.n_consumers == 0:
        raise NoConsumerError("a network needs at least one consumer node")
    _check_connected(net)
    return net


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


def grounded_forest(net: Network, positions: Iterable[int]) -> list[int]:
    """The pipe positions of ``positions`` that join two components, in the order given.

    One union-find pass over the graph with every reservoir grounded into one
    node. A pipe's consumer-row column is independent of the columns kept
    before it exactly when the pipe joins two components, so this is the
    greedy rank scan without elimination.
    """
    tails, heads = net.tail_indices.tolist(), net.head_indices.tolist()
    parent = list(range(net.n_nodes))
    reservoirs = net.reservoir_indices.tolist()
    for r in reservoirs:
        parent[r] = reservoirs[0]
    return [j for j in positions if join_sets(parent, tails[j], heads[j])]


def orient_forest(
    net: Network, positions: Sequence[int], grounded: Sequence[int]
) -> tuple[tuple[int, int, int, int], ...]:
    """Orient the forest pipes at ``positions`` breadth-first from the ``grounded`` node indices.

    Step ``(child, parent, pipe, sign)`` has ``sign`` +1 when ``pipe`` points to ``child``. Raises
    :class:`DecompositionMismatchError` unless the forest spans the graph with ``grounded`` merged.
    """
    if not positions and len(grounded) == net.n_nodes:
        return ()
    queue = np.asarray(grounded).tolist()
    tails, ends = net.tail_indices.tolist(), net.head_indices.tolist()
    incident: list[list[int]] = [[] for _ in range(net.n_nodes)]
    for j in positions:
        incident[tails[j]].append(j)
        incident[ends[j]].append(j)
    reached, steps = set(queue), []
    for parent in queue:
        for j in incident[parent]:
            child, sign = (ends[j], 1) if tails[j] == parent else (tails[j], -1)
            if child not in reached:
                reached.add(child)
                queue.append(child)
                steps.append((child, parent, j, sign))
    # Each reached node takes one forest pipe: any pipe left over closes a cycle.
    if len(steps) != len(positions) or len(queue) != net.n_nodes:
        raise DecompositionMismatchError("the forest must reach every ungrounded node exactly once")
    return tuple(steps)


@dataclass(frozen=True, eq=False)
class GroundedTree:
    """The canonical forest/chord split of the pipes and the forest's orientation.

    ``forest`` holds the pipes that :func:`grounded_forest` keeps scanning all
    pipes in canonical order, ``chords`` the others in canonical order, and
    ``steps`` is :func:`orient_forest` of the forest from the reservoirs.
    """

    forest: tuple[str, ...]
    chords: tuple[str, ...]
    steps: tuple[tuple[int, int, int, int], ...]


def _grounded_tree(net: Network) -> GroundedTree:
    kept = grounded_forest(net, range(net.n_pipes))
    assert len(kept) == net.n_consumers, "a connected network has a spanning forest"
    chosen = set(kept)
    ids = net.pipe_ids
    return GroundedTree(
        tuple(ids[j] for j in kept),
        tuple(pid for j, pid in enumerate(ids) if j not in chosen),
        orient_forest(net, kept, net.reservoir_indices),
    )


def _check_connected(net: Network) -> None:
    parent = list(range(net.n_nodes))
    joins = sum(
        join_sets(parent, t, h)
        for t, h in zip(net.tail_indices.tolist(), net.head_indices.tolist())
    )
    if net.n_nodes - joins != 1:
        raise DisconnectedNetworkError(
            f"network is not connected ({net.n_nodes - joins} components)"
        )


# --- JSON schema -----------------------------------------------------------
#
# {"nodes": [{"id": "R1", "role": "reservoir"}, ...],
#  "pipes": [{"id": "P1", "from": "R1", "to": "J1",
#             "length_m": 1000, "diameter_m": 0.3, "roughness": 130}, ...]}


def network_from_json_dict(doc: Mapping) -> Network:
    """Parse the network JSON schema and validate the result."""
    if not isinstance(doc, Mapping):
        raise FormatError("network document must be a JSON object")
    try:
        raw_nodes = doc["nodes"]
        raw_pipes = doc["pipes"]
    except KeyError as exc:
        raise FormatError(f"network document missing key {exc.args[0]!r}") from None

    nodes: list[NodeSpec] = []
    for entry in raw_nodes:
        try:
            nodes.append((entry["id"], NodeRole.parse(entry["role"])))
        except (KeyError, TypeError):
            raise FormatError(f"malformed node entry: {entry!r}") from None

    pipes: list[PipeSpec] = []
    for entry in raw_pipes:
        try:
            params = PipeParams(
                length=float(entry["length_m"]),
                diameter=float(entry["diameter_m"]),
                roughness=float(entry["roughness"]),
            )
            pipes.append((entry["id"], entry["from"], entry["to"], params))
        except (KeyError, TypeError, ValueError):
            raise FormatError(f"malformed pipe entry: {entry!r}") from None

    return build_network(nodes, pipes)


def network_to_json_dict(net: Network) -> dict:
    return {
        "nodes": [{"id": n.id, "role": n.role.value} for n in net.nodes],
        "pipes": [
            {
                "id": p.id,
                "from": p.tail,
                "to": p.head,
                "length_m": p.params.length,
                "diameter_m": p.params.diameter,
                "roughness": p.params.roughness,
            }
            for p in net.pipes
        ],
    }
