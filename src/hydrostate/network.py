"""Graph model of a water distribution network.

A network is a finite connected graph of reservoir and consumer nodes joined
by pipes. It is stored as columns: node ids and roles, pipe ids, the tail and
head node index of every pipe, and its length, diameter and roughness. Every
physical pipe is stored once, with the orientation given at construction time
as its canonical orientation; flow signs downstream are interpreted relative
to that orientation. Networks are immutable after construction and safe to
share between threads. Derived structures, such as the grounded tree and the
head-matrix layout of :mod:`hydrostate.band`, are cached on first use.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from . import band
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
_PARAMETERS = ("length", "diameter", "roughness")


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
    """Hazen-Williams resistance coefficient of a pipe.

    Raises :class:`NonpositiveParameterError`, as the validator does, for a
    parameter that is not a finite positive number by :func:`json_number`.
    Otherwise positive; inf or NaN where a power overflows and 0.0 where it
    underflows, bit for bit as :attr:`Network.resistances` computes it.
    :func:`network_from_columns` rejects all three.
    """
    values = _parameters([getattr(params, name) for name in _PARAMETERS])
    return float(_resistances(*(np.array([v]) for v in values))[0])


def json_number(value) -> float:
    """``value`` as a float when it is a real number that fits one, else NaN.

    The one rule for what counts as a number; a float returns unchanged. NaN for
    booleans (also numpy's), strings, complex numbers, integers too large for a
    float and all else ``float`` refuses, so one finiteness test rejects them.
    """
    if type(value) is float:
        return value
    if isinstance(value, (bool, np.bool_, str, bytes, bytearray, complex, np.complexfloating)):
        return math.nan
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def finite_numbers(values: Mapping, keys: Collection, where: str, error: type) -> list[float]:
    """``[json_number(values[k]) for k in keys]``; raises ``error`` naming the first bad one, or
    ``where`` when ``values`` is not a mapping."""
    if not isinstance(values, Mapping):
        raise error(f"{where} must be a mapping")
    given = list(values.values()) if keys is values else [values[k] for k in keys]
    numbers = given if set(map(type, given)) == {float} else list(map(json_number, given))
    if not all(map(math.isfinite, numbers)):
        key = next(k for k, x in zip(keys, numbers) if not math.isfinite(x))
        raise error(f"non-finite or non-numeric value {values[key]!r} at {key!r} in {where}")
    return numbers


def _parameters(given: Sequence, prefix: str = "") -> list[float]:
    """:func:`json_number` of a length, diameter and roughness; each must be finite and > 0."""
    numbers = [json_number(v) for v in given]
    for name, value, number in zip(_PARAMETERS, given, numbers):
        if not 0 < number < math.inf:
            raise NonpositiveParameterError(f"{prefix}{name} must be finite and > 0, got {value!r}")
    return numbers


def _powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """``values ** exponent`` by the scalar ``pow``, evaluated once per distinct value.

    numpy's vectorised power may differ from the scalar one in the last bit;
    the scalar one keeps :attr:`Network.resistances` equal to
    :func:`resistance`, and pipes mostly share a few diameters and roughnesses.
    A power too large for a float is inf.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([_power(v, exponent) for v in distinct.tolist()])[inverse]


def _power(value: float, exponent: float) -> float:
    try:
        return value**exponent
    except OverflowError:
        return math.inf


def _resistances(lengths: np.ndarray, diameters: np.ndarray, roughnesses: np.ndarray) -> np.ndarray:
    """:func:`resistance` of every pipe; inf or NaN where it overflows, 0 where it underflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            RESISTANCE_COEFFICIENT
            * lengths
            * _powers(diameters, RESISTANCE_DIAMETER_EXPONENT)
            * _powers(roughnesses, -HAZEN_WILLIAMS_EXPONENT)
        )


@dataclass(frozen=True, eq=False)
class Network:
    """A validated water distribution network, stored as columns.

    Node ``i`` is ``node_ids[i]`` with ``roles[i]``. Pipe ``j`` is
    ``pipe_ids[j]``, oriented from node ``tail_indices[j]`` to node
    ``head_indices[j]`` (its canonical orientation), with ``lengths[j]``,
    ``diameters[j]`` and ``roughnesses[j]``, and resistance coefficient
    ``resistances[j]``, bit-identical to :func:`resistance` and finite and
    positive. Node and pipe order is the
    insertion order of the building spec; every vector and matrix in this
    package indexes nodes and pipes in that order. The arrays are read-only.
    Instances are created through :func:`network_from_columns`, which
    enforces the structural invariants (connectivity, role counts, positive
    parameters). Two networks are equal when their columns are; networks are
    not hashable.
    """

    node_ids: tuple[str, ...]
    roles: tuple[NodeRole, ...]
    pipe_ids: tuple[str, ...]
    tail_indices: np.ndarray
    head_indices: np.ndarray
    lengths: np.ndarray
    diameters: np.ndarray
    roughnesses: np.ndarray
    resistances: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.node_ids == other.node_ids
            and self.roles == other.roles
            and self.pipe_ids == other.pipe_ids
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("tail_indices", "head_indices", "lengths", "diameters", "roughnesses")
            )
        )

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_pipes(self) -> int:
        return len(self.pipe_ids)

    @property
    def n_reservoirs(self) -> int:
        return len(self.reservoir_ids)

    @property
    def n_consumers(self) -> int:
        return len(self.consumer_ids)

    @cached_property
    def reservoir_ids(self) -> tuple[str, ...]:
        return tuple(self.node_ids[i] for i in self.reservoir_indices.tolist())

    @cached_property
    def consumer_ids(self) -> tuple[str, ...]:
        return tuple(self.node_ids[i] for i in self.consumer_indices.tolist())

    @cached_property
    def node_index(self) -> dict[str, int]:
        return dict(zip(self.node_ids, range(self.n_nodes)))

    @cached_property
    def pipe_index(self) -> dict[str, int]:
        return dict(zip(self.pipe_ids, range(self.n_pipes)))

    @cached_property
    def consumer_indices(self) -> np.ndarray:
        """Node positions of the consumers, in ``consumer_ids`` order."""
        return _positions_of(self.roles, NodeRole.CONSUMER)

    @cached_property
    def reservoir_indices(self) -> np.ndarray:
        """Node positions of the reservoirs, in ``reservoir_ids`` order."""
        return _positions_of(self.roles, NodeRole.RESERVOIR)

    @cached_property
    def head_band(self) -> band.HeadBand:
        """Condensation and block layout of the consumer-head matrix ``Bc diag(w) Bc^T``."""
        return band.head_band(self)

    @cached_property
    def linear_head_factor(self) -> band.HeadFactor:
        """Block factors of the linear-law head matrix ``Bc diag(1/r) Bc^T``, built on first use.

        The Newton start solves with this matrix on every call; once
        factored, each solve is one forward and one back substitution.
        """
        return band.factor_heads(self.head_band, 1.0 / self.resistances)

    @cached_property
    def grounded_tree(self) -> "GroundedTree":
        """Canonical spanning forest with the reservoirs grounded, oriented from the ground."""
        return _grounded_tree(self)


def _positions_of(roles: tuple[NodeRole, ...], role: NodeRole) -> np.ndarray:
    idx = np.array([i for i, r in enumerate(roles) if r is role], dtype=np.intp)
    idx.setflags(write=False)
    return idx


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

#: Role spellings the column test resolves without :meth:`NodeRole.parse`.
_ROLES = {key: role for role in NodeRole for key in (role, role.value)}


def build_network(nodes: Iterable[NodeSpec], pipes: Iterable[PipeSpec]) -> Network:
    """Validate and build a network from node and pipe specs.

    ``nodes`` is an iterable of ``(id, role)`` pairs; ``pipes`` an iterable of
    ``(id, tail, head, PipeParams)`` tuples whose order fixes the canonical
    pipe orientation. Ids are converted with ``str``. The specs are unzipped
    into columns for :func:`network_from_columns`, which raises its errors.
    """
    nodes, pipes = list(nodes), list(pipes)
    node_ids, roles = zip(*nodes) if nodes else ((), ())
    pipe_ids, tails, heads, params = zip(*pipes) if pipes else ((), (), (), ())
    return network_from_columns(
        [str(nid) for nid in node_ids],
        roles,
        [str(pid) for pid in pipe_ids],
        [str(t) for t in tails],
        [str(h) for h in heads],
        *([getattr(p, name) for p in params] for name in _PARAMETERS),
    )


def network_from_columns(
    node_ids: Sequence[str],
    roles: Sequence["NodeRole | str"],
    pipe_ids: Sequence[str],
    tails: Sequence[str],
    heads: Sequence[str],
    lengths: Sequence[float],
    diameters: Sequence[float],
    roughnesses: Sequence[float],
) -> Network:
    """Validate node and pipe columns and build the network they describe.

    Pipe ``j`` is ``pipe_ids[j]`` from node id ``tails[j]`` to node id
    ``heads[j]``, with ``lengths[j]``, ``diameters[j]`` and ``roughnesses[j]``.
    Raises a distinct :class:`NetworkValidationError` subclass per defect:
    duplicate ids, unresolved endpoints, self-loops, pipe parameters that are
    not finite positive numbers (:func:`json_number`), missing reservoirs or
    consumers, disconnectedness, and a resistance coefficient that overflows or
    underflows (:class:`NonpositiveParameterError`, computed here once and kept
    as :attr:`Network.resistances`). Each check is one test over a whole column;
    only when one fails does a scalar pass look for the earliest defect in input
    order: nodes before pipes, and each pipe's checks in the order listed above.
    The resistance check names the first pipe.
    """
    node_ids, roles, pipe_ids = tuple(node_ids), tuple(roles), tuple(pipe_ids)
    fields = (lengths, diameters, roughnesses)
    if len(roles) != len(node_ids) or any(len(c) != len(pipe_ids) for c in (tails, heads, *fields)):
        raise ValueError("every column needs one entry per node or per pipe")
    index = dict(zip(node_ids, range(len(node_ids))))
    role_column = _lookup(_ROLES, roles)
    ends = _lookup(index, tails), _lookup(index, heads)
    # New float arrays, NaN where json_number rejects a value. Only a number
    # array or a list of floats is read whole: np.array reads True among floats as 1.0.
    params = [
        v.astype(float) if isinstance(v, np.ndarray) and v.dtype.kind in "fiu"
        else np.array(v, dtype=float) if set(map(type, v)) == {float}
        else np.array([json_number(x) for x in v], dtype=float)
        for v in fields
    ]
    if not (
        role_column is not None
        and len(index) == len(node_ids)
        and len(set(pipe_ids)) == len(pipe_ids)
        and None not in ends
        and not np.any(np.equal(*ends))
        and all(np.all(np.isfinite(p) & (p > 0)) for p in params)
    ):
        # No defect raised: only spellings the column test does not know were
        # left, such as the role "Reservoir".
        role_column = _raise_first_defect(node_ids, roles, pipe_ids, tails, heads, fields)
    if NodeRole.RESERVOIR not in role_column:
        raise NoReservoirError("a network needs at least one reservoir node")
    if NodeRole.CONSUMER not in role_column:
        raise NoConsumerError("a network needs at least one consumer node")
    _check_connected(len(node_ids), *ends)
    arrays = [np.array(e, dtype=np.intp) for e in ends]
    arrays += params
    r = _resistances(*arrays[2:])
    bad = np.flatnonzero(~(np.isfinite(r) & (r > 0)))
    if bad.size:
        j = bad[0]
        raise NonpositiveParameterError(
            f"pipe {pipe_ids[j]!r}: resistance must be finite and > 0, got {float(r[j])!r}"
            " from its length, diameter and roughness"
        )
    arrays.append(r)
    for arr in arrays:
        arr.setflags(write=False)
    return Network(node_ids, tuple(role_column), pipe_ids, *arrays)


def _lookup(table: Mapping, keys: Iterable) -> list | None:
    """``[table[k] for k in keys]``, or None when a key is missing or unhashable."""
    try:
        return list(map(table.__getitem__, keys))
    except (KeyError, TypeError):
        return None


def _raise_first_defect(
    node_ids: tuple, roles: tuple, pipe_ids: tuple, tails: Sequence, heads: Sequence, params: tuple
) -> list[NodeRole]:
    """Raise the error of the earliest defect in input order; else return the parsed roles."""
    nodes: set[str] = set()
    parsed = []
    for nid, role in zip(node_ids, roles):
        if nid in nodes:
            raise DuplicateIdError(f"duplicate node id: {nid!r}")
        nodes.add(nid)
        parsed.append(NodeRole.parse(role))
    pipes: set[str] = set()
    values = [v.tolist() if isinstance(v, np.ndarray) else v for v in params]
    for pid, tail, head, *fields in zip(pipe_ids, tails, heads, *values):
        if pid in pipes:
            raise DuplicateIdError(f"duplicate pipe id: {pid!r}")
        pipes.add(pid)
        for endpoint in (tail, head):
            if endpoint not in nodes:
                raise UnknownNodeError(f"pipe {pid!r} references unknown node {endpoint!r}")
        if tail == head:
            raise SelfLoopError(f"pipe {pid!r} is a self-loop at {tail!r}")
        _parameters(fields, f"pipe {pid!r}: ")
    return parsed


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


def _check_connected(n_nodes: int, tails: list[int], heads: list[int]) -> None:
    parent = list(range(n_nodes))
    joins = sum(join_sets(parent, t, h) for t, h in zip(tails, heads))
    if n_nodes - joins != 1:
        raise DisconnectedNetworkError(f"network is not connected ({n_nodes - joins} components)")


# --- JSON schema -----------------------------------------------------------
#
# {"nodes": [{"id": "R1", "role": "reservoir"}, ...],
#  "pipes": [{"id": "P1", "from": "R1", "to": "J1",
#             "length_m": 1000, "diameter_m": 0.3, "roughness": 130}, ...]}


def network_from_json_dict(doc: Mapping) -> Network:
    """Parse the network JSON schema and validate the result.

    ``nodes`` and ``pipes`` must be arrays, ids and endpoints JSON strings and
    the three parameters JSON numbers; anything else raises
    :class:`FormatError`. The entries go straight into columns for
    :func:`network_from_columns`.
    """
    if not isinstance(doc, Mapping):
        raise FormatError("network document must be a JSON object")
    try:
        raw_nodes = doc["nodes"]
        raw_pipes = doc["pipes"]
    except KeyError as exc:
        raise FormatError(f"network document missing key {exc.args[0]!r}") from None
    nodes = _node_columns(_json_array(raw_nodes, "nodes"))
    pipes = _pipe_columns(_json_array(raw_pipes, "pipes"))
    return network_from_columns(*nodes, *pipes)


#: Pipe entry keys, in the order `_pipe_columns` reads and checks them.
_PIPE_IDS = ("id", "from", "to")
_PIPE_NUMBERS = ("length_m", "diameter_m", "roughness")


def _json_array(raw, key: str) -> list | tuple:
    if not isinstance(raw, (list, tuple)):
        kind = type(raw).__name__
        raise FormatError(f"network document key {key!r} must be an array, got {kind}")
    return raw


def _node_columns(entries: Sequence) -> tuple[list, list]:
    ids, roles = [], []
    for entry in entries:
        try:
            nid, role = entry["id"], NodeRole.parse(entry["role"])
        except (KeyError, TypeError):
            raise FormatError(f"malformed node entry: {entry!r}") from None
        if not isinstance(nid, str):
            raise FormatError(f"malformed node entry: {entry!r} (id must be a string)")
        ids.append(nid)
        roles.append(role)
    return ids, roles


def _pipe_columns(entries: Sequence) -> list:
    """The pipe ids, tails and heads, then the parameters as float arrays the validator trusts."""
    strings: list[list] = [[] for _ in _PIPE_IDS]
    floats: list[list] = [[] for _ in _PIPE_NUMBERS]
    for entry in entries:
        try:
            values = entry["id"], entry["from"], entry["to"]
            numbers = entry["length_m"], entry["diameter_m"], entry["roughness"]
        except (KeyError, TypeError):
            raise FormatError(f"malformed pipe entry: {entry!r}") from None
        for column, key, value in zip(strings, _PIPE_IDS, values):
            if not isinstance(value, str):
                raise FormatError(f"malformed pipe entry: {entry!r} ({key} must be a string)")
            column.append(value)
        for column, key, value in zip(floats, _PIPE_NUMBERS, numbers):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise FormatError(f"malformed pipe entry: {entry!r} ({key} must be a number)")
            try:
                column.append(float(value))
            except OverflowError:
                message = f"malformed pipe entry: {entry!r} ({key} is out of range)"
                raise FormatError(message) from None
    return strings + [np.array(column, dtype=float) for column in floats]


def network_to_json_dict(net: Network) -> dict:
    ids = net.node_ids
    pipes = zip(
        net.pipe_ids,
        net.tail_indices.tolist(),
        net.head_indices.tolist(),
        net.lengths.tolist(),
        net.diameters.tolist(),
        net.roughnesses.tolist(),
    )
    return {
        "nodes": [{"id": nid, "role": role.value} for nid, role in zip(ids, net.roles)],
        "pipes": [
            {
                "id": pid,
                "from": ids[tail],
                "to": ids[head],
                "length_m": length,
                "diameter_m": diameter,
                "roughness": roughness,
            }
            for pid, tail, head, length, diameter, roughness in pipes
        ],
    }
