"""Tests for the network model, resistance formula and incidence matrix."""

import decimal
import gc
import math
import re
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrostate import (
    DisconnectedNetworkError,
    DuplicateIdError,
    FormatError,
    HydrostateError,
    NoConsumerError,
    NonpositiveParameterError,
    NoReservoirError,
    PipeParams,
    SelfLoopError,
    UnknownNodeError,
    build_network,
    incidence_matrix,
    network_from_columns,
    network_from_json_dict,
    network_to_json_dict,
    resistance,
)
from hydrostate.network import (
    HAZEN_WILLIAMS_EXPONENT,
    RESISTANCE_COEFFICIENT,
    RESISTANCE_DIAMETER_EXPONENT,
    NodeRole,
    _resistances,
)
from hydrostate.structure import join_sets
from hydrostate.exact import integer_rank

from conftest import make_random_networks

UNIT = PipeParams(length=1.0, diameter=1.0, roughness=1.0)


class TestBuildNetwork:
    def test_smallest_legal_network(self):
        net = build_network(
            [("R", "reservoir"), ("c1", "consumer")],
            [("p", "R", "c1", UNIT)],
        )
        assert net.n_reservoirs == 1
        assert net.n_consumers == 1
        assert net.n_pipes == 1
        assert net.node_ids == ("R", "c1")

    def test_disconnected(self):
        with pytest.raises(DisconnectedNetworkError):
            build_network([("R", "reservoir"), ("c1", "consumer")], [])

    def test_zero_diameter(self):
        bad = PipeParams(length=1.0, diameter=0.0, roughness=1.0)
        with pytest.raises(NonpositiveParameterError):
            build_network(
                [("R", "reservoir"), ("c1", "consumer")],
                [("p", "R", "c1", bad)],
            )

    @pytest.mark.parametrize("field", ["length", "diameter", "roughness"])
    def test_negative_parameter(self, field):
        bad = PipeParams(**{**UNIT.__dict__, field: -1.0})
        with pytest.raises(NonpositiveParameterError):
            build_network(
                [("R", "reservoir"), ("c1", "consumer")],
                [("p", "R", "c1", bad)],
            )

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("field", ["length", "diameter", "roughness"])
    def test_non_finite_parameter(self, field, value):
        bad = PipeParams(**{**UNIT.__dict__, field: value})
        with pytest.raises(NonpositiveParameterError, match="finite and > 0"):
            build_network(
                [("R", "reservoir"), ("c1", "consumer")],
                [("p", "R", "c1", bad)],
            )

    @pytest.mark.parametrize("diameter, shown", [(1e-70, "inf"), (1e70, "0.0")])
    def test_resistance_out_of_range_names_the_first_pipe(self, diameter, shown):
        bad = PipeParams(1.0, diameter, 100.0)
        with pytest.raises(NonpositiveParameterError, match=f"pipe 'q': resistance .* {shown} "):
            build_network(
                [("R", "reservoir"), ("c1", "consumer"), ("c2", "consumer")],
                [("p", "R", "c1", UNIT), ("q", "c1", "c2", bad), ("s", "R", "c2", bad)],
            )

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_network(
                [("R", "reservoir"), ("c1", "consumer")],
                [("p", "R", "c1", UNIT), ("loop", "c1", "c1", UNIT)],
            )

    def test_duplicate_node_id(self):
        with pytest.raises(DuplicateIdError):
            build_network(
                [("R", "reservoir"), ("R", "consumer")],
                [],
            )

    def test_duplicate_pipe_id(self):
        with pytest.raises(DuplicateIdError):
            build_network(
                [("R", "reservoir"), ("c1", "consumer")],
                [("p", "R", "c1", UNIT), ("p", "c1", "R", UNIT)],
            )

    def test_no_reservoir(self):
        with pytest.raises(NoReservoirError):
            build_network(
                [("a", "consumer"), ("b", "consumer")],
                [("p", "a", "b", UNIT)],
            )

    def test_no_consumer(self):
        with pytest.raises(NoConsumerError):
            build_network(
                [("a", "reservoir"), ("b", "reservoir")],
                [("p", "a", "b", UNIT)],
            )

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownNodeError):
            build_network(
                [("R", "reservoir"), ("c1", "consumer")],
                [("p", "R", "nope", UNIT)],
            )

    def test_parallel_pipes_allowed(self):
        net = build_network(
            [("R", "reservoir"), ("c1", "consumer")],
            [("p1", "R", "c1", UNIT), ("p2", "R", "c1", UNIT)],
        )
        assert net.n_pipes == 2


class TestResistance:
    def test_unit_parameters(self):
        assert resistance(UNIT) == pytest.approx(10.67, abs=0.0)

    def test_linear_in_length(self):
        assert resistance(PipeParams(2.0, 1.0, 1.0)) == pytest.approx(21.34, rel=1e-15)

    def test_frozen_reference(self):
        # 50-digit evaluation of 10.67 * 1000 * 0.5**-4.8704 * 100**-1.852
        reference = 61.70223710570267
        assert resistance(PipeParams(1000.0, 0.5, 100.0)) == pytest.approx(
            reference, rel=1e-12
        )

    def test_monotonicity_in_each_parameter(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            l, d, c = rng.uniform(0.1, 10.0, 3)
            bump = 1.0 + rng.uniform(0.01, 1.0)
            base = resistance(PipeParams(l, d, c))
            assert resistance(PipeParams(l * bump, d, c)) > base
            assert resistance(PipeParams(l, d * bump, c)) < base
            assert resistance(PipeParams(l, d, c * bump)) < base

    @pytest.mark.parametrize("diameter, expected", [(1e-70, math.inf), (1e70, 0.0)])
    def test_out_of_range_is_the_column_value(self, diameter, expected):
        # The scalar and the column computation agree bit for bit, and the validator
        # rejects what both give.
        params = PipeParams(1.0, diameter, 100.0)
        column = _resistances(np.array([1.0]), np.array([diameter]), np.array([100.0]))
        assert resistance(params) == column[0] == expected
        with pytest.raises(NonpositiveParameterError, match="resistance must be finite"):
            build_network([("R", "reservoir"), ("c1", "consumer")], [("p", "R", "c1", params)])

    @pytest.mark.parametrize(
        "params",
        [
            PipeParams(6.7e307, 0.3, 100.0),  # 10.67 * length overflows first
            PipeParams(5e-324, 2.6, 1e-100),  # 10.67 * length * diameter factor underflows first
            PipeParams(1e-300, 1e3, 1e-10),  # 10.67 * length * diameter factor is subnormal
        ],
        ids=["overflow_midway", "underflow_midway", "subnormal_midway"],
    )
    def test_a_product_out_of_range_midway_is_taken_again(self, params):
        net = build_network([("R", "reservoir"), ("J", "consumer")], [("P", "R", "J", params)])
        column = _resistances(*(np.array([v]) for v in (params.length, params.diameter,
                                                         params.roughness)))
        assert resistance(params) == net.resistances[0] == column[0]
        factors = (RESISTANCE_COEFFICIENT, params.length,
                   params.diameter**RESISTANCE_DIAMETER_EXPONENT,
                   params.roughness**-HAZEN_WILLIAMS_EXPONENT)
        exact = float(math.prod(map(Fraction, factors)))
        assert math.isfinite(exact) and exact > 0
        assert resistance(params) == pytest.approx(exact, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "params",
        [
            PipeParams(1.0, 1e-70, 1e200),  # the diameter power is inf, the roughness one 0.0
            PipeParams(1e300, 1e70, 1e-100),  # the diameter power is 0.0
            PipeParams(1e300, 6e65, 100.0),  # the diameter power is subnormal: 4.3e-321
            PipeParams(1e300, 5e65, 100.0),  # the diameter power is subnormal: 1.05e-320
        ],
        ids=["inf_times_zero", "zero_power", "subnormal_power", "subnormal_power_wider"],
    )
    def test_a_power_out_of_range_is_taken_from_its_parameter(self, params):
        net = build_network([("R", "reservoir"), ("J", "consumer")], [("P", "R", "J", params)])
        column = _resistances(*(np.array([v]) for v in (params.length, params.diameter,
                                                         params.roughness)))
        assert resistance(params) == net.resistances[0] == column[0]
        D = decimal.Decimal
        with decimal.localcontext() as context:
            context.prec = 40  # 40 digits of the float parameters and constants
            exact = (D(RESISTANCE_COEFFICIENT) * D(params.length)
                     * D(params.diameter) ** D(RESISTANCE_DIAMETER_EXPONENT)
                     * D(params.roughness) ** -D(HAZEN_WILLIAMS_EXPONENT))
        assert resistance(params) == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "params, shown",
        [(PipeParams(1.7e308, 0.01, 100.0), "inf"), (PipeParams(5e-324, 1e3, 1e3), "0.0")],
        ids=["overflow", "underflow"],
    )
    def test_a_resistance_out_of_range_is_still_rejected(self, params, shown):
        assert str(resistance(params)) == shown
        with pytest.raises(NonpositiveParameterError, match=f"resistance .* got {shown} "):
            build_network([("R", "reservoir"), ("J", "consumer")], [("P", "R", "J", params)])

    @pytest.mark.parametrize("value", [-1.0, -0.3, 0.0, float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["length", "diameter", "roughness"])
    def test_rejects_a_parameter_the_validator_rejects(self, field, value):
        # A negative float to a non-integer power is complex in Python, so an
        # unchecked diameter of -0.3 would give (-0.68-0.29j).
        bad = PipeParams(**{**UNIT.__dict__, field: value})
        with pytest.raises(NonpositiveParameterError, match=f"^{field} must be finite and > 0, got "):
            resistance(bad)
        with pytest.raises(NonpositiveParameterError, match=f"pipe 'p': {field} must be finite"):
            build_network([("R", "reservoir"), ("c1", "consumer")], [("p", "R", "c1", bad)])

    @pytest.mark.parametrize("diameter", [1e-60, 0.3, 1e60])
    def test_in_range_is_the_network_value(self, diameter):
        params = PipeParams(1.0, diameter, 100.0)
        net = build_network([("R", "reservoir"), ("c1", "consumer")], [("p", "R", "c1", params)])
        assert net.resistances.tobytes() == np.array([resistance(params)]).tobytes()


class TestIncidenceMatrix:
    def test_path_rows(self, path_net):
        B = incidence_matrix(path_net)
        assert B.entries.tolist() == [[1, 0], [-1, 1], [0, -1]]
        assert B.node_ids == ("R", "c1", "c2")
        assert B.pipe_ids == ("e1", "e2")

    def test_single_pipe_column(self, single_pipe_net):
        B = incidence_matrix(single_pipe_net)
        assert B.entries.tolist() == [[1], [-1]]

    def test_column_sums_zero_everywhere(self):
        for net in make_random_networks(20, seed0=3):
            B = incidence_matrix(net).entries
            assert B.dtype.kind == "i"
            assert np.all(B.sum(axis=0) == 0)
            # exactly one +1 and one -1 per column
            assert np.all((B == 1).sum(axis=0) == 1)
            assert np.all((B == -1).sum(axis=0) == 1)

    def test_full_matrix_rank_is_nodes_minus_one(self):
        for net in make_random_networks(200, seed0=4):
            B = incidence_matrix(net)
            assert integer_rank(B.entries) == net.n_nodes - 1

    def test_restrict(self, triangle_net):
        B = incidence_matrix(triangle_net)
        consumers = B.restrict(nodes=("c1", "c2"))
        assert consumers.entries.tolist() == [[-1, 0, 1], [0, -1, -1]]
        sub = consumers.restrict(pipes=("e1", "e3"))
        assert sub.entries.tolist() == [[-1, 1], [0, -1]]
        assert sub.pipe_ids == ("e1", "e3")

    def test_restrict_unknown_id(self, triangle_net):
        B = incidence_matrix(triangle_net)
        with pytest.raises(UnknownNodeError):
            B.restrict(nodes=("nope",))

    def test_restrict_unknown_pipe(self, triangle_net):
        B = incidence_matrix(triangle_net)
        with pytest.raises(UnknownNodeError, match="^unknown pipe id: 'nope'$"):
            B.restrict(nodes=("c1",), pipes=("e1", "nope"))

    def test_entries_read_only(self, triangle_net):
        B = incidence_matrix(triangle_net)
        with pytest.raises(ValueError):
            B.entries[0, 0] = 5


def test_network_json_round_trip(triangle_net):
    doc = network_to_json_dict(triangle_net)
    rebuilt = network_from_json_dict(doc)
    assert rebuilt == triangle_net
    assert network_to_json_dict(rebuilt) == doc


# --- the object-based build as oracle ------------------------------------------


@dataclass(frozen=True)
class Node:
    id: str
    role: NodeRole


@dataclass(frozen=True)
class Pipe:
    id: str
    tail: str
    head: str
    params: PipeParams


def oracle_build_network(nodes, pipes) -> tuple[tuple[Node, ...], tuple[Pipe, ...]]:
    """``build_network`` as it was with one frozen object per node and pipe, check by check."""
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
                raise UnknownNodeError(f"pipe {pid!r} references unknown node {endpoint!r}")
        if tail == head:
            raise SelfLoopError(f"pipe {pid!r} is a self-loop at {tail!r}")
        for field in ("length", "diameter", "roughness"):
            value = getattr(params, field)
            if not (math.isfinite(value) and value > 0):
                raise NonpositiveParameterError(
                    f"pipe {pid!r}: {field} must be finite and > 0, got {value!r}"
                )
        pipe_objs.append(Pipe(pid, tail, head, params))

    if not any(n.role is NodeRole.RESERVOIR for n in node_objs):
        raise NoReservoirError("a network needs at least one reservoir node")
    if not any(n.role is NodeRole.CONSUMER for n in node_objs):
        raise NoConsumerError("a network needs at least one consumer node")
    index = {n.id: i for i, n in enumerate(node_objs)}
    parent = list(range(len(node_objs)))
    joins = sum(join_sets(parent, index[p.tail], index[p.head]) for p in pipe_objs)
    if len(node_objs) - joins != 1:
        raise DisconnectedNetworkError(
            f"network is not connected ({len(node_objs) - joins} components)"
        )
    for p in pipe_objs:
        r = resistance(p.params)
        if not (math.isfinite(r) and r > 0):
            raise NonpositiveParameterError(
                f"pipe {p.id!r}: resistance must be finite and > 0, got {r!r}"
                " from its length, diameter and roughness"
            )
    return tuple(node_objs), tuple(pipe_objs)


def oracle_json(nodes: tuple[Node, ...], pipes: tuple[Pipe, ...]) -> dict:
    return {
        "nodes": [{"id": n.id, "role": n.role.value} for n in nodes],
        "pipes": [
            {
                "id": p.id,
                "from": p.tail,
                "to": p.head,
                "length_m": p.params.length,
                "diameter_m": p.params.diameter,
                "roughness": p.params.roughness,
            }
            for p in pipes
        ],
    }


DEFECTS = (
    "duplicate_node",
    "duplicate_pipe",
    "unknown_endpoint",
    "self_loop",
    "bad_parameter",
    "extreme_diameter",
    "no_reservoir",
    "no_consumer",
    "disconnected",
)
BAD_VALUES = (0.0, -1.0, math.inf, -math.inf, math.nan, 0, -2)
#: Finite positive diameters whose resistance overflows to inf or underflows to 0.
EXTREME_DIAMETERS = (1e-70, 1e70)
#: Shared diameters and roughnesses, as in real networks, and arbitrary ones.
PARAMETERS = st.one_of(
    st.sampled_from([0.3, 0.5, 100.0, 130.0, 1]),
    st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False),
)


@st.composite
def network_specs(draw):
    """Node and pipe specs of 1-3 reservoirs with parallel pipes, with 0 or more defects.

    A random tree over a shuffled node order keeps a defect-free draw
    connected; extra pipes may repeat any pair, either way round.
    """
    n_res, n_con = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    ids = [f"R{i}" for i in range(n_res)] + [f"J{i}" for i in range(n_con)]
    roles = ["reservoir"] * n_res + ["consumer"] * n_con
    roles = [draw(st.sampled_from([r, NodeRole(r)])) for r in roles]
    order = draw(st.permutations(range(len(ids))))
    nodes = [[ids[k], roles[k]] for k in order]
    n = len(nodes)
    pairs = [(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda ab: ab[0] != ab[1]), max_size=n))
    pairs = draw(st.permutations(pairs))
    pipes = [
        [f"P{k}", ids[a], ids[b], [draw(PARAMETERS) for _ in range(3)]]
        for k, (a, b) in enumerate(pairs)
    ]
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=3)):
        k = draw(st.integers(0, len(pipes) - 1))
        if defect == "duplicate_node":
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            nodes[j][0] = nodes[i][0]
        elif defect == "duplicate_pipe":
            pipes.insert(draw(st.integers(0, len(pipes))), [pipes[k][0], *pipes[k][1:3], [1.0] * 3])
        elif defect == "unknown_endpoint":
            pipes[k][draw(st.integers(1, 2))] = "nowhere"
        elif defect == "self_loop":
            pipes[k][2] = pipes[k][1]
        elif defect == "bad_parameter":
            pipes[k][3][draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_VALUES))
        elif defect == "extreme_diameter":
            pipes[k][3][1] = draw(st.sampled_from(EXTREME_DIAMETERS))
        elif defect == "no_reservoir":
            nodes = [[nid, "consumer"] for nid, _ in nodes]
        elif defect == "no_consumer":
            nodes = [[nid, "reservoir"] for nid, _ in nodes]
        else:
            nodes.insert(draw(st.integers(0, len(nodes))), ["island", "consumer"])
    return (
        [tuple(node) for node in nodes],
        [(pid, tail, head, PipeParams(*values)) for pid, tail, head, values in pipes],
    )


def outcome(build, *args):
    """The network, or the class and message of the error raised."""
    try:
        return build(*args)
    except HydrostateError as exc:
        return type(exc), str(exc)


def assert_matches_oracle(net, expected) -> None:
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert net == expected
        return
    assert not isinstance(net, tuple), net
    nodes, pipes = expected
    index = {n.id: i for i, n in enumerate(nodes)}
    assert net.node_ids == tuple(n.id for n in nodes)
    assert net.roles == tuple(n.role for n in nodes)
    assert net.pipe_ids == tuple(p.id for p in pipes)
    assert net.tail_indices.tolist() == [index[p.tail] for p in pipes]
    assert net.head_indices.tolist() == [index[p.head] for p in pipes]
    assert net.tail_indices.dtype == net.head_indices.dtype == np.intp
    oracle_r = np.array([resistance(p.params) for p in pipes], dtype=float)
    assert net.resistances.tobytes() == oracle_r.tobytes()
    assert network_to_json_dict(net) == oracle_json(nodes, pipes)


TWO_NODES = [("R", "reservoir"), ("J", "consumer")]
OK = PipeParams(1.0, 0.3, 100.0)


class TestColumnBuildMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(network_specs())
    @example(([("R", "reservoir"), ("J", "consumer")], [("p", "R", "J", PipeParams(0, 1.0, 1.0))]))
    @example(([("R", "Reservoir"), ("J", "CONSUMER")], [("p", "R", "J", PipeParams(1, 2, 3))]))
    @example(([("R", "reservoir"), ("R", "bogus")], []))
    @example(([("R", "bogus"), ("R", "consumer")], []))
    @example(([], []))
    # Two defects on one pipe: the earlier check of the pipe's checks wins.
    @example((TWO_NODES, [("p", "R", "J", OK), ("p", "R", "nowhere", OK)]))
    @example((TWO_NODES, [("p", "R", "J", OK), ("p", "J", "J", OK)]))
    @example((TWO_NODES, [("p", "R", "J", OK), ("q", "nowhere", "nowhere", OK)]))
    @example((TWO_NODES, [("p", "R", "J", OK), ("q", "J", "J", PipeParams(1.0, 0.0, -1.0))]))
    @example((TWO_NODES, [("p", "R", "J", OK), ("q", "J", "R", PipeParams(-1.0, 0.0, math.nan))]))
    @example((TWO_NODES, [("p", "R", "J", PipeParams(1.0, 1e70, 1.0)),
                          ("q", "J", "R", PipeParams(1.0, 1e-70, 1.0))]))
    @example((TWO_NODES, [("p", "R", "J", OK), ("q", "J", "R", PipeParams(1e300, 1e-60, 1e-3))]))
    def test_build_network(self, spec):
        nodes, pipes = spec
        expected = outcome(oracle_build_network, nodes, pipes)
        assert_matches_oracle(outcome(build_network, nodes, pipes), expected)

    @settings(max_examples=150, deadline=None)
    @given(network_specs())
    def test_network_from_json_dict(self, spec):
        nodes, pipes = spec
        # The JSON parser reads every parameter as a float, roles as strings.
        nodes = [(nid, NodeRole.parse(role).value) for nid, role in nodes]
        pipes = [(pid, t, h, PipeParams(*map(float, vars(p).values()))) for pid, t, h, p in pipes]
        doc = {
            "nodes": [{"id": nid, "role": role} for nid, role in nodes],
            "pipes": [
                {"id": pid, "from": t, "to": h, "length_m": p.length, "diameter_m": p.diameter,
                 "roughness": p.roughness}
                for pid, t, h, p in pipes
            ],
        }
        net = outcome(network_from_json_dict, doc)
        assert_matches_oracle(net, outcome(oracle_build_network, nodes, pipes))
        if not isinstance(net, tuple):
            assert network_from_json_dict(network_to_json_dict(net)) == net


class TestColumns:
    def test_columns_are_read_only(self, triangle_net):
        for name in ("tail_indices", "head_indices", "lengths", "diameters", "roughnesses",
                     "resistances"):
            column = getattr(triangle_net, name)
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_columns_are_copied_from_the_input(self):
        lengths = np.array([1.0, 2.0])
        net = network_from_columns(
            ["R", "J"], ["reservoir", "consumer"], ["a", "b"], ["R", "R"], ["J", "J"],
            lengths, [0.3, 0.3], [100.0, 100.0],
        )
        lengths[0] = 5.0
        assert net.lengths.tolist() == [1.0, 2.0]

    def test_column_lengths_must_agree(self):
        with pytest.raises(ValueError, match="one entry per"):
            network_from_columns(
                ["R", "J"], ["reservoir", "consumer"], ["a"], ["R"], ["J"], [1.0, 2.0], [1.0], [1.0]
            )

    @pytest.mark.parametrize(
        "node_ids, pipe_ids, message",
        [
            ([1, 2, 3], ["a", "b"], "node id must be a string, got 1"),
            (["1", 1, 2], ["a", "b"], "node id must be a string, got 1"),
            (["R", "J", "K"], ["a", None], "pipe id must be a string, got None"),
            (["R", "J", "K"], [["a"], "b"], "pipe id must be a string, got \\['a'\\]"),
        ],
    )
    def test_ids_must_be_strings(self, node_ids, pipe_ids, message):
        # As in the JSON reader: the ids 1 and "1" would share one key in every document.
        with pytest.raises(FormatError, match=message):
            network_from_columns(
                node_ids, ["reservoir", "consumer", "consumer"], pipe_ids, node_ids[:2],
                node_ids[1:], [1.0, 1.0], [0.3, 0.3], [100.0, 100.0],
            )

    def test_value_equality_and_no_hash(self, triangle_net):
        twin = network_from_json_dict(network_to_json_dict(triangle_net))
        assert twin == triangle_net and twin is not triangle_net
        doc = network_to_json_dict(triangle_net)
        doc["pipes"][0]["length_m"] *= 2
        assert network_from_json_dict(doc) != triangle_net
        assert triangle_net != "triangle"
        with pytest.raises(TypeError):
            hash(triangle_net)


class TestStrictJson:
    DOC = {
        "nodes": [{"id": "R", "role": "reservoir"}, {"id": "J", "role": "consumer"}],
        "pipes": [{"id": "P", "from": "R", "to": "J", "length_m": 10, "diameter_m": 0.3,
                   "roughness": 100}],
    }

    @pytest.mark.parametrize("doc", [[], [DOC], "nodes", None, 3])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(FormatError, match="^network document must be a JSON object$"):
            network_from_json_dict(doc)

    @pytest.mark.parametrize("key", ["nodes", "pipes"])
    def test_document_needs_both_sections(self, key):
        doc = {k: v for k, v in self.DOC.items() if k != key}
        with pytest.raises(FormatError, match=f"^network document missing key '{key}'$"):
            network_from_json_dict(doc)

    @pytest.mark.parametrize("entry", [["P", "R", "J", 10, 0.3, 100], "P", None, 7])
    def test_pipe_entry_must_be_an_object(self, entry):
        with pytest.raises(FormatError, match=f"^malformed pipe entry: {re.escape(repr(entry))}$"):
            network_from_json_dict({**self.DOC, "pipes": [self.DOC["pipes"][0], entry]})

    def test_integers_are_read_as_floats(self):
        net = network_from_json_dict(self.DOC)
        assert network_to_json_dict(net)["pipes"][0]["length_m"] == 10.0
        assert net.lengths.dtype == np.float64

    @pytest.mark.parametrize("key", ["nodes", "pipes"])
    @pytest.mark.parametrize("value", [5, "RJ", {"R": "reservoir"}, None])
    def test_sections_must_be_arrays(self, key, value):
        with pytest.raises(FormatError, match=f"network document key '{key}' must be an array"):
            network_from_json_dict({**self.DOC, key: value})

    @pytest.mark.parametrize("key", ["length_m", "diameter_m", "roughness"])
    @pytest.mark.parametrize("value", [True, False, "100", None, [1.0]])
    def test_parameters_must_be_numbers(self, key, value):
        doc = {**self.DOC, "pipes": [{**self.DOC["pipes"][0], key: value}]}
        message = f"malformed pipe entry: .* \\({key} must be a number\\)"
        with pytest.raises(FormatError, match=message):
            network_from_json_dict(doc)

    @pytest.mark.parametrize("key", ["id", "from", "to"])
    @pytest.mark.parametrize("value", [None, 1, True, ["R"]])
    def test_pipe_ids_must_be_strings(self, key, value):
        doc = {**self.DOC, "pipes": [{**self.DOC["pipes"][0], key: value}]}
        with pytest.raises(FormatError, match=f"\\({key} must be a string\\)"):
            network_from_json_dict(doc)

    @pytest.mark.parametrize("value", [None, 1, 2.5, False])
    def test_node_ids_must_be_strings(self, value):
        doc = {**self.DOC, "nodes": [self.DOC["nodes"][0], {"id": value, "role": "consumer"}]}
        with pytest.raises(FormatError, match="id must be a string"):
            network_from_json_dict(doc)

    def test_first_malformed_entry_is_reported(self):
        pipes = [{**self.DOC["pipes"][0], "id": f"P{k}"} for k in range(4)]
        pipes[3] = {"id": "P3"}
        pipes[1] = {**pipes[1], "to": 9}
        with pytest.raises(FormatError, match="'P1'.*\\(to must be a string\\)"):
            network_from_json_dict({**self.DOC, "pipes": pipes})

    @pytest.mark.parametrize(
        "where, key, message",
        [
            ("document", "pumps", "unknown network document key 'pumps'"),
            ("node", "elevation", "malformed node entry: .* \\(unknown key 'elevation'\\)"),
            ("pipe", "status", "malformed pipe entry: .* \\(unknown key 'status'\\)"),
        ],
    )
    def test_unknown_keys_are_rejected(self, where, key, message):
        # A pump or a closed pipe would otherwise be dropped without a word.
        doc = {"nodes": [dict(n) for n in self.DOC["nodes"]], "pipes": [dict(self.DOC["pipes"][0])]}
        entry = {"document": doc, "node": doc["nodes"][1], "pipe": doc["pipes"][0]}[where]
        entry[key] = "closed"
        with pytest.raises(FormatError, match=message):
            network_from_json_dict(doc)

    def test_role_spelling_and_unknown_role(self):
        nodes = [{"id": "R", "role": "Reservoir"}, {"id": "J", "role": "CONSUMER"}]
        doc = {**self.DOC, "nodes": nodes}
        assert network_from_json_dict(doc).roles == (NodeRole.RESERVOIR, NodeRole.CONSUMER)
        doc["nodes"][1]["role"] = ["consumer"]
        with pytest.raises(FormatError, match="unknown node role"):
            network_from_json_dict(doc)


def test_parse_retains_under_170_bytes_per_pipe(monkeypatch):
    """A parsed network keeps its columns, not one object per node and pipe."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import looped_grid

    doc = network_to_json_dict(looped_grid(3, 10**4))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net = network_from_json_dict(doc)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert net.n_pipes == 15000
    assert retained / net.n_pipes < 170, f"{retained / net.n_pipes:.0f} bytes per pipe"
