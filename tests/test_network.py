"""Tests for the network model, resistance formula and incidence matrix."""

import numpy as np
import pytest

from hydrostate import (
    DisconnectedNetworkError,
    DuplicateIdError,
    NoConsumerError,
    NonpositiveParameterError,
    NoReservoirError,
    PipeParams,
    SelfLoopError,
    UnknownNodeError,
    build_network,
    incidence_matrix,
    network_from_json_dict,
    network_to_json_dict,
    resistance,
)
from hydrostate.structure import integer_rank

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

    def test_entries_read_only(self, triangle_net):
        B = incidence_matrix(triangle_net)
        with pytest.raises(ValueError):
            B.entries[0, 0] = 5


def test_network_json_round_trip(triangle_net):
    doc = network_to_json_dict(triangle_net)
    rebuilt = network_from_json_dict(doc)
    assert rebuilt == triangle_net
    assert network_to_json_dict(rebuilt) == doc
