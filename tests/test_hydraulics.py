"""Tests for head loss, mass balance, residuals and the monotone-operator gap."""

import numpy as np
import pytest
from scipy.integrate import quad

from hydrostate import (
    HAZEN_WILLIAMS_EXPONENT,
    FormatError,
    HydraulicState,
    demands_from_flows,
    head_loss,
    invert_head_loss,
    monotonicity_gap,
    residuals,
    symmetric_expansion,
)
from hydrostate.hydraulics import state_from_json_dict, state_to_json_dict
from hydrostate.testkit import random_ground_truth_state

from conftest import make_random_networks

# 50-digit evaluation of 2**1.852
TWO_POW_X = 3.61000290984972


class TestHeadLoss:
    def test_unit_flow(self):
        assert head_loss(1.0, 3.0) == pytest.approx(3.0, abs=0.0)

    def test_odd_in_flow(self):
        assert head_loss(-1.0, 3.0) == pytest.approx(-3.0, abs=0.0)

    def test_frozen_reference(self):
        assert head_loss(2.0, 1.0) == pytest.approx(TWO_POW_X, rel=1e-15)

    def test_sign_matches_flow(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(-1e3, 1e3, 500)
        r = 10.0 ** rng.uniform(-3, 3, 500)
        assert np.all(np.sign(head_loss(q, r)) == np.sign(q))

    def test_vectorized(self):
        out = head_loss(np.array([1.0, -1.0, 0.0]), np.array([3.0, 3.0, 5.0]))
        assert out.tolist() == [3.0, -3.0, 0.0]


class TestInvertHeadLoss:
    def test_zero_drop(self):
        assert invert_head_loss(0.0, 5.0) == 0.0

    def test_unit_case(self):
        assert invert_head_loss(2.0, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_frozen_inverse(self):
        assert invert_head_loss(-TWO_POW_X, 1.0) == pytest.approx(-2.0, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(-1e3, 1e3, 2000)
        r = 10.0 ** rng.uniform(-3, 3, 2000)
        back = invert_head_loss(head_loss(q, r), r)
        assert np.all(np.abs(back - q) <= 1e-9 * np.maximum(1.0, np.abs(q)))

    def test_exact_round_trip_the_other_way(self):
        rng = np.random.default_rng(4)
        dh = rng.uniform(-100, 100, 500)
        r = 10.0 ** rng.uniform(-2, 2, 500)
        forward = head_loss(invert_head_loss(dh, r), r)
        assert np.all(np.abs(forward - dh) <= 1e-10 * np.maximum(1.0, np.abs(dh)))


class TestDemandsFromFlows:
    def test_triangle_example(self, triangle_net):
        d = demands_from_flows(triangle_net, np.array([1.0, 0.0, 1.0]))
        assert d == pytest.approx([0.0, 1.0], abs=0.0)

    def test_zero_flows(self, triangle_net):
        assert demands_from_flows(triangle_net, np.zeros(3)) == pytest.approx([0.0, 0.0])

    def test_series_line(self, path_net):
        d = demands_from_flows(path_net, np.array([1.0, 0.5]))
        assert d == pytest.approx([0.5, 0.5], abs=0.0)

    def test_wrong_length(self, path_net):
        with pytest.raises(ValueError):
            demands_from_flows(path_net, np.zeros(3))


class TestResiduals:
    def test_ground_truth_is_physically_correct(self):
        for net in make_random_networks(10, seed0=61):
            state = random_ground_truth_state(net, seed=123)
            report = residuals(net, state)
            assert report.physically_correct(1e-12)

    def test_single_flow_perturbation(self, path_net):
        # force |q| near 1 on pipe e1 by constructing heads directly
        heads = np.array([100.0, 99.0, 98.9])
        from hydrostate import complete_from_heads

        truth = complete_from_heads(path_net, heads).state
        assert abs(truth.flows[0]) == pytest.approx(1.0, rel=1e-12)

        q = truth.flows.copy()
        q[0] += 1e-3
        bumped = HydraulicState(truth.heads, q, truth.demands)
        report = residuals(path_net, bumped)
        # first-order: d(head_loss)/dq = x * r * |q|**(x-1) = x at q=1, r=1
        assert report.energy_inf_norm == pytest.approx(
            HAZEN_WILLIAMS_EXPONENT * 1e-3, rel=1e-3
        )
        assert report.mass_inf_norm == pytest.approx(1e-3, rel=1e-12)
        assert report.max_energy_pipe == "e1"

    def test_zero_state_with_demand(self, single_pipe_net):
        state = HydraulicState(np.zeros(2), np.zeros(1), np.array([1.0]))
        report = residuals(single_pipe_net, state)
        assert report.mass_inf_norm == 1.0
        assert report.energy_inf_norm == 0.0
        assert report.max_mass_node == "J1"

    def test_dimension_mismatch(self, single_pipe_net):
        with pytest.raises(ValueError):
            residuals(single_pipe_net, HydraulicState(np.zeros(3), np.zeros(1), np.zeros(1)))


class TestMonotonicityGap:
    def test_identical_arguments(self, single_pipe_net):
        q = np.array([1.234])
        assert monotonicity_gap(single_pipe_net, q, q) == 0.0

    @pytest.mark.parametrize("shape", [(0,), (2,), (1, 1)])
    def test_shape_mismatch(self, single_pipe_net, shape):
        message = r"^flow vectors must have one entry per pipe \(1\)$"
        for args in ((np.ones(shape), np.ones(1)), (np.ones(1), np.ones(shape))):
            with pytest.raises(ValueError, match=message):
                monotonicity_gap(single_pipe_net, *args)

    def test_scalar_references(self):
        from hydrostate import build_network, params_for_resistance

        net = build_network(
            [("R", "reservoir"), ("c", "consumer")],
            [("p", "R", "c", params_for_resistance(1.0))],
        )
        assert monotonicity_gap(net, np.array([1.0]), np.array([0.0])) == pytest.approx(
            1.0, rel=1e-12
        )
        assert monotonicity_gap(net, np.array([1.0]), np.array([-1.0])) == pytest.approx(
            4.0, rel=1e-12
        )

    def test_strictly_positive_on_random_pairs(self):
        rng = np.random.default_rng(9)
        nets = make_random_networks(10, seed0=71)
        for _ in range(200):
            net = nets[int(rng.integers(0, len(nets)))]
            q1 = rng.uniform(-10, 10, net.n_pipes)
            q2 = rng.uniform(-10, 10, net.n_pipes)
            if np.array_equal(q1, q2):
                continue
            assert monotonicity_gap(net, q1, q2) > 0.0

    def test_positive_near_equal_arguments(self):
        nets = make_random_networks(3, seed0=72)
        rng = np.random.default_rng(10)
        for net in nets:
            q = rng.uniform(-5, 5, net.n_pipes)
            q2 = q.copy()
            q2[0] += 1e-9
            assert monotonicity_gap(net, q, q2) > 0.0

    def test_integral_identity(self):
        # gap == sum_e x * r_e * (q1e - q2e)^2 * int_0^1 |q2e + t (q1e - q2e)|^(x-1) dt
        x = HAZEN_WILLIAMS_EXPONENT
        rng = np.random.default_rng(12)
        nets = make_random_networks(5, seed0=73, max_nodes=8)
        for net in nets:
            q1 = rng.uniform(-5, 5, net.n_pipes)
            q2 = rng.uniform(-5, 5, net.n_pipes)
            expected = 0.0
            for r_e, a, b in zip(net.resistances, q2, q1 - q2):
                if b == 0.0:
                    continue
                kink = -a / b
                points = [kink] if 0.0 < kink < 1.0 else None
                integral, _ = quad(
                    lambda t: abs(a + t * b) ** (x - 1.0), 0.0, 1.0, points=points
                )
                expected += x * r_e * b * b * integral
            gap = monotonicity_gap(net, q1, q2)
            assert gap == pytest.approx(expected, rel=1e-6)


class TestSymmetricExpansion:
    def test_antisymmetric_and_doubled_mass_form(self):
        for net in make_random_networks(10, seed0=81):
            state = random_ground_truth_state(net, seed=9)
            B_sym, q_sym = symmetric_expansion(net, state.flows)
            n_p = net.n_pipes
            # reversed edge carries exactly the negated flow
            assert np.array_equal(q_sym[n_p:], -q_sym[:n_p])
            consumer_rows = [net.node_index[c] for c in net.consumer_ids]
            doubled = B_sym[consumer_rows] @ q_sym
            assert np.max(np.abs(doubled - (-2.0 * state.demands))) <= 1e-12

    @pytest.mark.parametrize("flows", [np.ones(2), np.ones(4), np.ones((3, 1)), 1.0])
    def test_shape_mismatch(self, triangle_net, flows):
        with pytest.raises(ValueError, match=r"^flow vector must have one entry per pipe \(3\)$"):
            symmetric_expansion(triangle_net, flows)


def test_state_json_round_trip(triangle_net):
    state = random_ground_truth_state(triangle_net, seed=2)
    doc = state_to_json_dict(triangle_net, state)
    back = state_from_json_dict(triangle_net, doc)
    assert np.array_equal(back.heads, state.heads)
    assert np.array_equal(back.flows, state.flows)
    assert np.array_equal(back.demands, state.demands)


@pytest.mark.parametrize(
    "section, value",
    [("heads", True), ("heads", "0.5"), ("flows", False), ("demands", 10**400), ("demands", None)],
    ids=["bool", "numeric_string", "false", "huge_int", "null"],
)
def test_state_json_rejects_non_numbers(triangle_net, section, value):
    doc = state_to_json_dict(triangle_net, random_ground_truth_state(triangle_net, seed=2))
    key = next(iter(doc[section]))
    doc[section][key] = value
    with pytest.raises(FormatError, match=f"non-numeric value .* at {key!r} in state section"):
        state_from_json_dict(triangle_net, doc)


@pytest.mark.parametrize("doc", [[], [{"heads": {}}], "heads", None])
def test_state_json_must_be_an_object(triangle_net, doc):
    with pytest.raises(FormatError, match="^state document must be a JSON object$"):
        state_from_json_dict(triangle_net, doc)


@pytest.mark.parametrize("key", ["pressures", "state"])
def test_state_json_rejects_unknown_sections(triangle_net, key):
    doc = state_to_json_dict(triangle_net, random_ground_truth_state(triangle_net, seed=2))
    with pytest.raises(FormatError, match=f"unknown state section {key!r}"):
        state_from_json_dict(triangle_net, {**doc, key: {}})
