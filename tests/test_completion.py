"""Tests for the four state-completion solvers and their round-trip closure."""

import inspect
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrostate import (
    HAZEN_WILLIAMS_EXPONENT,
    CompletionMethod,
    DecompositionMismatchError,
    EdgeDecomposition,
    FormatError,
    GeneratorConfig,
    InconsistentObservationsError,
    InvalidObservationError,
    NonConvergenceError,
    ObservationOverflowError,
    ObservationSet,
    UnknownNodeError,
    build_network,
    classify_observation_pattern,
    complete,
    complete_from_forest_flows,
    complete_from_heads,
    complete_from_reservoir_heads_and_flows,
    demands_from_flows,
    head_loss,
    incidence_matrix,
    invert_head_loss,
    params_for_resistance,
    random_connected_wds,
    residuals,
    select_independent_edges,
    solve_reservoir_heads_demands,
)
from hydrostate import band, completion
from hydrostate.testkit import MAX_PARALLEL_PIPES, random_ground_truth_state

from conftest import flat_start, forest_start, looped_grid, make_random_networks, random_start

# 50-digit evaluations of the Hazen-Williams references used below:
#   0.5**1.852            = 0.27700808696623150
#   99 - 0.5**1.852       = 98.72299191303377
#   100 - 2 * 0.5**1.852  = 99.44598382606754
HALF_POW_X = 0.2770080869662315
SERIES_TAIL_HEAD = 98.72299191303377
SINGLE_PIPE_HEAD = 99.44598382606754


class TestCompleteFromHeads:
    def test_series_line(self, path_net):
        h = np.array([100.0, 99.0, 99.0 - HALF_POW_X])
        report = complete_from_heads(path_net, h)
        assert report.theorem is CompletionMethod.ALL_HEADS
        assert report.iterations == 0
        assert report.state.flows == pytest.approx([1.0, 0.5], rel=1e-12)
        assert report.state.demands == pytest.approx([0.5, 0.5], rel=1e-12)
        assert report.final_residual.physically_correct(1e-12)

    def test_constant_heads(self, triangle_net):
        report = complete_from_heads(triangle_net, np.full(3, 42.0))
        assert np.all(report.state.flows == 0.0)
        assert np.all(report.state.demands == 0.0)

    def test_single_pipe(self, single_pipe_net):
        report = complete_from_heads(single_pipe_net, np.array([100.0, 98.0]))
        assert report.state.flows == pytest.approx([1.0], rel=1e-12)
        assert report.state.demands == pytest.approx([1.0], rel=1e-12)

    def test_wrong_length(self, single_pipe_net):
        with pytest.raises(ValueError):
            complete_from_heads(single_pipe_net, np.zeros(3))

    def test_closed_form_to_the_bit(self):
        net = looped_grid(10, 12, seed=4)
        h = np.random.default_rng(2).uniform(-20.0, 150.0, net.n_nodes)
        state = complete_from_heads(net, h).state
        q = invert_head_loss(h[net.tail_indices] - h[net.head_indices], net.resistances)
        assert state.heads.tobytes() == h.tobytes()
        assert state.flows.tobytes() == q.tobytes()
        assert state.demands.tobytes() == demands_from_flows(net, q).tobytes()

    def test_observed_negative_heads_raise_no_warning(self, path_net):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            complete_from_heads(path_net, np.array([100.0, -1.0, -2.0]))


class TestCompleteFromReservoirHeadsAndFlows:
    def test_round_trip_from_ground_truth(self):
        for net in make_random_networks(15, seed0=91):
            truth = random_ground_truth_state(net, seed=1)
            report = complete_from_reservoir_heads_and_flows(
                net, truth.reservoir_heads(net), truth.flows
            )
            assert report.theorem is CompletionMethod.HEADS_AND_FLOWS
            assert np.max(np.abs(report.state.heads - truth.heads)) <= 1e-9
            assert np.max(np.abs(report.state.demands - truth.demands)) <= 1e-10

    def test_tree_network_always_consistent(self, path_net):
        rng = np.random.default_rng(6)
        for _ in range(10):
            q = rng.uniform(-2, 2, path_net.n_pipes)
            report = complete_from_reservoir_heads_and_flows(
                path_net, np.array([100.0]), q
            )
            assert report.final_residual.physically_correct(1e-9)

    def test_perturbed_chord_flow_detected(self, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=3)
        q = truth.flows.copy()
        q[triangle_net.pipe_index["e3"]] += 0.1
        with pytest.raises(InconsistentObservationsError) as exc_info:
            complete_from_reservoir_heads_and_flows(
                triangle_net, truth.reservoir_heads(triangle_net), q
            )
        assert exc_info.value.residual > 1e-3


    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, triangle_net, tol):
        truth = random_ground_truth_state(triangle_net, seed=3)
        h_r = truth.reservoir_heads(triangle_net)
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            complete_from_reservoir_heads_and_flows(triangle_net, h_r, truth.flows, tol)
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            solve_reservoir_heads_demands(triangle_net, h_r, truth.demands, tol)
        with pytest.raises(NonConvergenceError):  # 0.0 is accepted; a budget of 0 takes no step
            solve_reservoir_heads_demands(triangle_net, h_r, truth.demands, 0.0, 0)
        complete_from_reservoir_heads_and_flows(triangle_net, h_r, truth.flows, 1e-6)


def test_demand_driven_solve_rejects_negative_iterations(triangle_net):
    args = (triangle_net, [100.0], [0.1, 0.2])
    with pytest.raises(ValueError, match="max_iterations must be an integer >= 0, got -1"):
        solve_reservoir_heads_demands(*args, max_iterations=-1)
    with pytest.raises(NonConvergenceError) as exc_info:
        solve_reservoir_heads_demands(*args, max_iterations=0)
    assert exc_info.value.iterations == 0


def test_complete_rejects_negative_max_iterations(triangle_net):
    truth = random_ground_truth_state(triangle_net, seed=3)
    obs = ObservationSet(heads={"R": float(truth.heads[0])}, demands={"c1": 0.1, "c2": 0.2})
    # Every route, the linear ones included, rejects it before solving.
    for theorem in (None, CompletionMethod.DEMAND_DRIVEN, CompletionMethod.ALL_HEADS):
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 0, got -1"):
            complete(triangle_net, obs, theorem, max_iterations=-1)
    assert complete(triangle_net, obs, max_iterations=50).theorem is CompletionMethod.DEMAND_DRIVEN


#: Values given as a tolerance or an iteration count; of them only 1.5 is a tolerance.
NOT_COUNTS = {"True": True, "str": "1", "None": None, "nan": float("nan"), "1.5": 1.5, "-1": -1}


@pytest.mark.parametrize("value", NOT_COUNTS.values(), ids=NOT_COUNTS.keys())
def test_tolerance_and_iteration_count_follow_the_number_rule(value):
    net = random_connected_wds(GeneratorConfig(seed=3, n_consumers=4, extra_edges=2))
    truth = random_ground_truth_state(net, seed=1)
    obs = ObservationSet(heads=dict(zip(net.node_ids, truth.heads.tolist())))
    iterations = re.escape(f"max_iterations must be an integer >= 0, got {value!r}")
    h_r = truth.reservoir_heads(net)
    with pytest.raises(ValueError, match=iterations):
        solve_reservoir_heads_demands(net, h_r, truth.demands, max_iterations=value)
    with pytest.raises(ValueError, match=iterations):
        complete(net, obs, max_iterations=value)

    calls = [lambda: solve_reservoir_heads_demands(net, h_r, truth.demands, value),
             lambda: complete_from_reservoir_heads_and_flows(net, h_r, truth.flows, value)]
    if value is not None:  # complete() reads None as its default tolerance
        calls.append(lambda: complete(net, obs, tol=value))
    tolerance = re.escape(f"tolerance must be finite and >= 0, got {value!r}")
    for call in calls:
        if value == 1.5:
            call()
        else:
            with pytest.raises(ValueError, match=tolerance):
                call()


def test_a_section_that_is_not_a_mapping_is_named():
    net = random_connected_wds(GeneratorConfig(seed=3, n_consumers=4, extra_edges=2))
    dec = select_independent_edges(net)
    h_r = np.full(net.n_reservoirs, 100.0)
    calls = {
        "heads": lambda: complete(net, ObservationSet(heads=list(net.node_ids))),
        "flows": lambda: classify_observation_pattern(net, ObservationSet(flows=list(net.pipe_ids))),
        "demands": lambda: complete(net, ObservationSet(demands=None)),
        "forest flows": lambda: complete_from_forest_flows(net, h_r, list(dec.independent), dec),
    }
    for what, call in calls.items():
        message = f"observation section '{what.split()[-1]}' must be a mapping"
        with pytest.raises(InvalidObservationError, match=message):
            call()


class TestCompleteFromForestFlows:
    def test_series_line_triangular_solve(self, path_net):
        dec = select_independent_edges(path_net)
        assert dec.independent == ("e1", "e2")
        report = complete_from_forest_flows(
            path_net, np.array([100.0]), {"e1": 1.0, "e2": 0.5}, dec
        )
        assert report.theorem is CompletionMethod.FOREST_FLOWS
        consumer_heads = report.state.consumer_heads(path_net)
        assert consumer_heads == pytest.approx([99.0, SERIES_TAIL_HEAD], rel=1e-12)
        assert report.state.demands == pytest.approx([0.5, 0.5], rel=1e-12)

    def test_triangle_round_trip(self, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=8)
        dec = select_independent_edges(triangle_net)
        forest_flows = {
            pid: float(truth.flows[triangle_net.pipe_index[pid]])
            for pid in dec.independent
        }
        report = complete_from_forest_flows(
            triangle_net, truth.reservoir_heads(triangle_net), forest_flows, dec
        )
        assert np.max(np.abs(report.state.heads - truth.heads)) <= 1e-10
        assert np.max(np.abs(report.state.flows - truth.flows)) <= 1e-10
        assert np.max(np.abs(report.state.demands - truth.demands)) <= 1e-10

    def test_zero_forest_flows_flatten_each_tree(self, triangle_net):
        dec = select_independent_edges(triangle_net)
        report = complete_from_forest_flows(
            triangle_net, np.array([100.0]), {pid: 0.0 for pid in dec.independent}, dec
        )
        assert report.state.heads == pytest.approx([100.0, 100.0, 100.0], abs=0.0)
        assert np.all(report.state.flows == 0.0)
        assert np.all(report.state.demands == 0.0)

    def test_key_mismatch(self, triangle_net):
        dec = select_independent_edges(triangle_net)
        with pytest.raises(DecompositionMismatchError):
            complete_from_forest_flows(
                triangle_net, np.array([100.0]), {"e1": 1.0, "e3": 0.5}, dec
            )

    def test_forest_pipe_swapped_for_a_chord(self, parallel_triangle_net):
        # e1p runs parallel to e1: with it in place of e2 the "forest" closes
        # the cycle R-c1-R and leaves c2 unreached.
        dec = EdgeDecomposition(("e1", "e1p"), ("e2", "e3"))
        with pytest.raises(DecompositionMismatchError, match="exactly once"):
            complete_from_forest_flows(
                parallel_triangle_net, np.array([100.0]), {"e1": 1.0, "e1p": 0.5}, dec
            )

    def test_unknown_pipe_id(self, triangle_net):
        with pytest.raises(UnknownNodeError, match="unknown pipe id: 'nope'"):
            complete_from_forest_flows(
                triangle_net, np.array([100.0]), {"nope": 1.0}, EdgeDecomposition(("nope",), ())
            )

    def test_defaults_to_canonical_decomposition(self, triangle_net):
        report = complete_from_forest_flows(
            triangle_net, np.array([100.0]), {"e1": 0.5, "e2": 0.25}
        )
        assert report.final_residual.physically_correct(1e-10)


class TestSolveReservoirHeadsDemands:
    def test_single_pipe_reference(self, single_pipe_net):
        report = solve_reservoir_heads_demands(
            single_pipe_net, np.array([100.0]), np.array([0.5])
        )
        assert report.theorem is CompletionMethod.DEMAND_DRIVEN
        h_c = report.state.consumer_heads(single_pipe_net)
        assert h_c == pytest.approx([SINGLE_PIPE_HEAD], abs=1e-9)
        assert report.state.flows == pytest.approx([0.5], abs=1e-10)

    def test_series_line_reference(self, path_net):
        report = solve_reservoir_heads_demands(
            path_net, np.array([100.0]), np.array([0.5, 0.5])
        )
        assert report.state.flows == pytest.approx([1.0, 0.5], abs=1e-9)
        h_c = report.state.consumer_heads(path_net)
        assert h_c == pytest.approx([99.0, SERIES_TAIL_HEAD], abs=1e-9)

    def test_zero_demand_flat_heads(self, triangle_net):
        report = solve_reservoir_heads_demands(
            triangle_net, np.array([100.0]), np.zeros(2)
        )
        assert report.iterations == 0
        assert report.state.flows == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert report.state.heads == pytest.approx([100.0, 100.0, 100.0], abs=1e-12)

    def test_round_trip_on_random_networks(self):
        for net in make_random_networks(15, seed0=101, max_nodes=30):
            truth = random_ground_truth_state(net, seed=2)
            report = solve_reservoir_heads_demands(
                net, truth.reservoir_heads(net), truth.demands
            )
            assert report.iterations <= 100
            assert report.final_residual.physically_correct(1e-8)
            assert np.max(np.abs(report.state.heads - truth.heads)) <= 1e-6
            assert np.max(np.abs(report.state.flows - truth.flows)) <= 1e-6

    def test_multi_start_agreement(self, monkeypatch, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=13)
        solutions = []
        for seed in range(5):
            monkeypatch.setattr(completion, "_initial_point", random_start(seed))
            report = solve_reservoir_heads_demands(
                triangle_net, truth.reservoir_heads(triangle_net), truth.demands
            )
            solutions.append(np.concatenate([report.state.heads, report.state.flows]))
        for other in solutions[1:]:
            assert np.max(np.abs(other - solutions[0])) <= 1e-6

    def test_non_convergence_error(self, monkeypatch, triangle_net):
        monkeypatch.setattr(completion, "_initial_point", flat_start)
        with pytest.raises(NonConvergenceError) as exc_info:
            solve_reservoir_heads_demands(
                triangle_net, np.array([100.0]), np.array([5.0, 7.0]), max_iterations=1
            )
        assert exc_info.value.iterations == 1
        assert exc_info.value.residual > 0.0

    def test_all_reports_self_consistent(self):
        for net in make_random_networks(5, seed0=111, max_nodes=20):
            truth = random_ground_truth_state(net, seed=4)
            report = solve_reservoir_heads_demands(
                net, truth.reservoir_heads(net), truth.demands
            )
            check = residuals(net, report.state)
            assert check.physically_correct(1e-8)


def test_negative_computed_heads_warn_but_solve(single_pipe_net):
    # a huge demand drags the consumer head below zero; still a valid solution
    with pytest.warns(UserWarning, match="negative consumer heads"):
        report = solve_reservoir_heads_demands(
            single_pipe_net, np.array([10.0]), np.array([3.0])
        )
    assert report.final_residual.physically_correct(1e-8)
    assert report.state.consumer_heads(single_pipe_net)[0] < 0


@pytest.mark.parametrize("nan_heads", [False, True])
def test_nan_start_does_not_converge(monkeypatch, triangle_net, nan_heads):
    def start(net, reservoir_heads, demands):
        q = np.full(net.n_pipes, np.nan)
        return q, np.full(net.n_consumers, np.nan if nan_heads else 100.0)

    monkeypatch.setattr(completion, "_initial_point", start)
    with pytest.raises(NonConvergenceError) as exc_info:
        solve_reservoir_heads_demands(triangle_net, np.array([100.0]), np.array([0.5, 0.5]))
    assert exc_info.value.iterations == 0
    assert np.isnan(exc_info.value.residual)


@pytest.mark.parametrize(
    "route",
    [
        lambda net: solve_reservoir_heads_demands(net, np.array([10.0]), np.array([3.0])),
        lambda net: complete_from_reservoir_heads_and_flows(net, np.array([1.0]), np.array([1.0])),
        lambda net: complete_from_forest_flows(net, np.array([1.0]), {"P1": 1.0}),
        lambda net: complete(net, ObservationSet(heads={"R": 1.0}, flows={"P1": 1.0})),
        lambda net: complete(net, ObservationSet(heads={"R": 10.0}, demands={"J1": 3.0})),
    ],
    ids=["demand_driven", "heads_flows", "forest_flows", "complete_forest", "complete_demands"],
)
def test_negative_heads_warning_points_at_the_caller(single_pipe_net, route):
    with pytest.warns(UserWarning, match="negative consumer heads") as record:
        route(single_pipe_net)
    assert [w.filename for w in record] == [__file__]


def test_negative_walked_reservoir_head_is_named_as_such(single_pipe_net):
    # Grounded at J1, the walk reaches R through P1; the flow from J1 to R drags R below zero.
    with pytest.warns(UserWarning) as record:
        report = complete(single_pipe_net, ObservationSet(heads={"J1": 1.0}, flows={"P1": -2.0}))
    assert report.state.heads.tolist()[0] < 0 < report.state.heads.tolist()[1]
    assert [str(w.message) for w in record] == [
        "completion produced negative reservoir heads; the solution is "
        "mathematically valid but physically implausible"
    ]
    assert [w.filename for w in record] == [__file__]


def test_stall_at_float_resolution_says_so():
    # At 10^4 times its demands the solve reaches heads of about 1e9 m, where rounding alone
    # leaves a residual above the tolerance, and no damped step lowers it: still exit 3, but
    # the message says why.
    net = random_connected_wds(GeneratorConfig(0, n_reservoirs=1, n_consumers=8, extra_edges=3))
    truth = random_ground_truth_state(net, 0)
    args = (net, truth.reservoir_heads(net), 1e4 * truth.demands)
    with pytest.raises(NonConvergenceError) as stalled:
        solve_reservoir_heads_demands(*args)
    error = stalled.value
    assert (error.iterations, error.residual) == (4, 2.0**-21)
    assert re.fullmatch(
        r"no convergence after 4 iterations \(residual 4\.768372e-07\); the residual sits at "
        r"float resolution for heads up to \d\.\d\de\+09 m",
        str(error),
    )
    with pytest.warns(UserWarning, match="negative consumer heads"):
        assert solve_reservoir_heads_demands(*args, tol=1e-4).iterations == 4

    # A budget that runs out keeps its message.
    with pytest.raises(NonConvergenceError) as budget:
        solve_reservoir_heads_demands(*args, max_iterations=1)
    error = budget.value
    assert str(error) == f"no convergence after 1 iterations (residual {error.residual:.6e})"


def test_complete_hands_its_tol_and_max_iterations_to_the_demand_driven_solve():
    # The stalling network above, reached through the dispatch.
    net = random_connected_wds(GeneratorConfig(0, n_reservoirs=1, n_consumers=8, extra_edges=3))
    truth = random_ground_truth_state(net, 0)
    h_r, d = truth.reservoir_heads(net), 1e4 * truth.demands
    obs = ObservationSet(heads=dict(zip(net.reservoir_ids, h_r.tolist())),
                         demands=dict(zip(net.consumer_ids, d.tolist())))
    with pytest.warns(UserWarning, match="negative consumer heads"):
        direct = solve_reservoir_heads_demands(net, h_r, d, tol=1e-4)
    with pytest.warns(UserWarning, match="negative consumer heads"):
        report = complete(net, obs, tol=1e-4)
    assert report.iterations == direct.iterations == 4
    for part in ("heads", "flows", "demands"):
        assert getattr(report.state, part).tobytes() == getattr(direct.state, part).tobytes()

    with pytest.raises(NonConvergenceError) as budget:
        complete(net, obs, max_iterations=1)
    assert budget.value.iterations == 1
    for function in (complete, solve_reservoir_heads_demands):
        default = inspect.signature(function).parameters["max_iterations"].default
        assert default is completion.MAX_ITERATIONS == 100


class TestOverflowingFlows:
    """A finite flow whose head loss overflows is rejected, never completed to NaN heads."""

    def test_forest_route_names_the_pipe(self, path3_net):
        flows = {"P1": 1e300, "P2": 0.01, "P3": 0.01}
        with pytest.raises(ObservationOverflowError, match="'P1'"):
            complete_from_forest_flows(path3_net, np.array([100.0]), flows)

    def test_forest_route_checks_losses_before_the_forest(self, parallel_triangle_net):
        # e1 and e1p do not span; the overflow of e1's loss is found first all the same.
        dec = EdgeDecomposition(("e1", "e1p"), ("e2", "e3"))
        with pytest.raises(ObservationOverflowError, match="'e1'"):
            complete_from_forest_flows(
                parallel_triangle_net, np.array([100.0]), {"e1": 1e300, "e1p": 0.01}, dec
            )

    def test_heads_flows_route_names_the_pipe(self, path3_net):
        # A tree has no cycle, so this must not read as an inconsistency.
        with pytest.raises(ObservationOverflowError, match="'P1'"):
            complete_from_reservoir_heads_and_flows(
                path3_net, np.array([100.0]), np.array([1e300, 0.01, 0.01])
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("route", ["forest", "heads_flows"])
    def test_summed_head_losses_overflow(self, path3_net, route):
        # Each head loss is about 1e308, finite; their sum along the path is not.
        q = (1e308 / path3_net.resistances[0]) ** (1 / HAZEN_WILLIAMS_EXPONENT)
        flows = np.array([q, q, 0.01])
        assert np.all(np.isfinite(head_loss(flows, path3_net.resistances)))
        with pytest.raises(ObservationOverflowError, match="overflow"):
            if route == "forest":
                complete_from_forest_flows(
                    path3_net, np.array([100.0]), dict(zip(path3_net.pipe_ids, flows))
                )
            else:
                complete_from_reservoir_heads_and_flows(path3_net, np.array([100.0]), flows)

    def test_is_an_invalid_observation(self):
        assert issubclass(ObservationOverflowError, InvalidObservationError)


class TestObservationSet:
    def test_validate_unknown_node(self, triangle_net):
        with pytest.raises(InvalidObservationError):
            ObservationSet(heads={"nope": 1.0}).validate(triangle_net)

    def test_validate_demand_on_reservoir(self, triangle_net):
        with pytest.raises(InvalidObservationError):
            ObservationSet(demands={"R": 1.0}).validate(triangle_net)

    @pytest.mark.parametrize("nid", ["R", "nope"])
    def test_validate_names_a_demand_off_the_consumers(self, triangle_net, nid):
        message = f"demand observation at {nid!r}, which is not a consumer node"
        with pytest.raises(InvalidObservationError, match=f"^{re.escape(message)}$"):
            ObservationSet(demands={"c1": 0.5, nid: 1.0}).validate(triangle_net)

    def test_vectors(self, triangle_net):
        obs = ObservationSet(
            heads={"R": 100.0, "c1": 99.0, "c2": 98.0},
            flows={"e1": 1.0},
            demands={"c1": 0.5, "c2": 0.5},
        )
        obs.validate(triangle_net)
        assert obs.head_vector(triangle_net).tolist() == [100.0, 99.0, 98.0]
        assert obs.reservoir_head_vector(triangle_net).tolist() == [100.0]
        assert obs.demand_vector(triangle_net).tolist() == [0.5, 0.5]
        with pytest.raises(InvalidObservationError):
            obs.flow_vector(triangle_net)

    def test_json_round_trip(self):
        obs = ObservationSet(heads={"R": 100.0}, flows={"P1": 0.5}, demands={"J1": 0.5})
        doc = obs.to_json_dict()
        assert ObservationSet.from_json_dict(doc) == obs

    def test_json_integers_become_floats(self):
        obs = ObservationSet.from_json_dict({"heads": {"R": 100}, "flows": {"P1": -2}})
        assert obs == ObservationSet(heads={"R": 100.0}, flows={"P1": -2.0})
        assert type(obs.heads["R"]) is float

    @pytest.mark.parametrize("value", [True, False, "1.5", "nan", None, [1.0], {"q": 1.0}])
    @pytest.mark.parametrize("section", ["heads", "flows", "demands"])
    def test_json_rejects_non_numbers(self, section, value):
        message = f"non-numeric value {value!r} at 'X' in observation section '{section}'"
        with pytest.raises(FormatError, match=re.escape(message)):
            ObservationSet.from_json_dict({section: {"X": value}})

    @pytest.mark.parametrize("doc", [[], [{"heads": {}}], "heads", None])
    def test_json_document_must_be_an_object(self, doc):
        with pytest.raises(FormatError, match="^observation document must be a JSON object$"):
            ObservationSet.from_json_dict(doc)

    @pytest.mark.parametrize("key", [1, None, ("P", 1)])
    def test_json_rejects_non_string_ids(self, key):
        with pytest.raises(FormatError, match="non-string id"):
            ObservationSet.from_json_dict({"flows": {key: 1.0}})

    def test_json_rejects_overflowing_integer(self):
        with pytest.raises(FormatError, match="non-finite or non-numeric value 1000"):
            ObservationSet.from_json_dict({"flows": {"P1": 10**400}})


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "route",
        [
            lambda net, bad: complete_from_heads(net, np.array([100.0, bad, 98.0])),
            lambda net, bad: complete_from_reservoir_heads_and_flows(
                net, np.array([100.0]), np.array([1.0, 0.5, bad])
            ),
            lambda net, bad: complete_from_reservoir_heads_and_flows(
                net, np.array([bad]), np.array([1.0, 0.5, 0.25])
            ),
            lambda net, bad: complete_from_forest_flows(
                net, np.array([100.0]), {"e1": bad, "e2": 0.5}
            ),
            lambda net, bad: complete_from_forest_flows(
                net, np.array([bad]), {"e1": 1.0, "e2": 0.5}
            ),
            lambda net, bad: solve_reservoir_heads_demands(
                net, np.array([100.0]), np.array([0.5, bad])
            ),
            lambda net, bad: solve_reservoir_heads_demands(
                net, np.array([bad]), np.array([0.5, 0.5])
            ),
        ],
        ids=[
            "all_heads",
            "heads_flows_flow",
            "heads_flows_head",
            "forest_flow",
            "forest_head",
            "demand",
            "demand_driven_head",
        ],
    )
    def test_solvers_reject(self, triangle_net, route, bad):
        with pytest.raises(InvalidObservationError, match="finite"):
            route(triangle_net, bad)

    @pytest.mark.parametrize("bad", [True, "1.5", None, 1j, "bool array"])
    @pytest.mark.parametrize(
        "n, route",
        [
            (3, lambda net, v: complete_from_heads(net, v)),
            (3, lambda net, v: complete_from_reservoir_heads_and_flows(net, [100.0], v)),
            (1, lambda net, v: complete_from_reservoir_heads_and_flows(net, v, [1.0, 0.5, 0.25])),
            (1, lambda net, v: complete_from_forest_flows(net, v, {"e1": 1.0, "e2": 0.5})),
            (2, lambda net, v: solve_reservoir_heads_demands(net, [100.0], v)),
            (1, lambda net, v: solve_reservoir_heads_demands(net, v, [0.5, 0.5])),
        ],
        ids=["all_heads", "heads_flows_flow", "heads_flows_head", "forest_head", "demand",
             "demand_driven_head"],
    )
    def test_vector_entries_follow_the_number_rule(self, triangle_net, n, route, bad):
        # Each entry reads by json_number, so a boolean or a numeric string is no number.
        vector = np.ones(n, dtype=bool) if bad == "bool array" else [1.0] * (n - 1) + [bad]
        with pytest.raises(InvalidObservationError, match="finite"):
            route(triangle_net, vector)

    @pytest.mark.parametrize("section", ["heads", "flows", "demands"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "-Infinity"])
    def test_observation_document_rejects(self, section, bad):
        with pytest.raises(FormatError, match="non-finite"):
            ObservationSet.from_json_dict({section: {"x": bad}})


@pytest.mark.parametrize(
    "route, message",
    [
        (lambda net: complete_from_heads(net, [100.0, np.nan, 98.0]), "heads"),
        (lambda net: complete_from_reservoir_heads_and_flows(net, [100.0], [1.0, np.inf, 0.5]),
         "flows"),
        (lambda net: complete_from_reservoir_heads_and_flows(net, [np.nan], [1.0, 0.5, 0.5]),
         "reservoir heads"),
        (lambda net: solve_reservoir_heads_demands(net, [100.0], [0.5, -np.inf]), "demands"),
        # The first vector read raises first, also when a later one has the wrong length.
        (lambda net: complete_from_reservoir_heads_and_flows(net, [np.nan], [1.0, 0.5]),
         "reservoir heads"),
        (lambda net: solve_reservoir_heads_demands(net, [np.nan], [0.5, 0.5, 0.5]),
         "reservoir heads"),
        (lambda net: complete_from_forest_flows(net, [np.nan], {"e1": 1.0, "e2": 0.5}),
         "reservoir heads"),
    ],
    ids=["heads", "flows", "reservoir_heads", "demands", "nan_head_short_flows",
         "nan_head_long_demands", "forest_reservoir_heads"],
)
def test_each_vector_is_checked_where_it_is_read(triangle_net, route, message):
    with pytest.raises(InvalidObservationError, match=f"^{message} must be finite$"):
        route(triangle_net)


@pytest.mark.parametrize("fail_at", [1, 2])
def test_a_singular_newton_step_does_not_converge(monkeypatch, fail_at):
    net = random_connected_wds(GeneratorConfig(seed=3, n_consumers=6, extra_edges=3))
    truth = random_ground_truth_state(net, seed=1)
    h_r = truth.reservoir_heads(net)
    assert solve_reservoir_heads_demands(net, h_r, truth.demands).iterations >= fail_at
    calls, solve_heads = [], completion.solve_heads

    def failing(layout, weights, rhs):
        calls.append(rhs)
        if len(calls) == fail_at:
            raise np.linalg.LinAlgError("singular matrix")
        return solve_heads(layout, weights, rhs)

    monkeypatch.setattr(completion, "solve_heads", failing)
    with pytest.raises(NonConvergenceError) as exc_info:
        solve_reservoir_heads_demands(net, h_r, truth.demands)
    assert exc_info.value.iterations == fail_at - 1
    assert exc_info.value.__suppress_context__
    assert completion.SOLVER_TOLERANCE < exc_info.value.residual < np.inf


# --- the dense Newton step as oracle ------------------------------------------


def kkt_step(net, slope, F):
    """Oracle Newton step: dense LU of the full (p + c) Jacobian ``[[-D, Bc^T], [Bc, 0]]``."""
    n_p, n_c = net.n_pipes, net.n_consumers
    Bc = incidence_matrix(net).restrict(nodes=net.consumer_ids).entries.astype(float)
    jac = np.zeros((n_p + n_c, n_p + n_c))
    jac[:n_p, :n_p] = -np.diag(slope)
    jac[:n_p, n_p:] = Bc.T
    jac[n_p:, :n_p] = Bc
    step = np.linalg.solve(jac, -F)
    return step[:n_p], step[n_p:]


def dense_residual(net, reservoir_heads, demands, q, consumer_heads):
    """Energy and mass residuals through the dense incidence matrix."""
    B = incidence_matrix(net)
    Bc = B.restrict(nodes=net.consumer_ids).entries.astype(float)
    Br = B.restrict(nodes=net.reservoir_ids).entries.astype(float)
    energy = Bc.T @ consumer_heads + Br.T @ reservoir_heads - head_loss(q, net.resistances)
    return np.concatenate([energy, Bc @ q + demands])


def dense_head_matrix(net, weights):
    """Oracle ``Bc diag(weights) Bc^T``: one scatter of every pipe's weight into n_c**2 cells."""
    n_c = net.n_consumers
    position = np.full(net.n_nodes, -1)
    position[net.consumer_indices] = np.arange(n_c)
    tails, heads = position[net.tail_indices], position[net.head_indices]
    inner = (tails >= 0) & (heads >= 0)
    rows = np.concatenate([tails, heads, tails[inner], heads[inner]])
    cols = np.concatenate([tails, heads, heads[inner], tails[inner]])
    values = np.concatenate([weights, weights, -weights[inner], -weights[inner]])
    keep = rows >= 0
    flat = np.bincount(rows[keep] * n_c + cols[keep], values[keep], minlength=n_c * n_c)
    return flat.reshape(n_c, n_c)


#: The solver's own start, a mass-feasible start with dry chords, and the flat start that puts
#: every pipe at the zero-flow clamp.
STARTS = pytest.mark.parametrize(
    "start",
    [completion._initial_point, forest_start, flat_start],
    ids=["linear", "forest", "flat"],
)


def clamped_slope(net, q):
    eps = completion.ZERO_FLOW_EPSILON
    x = HAZEN_WILLIAMS_EXPONENT
    return x * net.resistances * np.maximum(np.abs(q), eps) ** (x - 1.0)


class TestSchurNewtonStep:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_reservoirs=st.integers(1, 3),
        n_consumers=st.integers(1, 25),
        extra_edges=st.integers(0, 30),
        flat=st.booleans(),
    )
    def test_matches_kkt_step(self, seed, n_reservoirs, n_consumers, extra_edges, flat):
        n = n_reservoirs + n_consumers
        capacity = MAX_PARALLEL_PIPES * (n * (n - 1) // 2) - (n - 1)
        net = random_connected_wds(
            GeneratorConfig(seed, n_reservoirs, n_consumers, min(extra_edges, capacity))
        )
        rng = np.random.default_rng(seed)
        h_r = rng.uniform(50.0, 150.0, n_reservoirs)
        d = rng.uniform(-1.0, 1.0, n_consumers)
        if flat:
            q, h_c = flat_start(net, h_r, d)  # every pipe sits at the zero-flow clamp
        else:
            q = rng.uniform(-2.0, 2.0, net.n_pipes)
            h_c = rng.uniform(50.0, 150.0, n_consumers)
        slope = clamped_slope(net, q)
        F = dense_residual(net, h_r, d, q, h_c)

        Bc = incidence_matrix(net).restrict(nodes=net.consumer_ids).entries.astype(float)
        np.testing.assert_allclose(
            dense_head_matrix(net, 1.0 / slope), (Bc / slope) @ Bc.T, rtol=1e-12
        )
        for schur, kkt in zip(completion._newton_step(net, slope, F), kkt_step(net, slope, F)):
            assert np.max(np.abs(schur - kkt)) <= 1e-9 * np.max(np.abs(kkt))

    @STARTS
    def test_iterations_match_kkt_oracle(self, monkeypatch, start):
        nets = make_random_networks(8, seed0=131, max_nodes=30)
        problems = []
        for k, net in enumerate(nets):
            truth = random_ground_truth_state(net, seed=k)
            problems.append((net, truth.reservoir_heads(net), truth.demands))
        monkeypatch.setattr(completion, "_initial_point", start)
        schur = [solve_reservoir_heads_demands(*p) for p in problems]
        monkeypatch.setattr(completion, "_newton_step", kkt_step)
        oracle = [solve_reservoir_heads_demands(*p) for p in problems]
        for a, b in zip(schur, oracle):
            assert a.iterations == b.iterations
            assert np.max(np.abs(a.state.flows - b.state.flows)) <= 1e-9
            assert np.max(np.abs(a.state.heads - b.state.heads)) <= 1e-9

    def test_linear_start_solves_the_linear_network(self):
        # With conductance 1/r, the start satisfies mass balance exactly and
        # the linear energy law q = g * (head drop) on every pipe.
        for net in make_random_networks(5, seed0=141, max_nodes=30):
            truth = random_ground_truth_state(net, seed=1)
            h_r = truth.reservoir_heads(net)
            q, h_c = completion._initial_point(net, h_r, truth.demands)
            F = dense_residual(net, h_r, truth.demands, q, h_c)
            assert np.max(np.abs(F[net.n_pipes :])) <= 1e-10
            drops = F[: net.n_pipes] + head_loss(q, net.resistances)
            assert np.max(np.abs(q - drops / net.resistances)) <= 1e-10


# --- the banded head solve against the dense oracle ---------------------------


def chain_network(lengths, seed=0):
    """Reservoirs R0..Rk joined by chains of consumers, one chain of each length between them."""
    rng = np.random.default_rng(seed)
    nodes, edges = [("R0", "reservoir")], []
    for c, length in enumerate(lengths):
        ids = [f"C{c}_{k}" for k in range(length)]
        nodes += [(i, "consumer") for i in ids] + [(f"R{c + 1}", "reservoir")]
        chain = [f"R{c}", *ids, f"R{c + 1}"]
        edges += list(zip(chain, chain[1:]))
    pipes = [(f"P{k}", a, b, params_for_resistance(float(r)))
             for k, ((a, b), r) in enumerate(zip(edges, rng.uniform(0.5, 5.0, len(edges))))]
    return build_network(nodes, pipes)


def consumer_pipe_ends(net):
    """Far end of every pipe at each consumer: a consumer position, or None for a reservoir."""
    position = dict(zip(net.consumer_indices.tolist(), range(net.n_consumers)))
    ends = [[] for _ in range(net.n_consumers)]
    for t, h in zip(net.tail_indices.tolist(), net.head_indices.tolist()):
        for near, far in ((t, h), (h, t)):
            if near in position:
                ends[position[near]].append(position.get(far))
    return ends


def greedy_independent_set(net):
    """Reference scan: consumers by (pipe count, position); one with at most 3 pipes is taken
    unless a pipe joins it to a consumer taken before."""
    ends = consumer_pipe_ends(net)
    taken = set()
    for v in sorted(range(net.n_consumers), key=lambda v: (len(ends[v]), v)):
        if len(ends[v]) <= band.MAX_ELIMINATED_PIPES and taken.isdisjoint(ends[v]):
            taken.add(v)
    return sorted(taken)


def condensed_matrix(net, weights):
    """Oracle Schur complement of the eliminated consumers, over the kept ones in band order."""
    A = dense_head_matrix(net, weights)
    eliminated, kept = net.head_band.eliminated, net.head_band.order
    lower = A[np.ix_(kept, eliminated)]
    inner = A[np.ix_(eliminated, eliminated)]
    return A[np.ix_(kept, kept)] - lower @ np.linalg.solve(inner, lower.T)


def assert_condensation(net):
    """The eliminated consumers are the reference scan's: independent, at most 3 pipes each and
    maximal; the kept ones are the rest; and a second build picks the same set."""
    layout, ends = net.head_band, consumer_pipe_ends(net)
    eliminated = layout.eliminated.tolist()
    assert eliminated == greedy_independent_set(net)
    assert sorted(eliminated + layout.order.tolist()) == list(range(net.n_consumers))
    taken = set(eliminated)
    for v, far in enumerate(ends):
        if v in taken:
            assert len(far) <= band.MAX_ELIMINATED_PIPES and taken.isdisjoint(far)
        elif len(far) <= band.MAX_ELIMINATED_PIPES:
            assert not taken.isdisjoint(far), "a consumer that could be taken was left"
    assert np.array_equal(band.head_band(net).eliminated, layout.eliminated)
    # One fill link per pair of an eliminated consumer's pipes with two far ends.
    pairs = [(a, b) for v in eliminated for a, b in itertools.combinations(ends[v], 2)]
    far = layout.star_far[layout.fill_ends]
    assert far.shape[1] == sum(a != b for a, b in pairs)
    assert np.all(far[0] != far[1])


def assert_band_layout(net):
    """The kept consumers lie in blocks such that every link of the condensed matrix lies within
    one block or two adjacent ones, and the rows of each block joined to the block before come
    first."""
    layout = net.head_band
    n, s = len(layout.order), layout.block
    assert s >= max(layout.bandwidth, 1)
    assert layout.n_blocks * s >= n > (layout.n_blocks - 1) * s or n == 0 == layout.n_blocks - 1
    condensed = condensed_matrix(net, np.ones(net.n_pipes))
    a, b = np.nonzero(condensed)
    assert np.all(np.abs(a // s - b // s) <= 1)
    # The coupled rows are the nonzero rows of the dense blocks below the diagonal.
    padded = np.zeros((layout.n_blocks * s, layout.n_blocks * s))
    padded[:n, :n] = condensed
    assert len(layout.n_coupled) == layout.n_blocks - 1
    for k, m in enumerate(layout.n_coupled):
        below = padded[(k + 1) * s : (k + 2) * s, k * s : (k + 1) * s]
        assert np.flatnonzero(np.any(below != 0.0, axis=1)).tolist() == list(range(m))


def assert_matches_dense(net, weights, rhs, rtol, solve=None):
    A = dense_head_matrix(net, weights)
    banded = band.solve_heads(net.head_band, weights, rhs) if solve is None else solve(rhs)
    dense = np.linalg.solve(A, rhs)
    assert np.max(np.abs(banded - dense)) <= rtol * np.max(np.abs(dense))
    # Backward error of the banded solve: as small as a dense factorization's.
    scale = np.max(np.sum(np.abs(A), axis=1)) * np.max(np.abs(banded)) + np.max(np.abs(rhs))
    assert np.max(np.abs(A @ banded - rhs)) <= 1e-12 * scale


def grounded_and_parallel_net():
    """A path of consumers c0..c9 with every other link doubled, and a consumer g whose three
    pipes all end at reservoirs: every eliminated consumer meets a parallel pair or the ground."""
    nodes = [("R1", "reservoir"), ("R2", "reservoir"), ("g", "consumer")]
    nodes += [(f"c{k}", "consumer") for k in range(10)]
    edges = [("R1", "g"), ("g", "R2"), ("R1", "g"), ("R1", "c0"), ("c9", "R2")]
    for k in range(9):
        edges += [(f"c{k}", f"c{k + 1}")] * (2 if k % 2 else 1)
    rs = np.random.default_rng(7).uniform(0.5, 5.0, len(edges))
    return build_network(nodes, [(f"P{j}", a, b, params_for_resistance(float(r)))
                                 for j, ((a, b), r) in enumerate(zip(edges, rs))])


class TestBandedHeadSolve:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_reservoirs=st.integers(1, 3),
        n_consumers=st.integers(1, 150),
        extra_edges=st.integers(0, 40),
        clamped=st.floats(0.0, 1.0),
    )
    def test_matches_dense_solve(self, seed, n_reservoirs, n_consumers, extra_edges, clamped):
        n = n_reservoirs + n_consumers
        capacity = MAX_PARALLEL_PIPES * (n * (n - 1) // 2) - (n - 1)
        net = random_connected_wds(
            GeneratorConfig(seed, n_reservoirs, n_consumers, min(extra_edges, capacity))
        )
        assert_condensation(net)
        assert_band_layout(net)
        rng = np.random.default_rng(seed)
        weights = 10.0 ** rng.uniform(-6.0, 6.0, net.n_pipes)
        # A share of the pipes at the zero-flow clamp, as in the Newton step from a flat start.
        at_clamp = rng.random(net.n_pipes) < clamped
        weights[at_clamp] = 1.0 / clamped_slope(net, np.zeros(net.n_pipes))[at_clamp]
        rhs = rng.uniform(-1.0, 1.0, n_consumers)
        # Weights over 12 decades make A ill-conditioned: any two backward
        # stable solves then differ by up to cond(A) * eps, the dense one
        # against itself under a permutation too.
        rtol = 1e-9 + np.linalg.cond(dense_head_matrix(net, weights)) * np.finfo(float).eps
        assert_matches_dense(net, weights, rhs, rtol)
        factor = band.factor_heads(net.head_band, weights)
        assert_matches_dense(net, weights, rhs, rtol, solve=factor.solve)

    @pytest.mark.parametrize(
        "build, n_eliminated, bandwidth, n_blocks",
        [
            (lambda: chain_network([1] * 70), 70, 0, 1),
            (lambda: chain_network([100]), 50, 1, 2),
            (lambda: chain_network([40, 1, 57, 3]), 52, 1, 2),
            (grounded_and_parallel_net, 6, 1, 1),
            (lambda: looped_grid(3, 30, double=True), 0, 4, 3),
            (lambda: looped_grid(30, 40), 67, 44, 26),
            (lambda: looped_grid(45, 50), 92, 65, 34),
        ],
        ids=["star", "path", "components", "grounded_and_parallel", "parallel_pipes", "grid",
             "wide_grid"],
    )
    def test_fixed_networks(self, build, n_eliminated, bandwidth, n_blocks):
        net = build()
        layout = net.head_band
        assert len(layout.eliminated) == n_eliminated
        assert_condensation(net)
        # The layout's bandwidth is that of reverse Cuthill-McKee on the condensed graph, with
        # the kept consumers numbered in canonical order.
        label = np.searchsorted(np.sort(layout.order), layout.order)
        a, b = (label[i] for i in np.nonzero(condensed_matrix(net, np.ones(net.n_pipes))))
        neighbours = [[] for _ in layout.order]
        for i, j in zip(a.tolist(), b.tolist()):
            if i != j:
                neighbours[i].append(j)
        rank = np.empty(len(layout.order), dtype=int)
        rank[band._reverse_cuthill_mckee(neighbours)] = np.arange(len(layout.order))
        assert np.max(np.abs(rank[a] - rank[b]), initial=0) == bandwidth
        assert layout.bandwidth == bandwidth
        assert layout.n_blocks == n_blocks
        assert_band_layout(net)
        rng = np.random.default_rng(net.n_consumers)
        weights = rng.uniform(0.5, 2.0, net.n_pipes)
        rhs = rng.uniform(-1.0, 1.0, net.n_consumers)
        assert_matches_dense(net, weights, rhs, 1e-9)
        factor = band.factor_heads(layout, weights)
        assert_matches_dense(net, weights, rhs, 1e-9, solve=factor.solve)

    def test_star_keeps_no_consumer(self):
        net = chain_network([1] * 70)
        assert len(net.head_band.order) == 0
        # Each consumer sits between two reservoirs: its head is the conductance-weighted mean.
        weights = np.arange(1.0, net.n_pipes + 1.0)
        rhs = np.linspace(-1.0, 1.0, net.n_consumers)
        heads = band.solve_heads(net.head_band, weights, rhs)
        assert heads == pytest.approx(rhs / (weights[0::2] + weights[1::2]), rel=1e-15)

    def test_path_eliminates_every_other_consumer(self):
        net = chain_network([100])
        assert net.head_band.eliminated.tolist() == list(range(0, 100, 2))

    @pytest.mark.parametrize("factor", [False, True])
    def test_consumer_without_conductance_is_singular(self, factor, path3_net):
        # J1 and J3 are eliminated; the pipes P2 and P3 at J3 have underflowed to 0.
        assert path3_net.head_band.eliminated.tolist() == [0, 2]
        weights = np.array([1.0, 0.0, 0.0])
        with pytest.raises(np.linalg.LinAlgError):
            if factor:
                band.factor_heads(path3_net.head_band, weights)
            else:
                band.solve_heads(path3_net.head_band, weights, np.ones(3))


def numbered_by_second_search(neighbours):
    """Reverse Cuthill-McKee that numbers each component by a breadth-first pass of its own
    from the pseudo-peripheral root, where ``band`` reads the root's level structure."""
    degree = [len(nb) for nb in neighbours]
    neighbours = [sorted(nb, key=lambda v: (degree[v], v)) for nb in neighbours]

    def levels(root):
        seen, out = {root}, [[root]]
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

    placed, order = [False] * len(neighbours), []
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
    return order[::-1]


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 40),
    pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
)
@example(n=10, pairs=[(0, 1), (1, 2), (4, 5), (5, 6), (6, 4), (9, 7), (7, 2)])
def test_reverse_cuthill_mckee_numbers_each_component_by_its_levels(n, pairs):
    # Sparse random graphs: several components, isolated nodes among them.
    neighbours = [set() for _ in range(n)]
    for a, b in pairs:
        if a != b and max(a, b) < n:
            neighbours[a].add(b)
            neighbours[b].add(a)
    expected = numbered_by_second_search([list(nb) for nb in neighbours])
    assert band._reverse_cuthill_mckee([list(nb) for nb in neighbours]) == expected
    assert sorted(expected) == list(range(n))


class TestLinearHeadFactor:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_reservoirs=st.integers(1, 3),
        n_consumers=st.integers(1, 150),
        extra_edges=st.integers(0, 40),
    )
    def test_matches_fused_and_dense_solve(self, seed, n_reservoirs, n_consumers, extra_edges):
        # Extra edges on few nodes make parallel pipes.
        n = n_reservoirs + n_consumers
        capacity = MAX_PARALLEL_PIPES * (n * (n - 1) // 2) - (n - 1)
        net = random_connected_wds(
            GeneratorConfig(seed, n_reservoirs, n_consumers, min(extra_edges, capacity))
        )
        g = 1.0 / net.resistances
        rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, n_consumers)
        cached = net.linear_head_factor.solve(rhs)
        assert np.array_equal(cached, band.factor_heads(net.head_band, g).solve(rhs))
        rtol = 1e-9 + np.linalg.cond(dense_head_matrix(net, g)) * np.finfo(float).eps
        assert_matches_dense(net, g, rhs, rtol, solve=net.linear_head_factor.solve)
        fused = band.solve_heads(net.head_band, g, rhs)
        assert np.max(np.abs(cached - fused)) <= rtol * np.max(np.abs(fused))

    def test_fixed_networks(self):
        for net in (chain_network([40, 1, 57, 3]), looped_grid(3, 30, double=True),
                    looped_grid(30, 40)):
            rhs = np.random.default_rng(net.n_consumers).uniform(-1.0, 1.0, net.n_consumers)
            assert_matches_dense(net, 1.0 / net.resistances, rhs, 1e-9,
                                 solve=net.linear_head_factor.solve)

    def test_built_once_and_only_for_the_linear_start(self, monkeypatch):
        built, factor_heads = [], band.factor_heads

        def counted(layout, weights):
            built.append(layout)
            return factor_heads(layout, weights)

        monkeypatch.setattr(band, "factor_heads", counted)
        net = looped_grid(6, 7, seed=3)
        truth = random_ground_truth_state(net, seed=8)
        h_r = truth.reservoir_heads(net)
        for start in (forest_start, flat_start, random_start(1)):
            with monkeypatch.context() as patched:
                patched.setattr(completion, "_initial_point", start)
                solve_reservoir_heads_demands(net, h_r, truth.demands)
        assert built == []
        first = solve_reservoir_heads_demands(net, h_r, truth.demands)
        assert built == [net.head_band]
        second = solve_reservoir_heads_demands(net, h_r, truth.demands)
        assert built == [net.head_band]
        assert np.array_equal(first.state.heads, second.state.heads)


@STARTS
def test_final_residual_is_the_states_own(monkeypatch, start, triangle_net):
    monkeypatch.setattr(completion, "_initial_point", start)
    nets = make_random_networks(6, seed0=151, max_nodes=30)
    for k, net in enumerate(nets):
        truth = random_ground_truth_state(net, seed=k)
        report = solve_reservoir_heads_demands(net, truth.reservoir_heads(net), truth.demands)
        assert report.final_residual == residuals(net, report.state)
    # Converged at the start, after no Newton step.
    report = solve_reservoir_heads_demands(triangle_net, np.array([100.0]), np.zeros(2))
    assert report.iterations == 0
    assert report.final_residual == residuals(triangle_net, report.state)


def test_demand_driven_scales_without_dense_matrix():
    # 5000 consumers: a dense head matrix alone would take 8 * n_c**2 = 200 MB.
    net = looped_grid(50, 100, seed=3)
    truth = random_ground_truth_state(net, seed=5)
    tracemalloc.start()
    try:
        report = solve_reservoir_heads_demands(net, truth.reservoir_heads(net), truth.demands)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.final_residual.physically_correct(1e-8)
    assert np.max(np.abs(report.state.heads - truth.heads)) <= 1e-6
    assert peak < 8 * net.n_consumers**2 / 10


@pytest.mark.parametrize("route", ["forest_flows", "heads_flows"])
def test_flow_routes_scale_without_dense_matrix(route):
    # 5000 consumers: the dense consumer incidence alone would take 8 * n_c * m bytes.
    net = looped_grid(50, 100, seed=3)
    truth = random_ground_truth_state(net, seed=5)
    h_r = truth.reservoir_heads(net)
    dec = select_independent_edges(net)
    forest_flows = {pid: float(truth.flows[net.pipe_index[pid]]) for pid in dec.independent}
    tracemalloc.start()
    try:
        if route == "forest_flows":
            report = complete_from_forest_flows(net, h_r, forest_flows, dec)
        else:
            report = complete_from_reservoir_heads_and_flows(net, h_r, truth.flows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.final_residual.physically_correct(1e-10)
    for completed, expected in zip(
        (report.state.heads, report.state.flows, report.state.demands),
        (truth.heads, truth.flows, truth.demands),
    ):
        assert np.max(np.abs(completed - expected)) <= 1e-8
    assert peak < 8 * net.n_consumers * net.n_pipes / 10
