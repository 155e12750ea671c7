"""Tests for the observation-pattern classifier."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostate import (
    CompletionMethod,
    GeneratorConfig,
    InconsistentObservationsError,
    InvalidObservationError,
    NotCoveredError,
    ObservationOverflowError,
    ObservationSet,
    Verdict,
    classify_observation_pattern,
    complete,
    complete_from_forest_flows,
    complete_from_heads,
    complete_from_reservoir_heads_and_flows,
    random_connected_wds,
    select_independent_edges,
    solve_reservoir_heads_demands,
)
from hydrostate import completion
from hydrostate.exact import incidence_matrix, integer_rank
from hydrostate.structure import EdgeDecomposition, join_sets
from hydrostate.testkit import GeneratorConfig as Config
from hydrostate.testkit import random_ground_truth_state

from conftest import make_random_networks


def _pattern_from_state(net, state, heads=(), flows=(), demands=()):
    return ObservationSet(
        heads={nid: float(state.heads[net.node_index[nid]]) for nid in heads},
        flows={pid: float(state.flows[net.pipe_index[pid]]) for pid in flows},
        demands={
            cid: float(state.demands[net.consumer_ids.index(cid)]) for cid in demands
        },
    )


class TestClassifier:
    def test_all_heads(self, triangle_net):
        pattern = ObservationSet(heads={"R": 1.0, "c1": 1.0, "c2": 1.0})
        verdict = classify_observation_pattern(triangle_net, pattern)
        assert verdict.verdict is Verdict.DETERMINED_ALL_HEADS

    def test_demand_driven(self, triangle_net):
        pattern = ObservationSet(heads={"R": 100.0}, demands={"c1": 0.5, "c2": 0.5})
        verdict = classify_observation_pattern(triangle_net, pattern)
        assert verdict.verdict is Verdict.DETERMINED_DEMAND_DRIVEN

    def test_forest_flows(self, triangle_net):
        pattern = ObservationSet(heads={"R": 100.0}, flows={"e1": 1.0, "e2": 1.0})
        verdict = classify_observation_pattern(triangle_net, pattern)
        assert verdict.verdict is Verdict.DETERMINED_FOREST_FLOWS
        assert verdict.detail["flow_rank"] == 2
        assert set(verdict.detail["independent_flows"]) == {"e1", "e2"}

    def test_chord_only_flows_rank_deficient(self, triangle_net):
        pattern = ObservationSet(heads={"R": 100.0}, flows={"e3": 1.0})
        verdict = classify_observation_pattern(triangle_net, pattern)
        assert verdict.verdict is Verdict.UNDETERMINED_RANK_DEFICIENT
        assert verdict.detail["flow_rank"] == 1
        assert verdict.detail["required_rank"] == 2

    def test_rank_deficient_explanation_names_the_nodes_without_heads(self, triangle_net):
        pattern = ObservationSet(heads={"R": 100.0, "c1": 99.0})
        verdict = classify_observation_pattern(triangle_net, pattern)
        assert verdict.verdict is Verdict.UNDETERMINED_RANK_DEFICIENT
        assert (verdict.detail["flow_rank"], verdict.detail["required_rank"]) == (0, 1)
        assert verdict.explanation == (
            "the observed flows do not connect every node without an observed head to an "
            "observed head; the remaining state is not determined by the flow route"
        )

    def test_no_reservoir_heads_not_covered(self, triangle_net):
        pattern = ObservationSet(heads={"c1": 99.0}, demands={"c1": 0.5, "c2": 0.5})
        verdict = classify_observation_pattern(triangle_net, pattern)
        assert verdict.verdict is Verdict.NOT_COVERED
        assert verdict.detail["missing_reservoir_heads"] == ["R"]

    def test_values_are_ignored(self, triangle_net):
        # classification is structural: nonsense values classify identically
        sane = ObservationSet(heads={"R": 100.0}, flows={"e1": 1.0, "e2": 1.0})
        wild = ObservationSet(heads={"R": -9e9}, flows={"e1": 123.0, "e2": -456.0})
        assert (
            classify_observation_pattern(triangle_net, sane).verdict
            is classify_observation_pattern(triangle_net, wild).verdict
        )

    def test_unknown_key_rejected(self, triangle_net):
        with pytest.raises(InvalidObservationError):
            classify_observation_pattern(
                triangle_net, ObservationSet(heads={"nope": 1.0})
            )

    def test_full_flows_still_forest_verdict(self, triangle_net):
        # complete flow coverage always passes the rank test, so the
        # value-conditional branch stays dormant
        pattern = ObservationSet(
            heads={"R": 100.0}, flows={"e1": 1.0, "e2": 1.0, "e3": 0.0}
        )
        verdict = classify_observation_pattern(triangle_net, pattern)
        assert verdict.verdict is Verdict.DETERMINED_FOREST_FLOWS


@st.composite
def grounded_patterns(draw):
    """A network with 1-3 reservoirs and parallel pipes, its seeded truth, and observed heads
    (a nonempty set) and flows read from the truth."""
    n_r, n_c = draw(st.integers(1, 3)), draw(st.integers(2, 24))
    seed, truth_seed = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
    net = random_connected_wds(Config(seed, n_r, n_c, draw(st.integers(0, n_r + n_c))))
    truth = random_ground_truth_state(net, truth_seed)

    def subset(ids):
        keep = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
        return [i for i, k in zip(ids, keep) if k]

    heads = subset(net.node_ids) or [draw(st.sampled_from(net.node_ids))]
    return net, truth, _pattern_from_state(net, truth, heads, subset(net.pipe_ids))


class TestGroundedRule:
    """K, the nodes with an observed head of any role, grounds the linear rule."""

    @settings(max_examples=150, deadline=None)
    @given(grounded_patterns())
    def test_matches_the_exact_rank_and_completes_to_the_truth(self, case):
        net, truth, obs = case
        unobserved = [nid for nid in net.node_ids if nid not in obs.heads]
        columns = incidence_matrix(net).restrict(nodes=unobserved, pipes=list(obs.flows))
        determined = integer_rank(columns.entries) == len(unobserved)
        verdict = classify_observation_pattern(net, obs)
        assert verdict.verdict.determined is determined
        if not determined:
            return
        report = complete(net, obs)
        for name in ("heads", "flows", "demands"):
            got, want = getattr(report.state, name), getattr(truth, name)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-8, name
        if verdict.verdict is not Verdict.DETERMINED_FOREST_FLOWS:
            return
        assert verdict.detail["grounded_heads"] == [n for n in net.node_ids if n in obs.heads]
        assert verdict.detail["required_rank"] == len(unobserved)

        # Moving one observed consumer head moves its tree of the forest with it; an
        # observed flow outside the forest with one end in that tree sees the move.
        consumers = [nid for nid in net.consumer_ids if nid in obs.heads]
        if not consumers:
            return
        moved = consumers[len(consumers) // 2]
        forest = set(verdict.detail["independent_flows"])
        parent = list(range(net.n_nodes))
        ends = list(zip(net.tail_indices.tolist(), net.head_indices.tolist()))
        for pid in forest:
            join_sets(parent, *ends[net.pipe_index[pid]])

        def root(i):
            while parent[i] != i:
                i = parent[i]
            return i

        tree = root(net.node_index[moved])
        seen = any(
            (root(a) == tree) != (root(b) == tree)
            for a, b in (ends[net.pipe_index[pid]] for pid in obs.flows if pid not in forest)
        )
        if seen:
            with pytest.raises(InconsistentObservationsError):
                complete(net, _perturbed(obs, "heads", moved))
        else:
            complete(net, _perturbed(obs, "heads", moved))

    def test_an_observed_consumer_head_grounds_the_walk(self):
        # One reservoir, 4 consumers; with J4's head observed, the flows on P2-P4 reach
        # every other node, although they reach only 3 of the 4 consumers from R1.
        net = random_connected_wds(Config(seed=0, n_reservoirs=1, n_consumers=4, extra_edges=1))
        truth = random_ground_truth_state(net, 0)
        obs = _pattern_from_state(net, truth, heads=["J4", "R1"], flows=["P2", "P3", "P4"])
        verdict = classify_observation_pattern(net, obs)
        assert verdict.verdict is Verdict.DETERMINED_FOREST_FLOWS
        assert verdict.detail == {
            "flow_rank": 3, "required_rank": 3, "grounded_heads": ["R1", "J4"],
            "independent_flows": ["P2", "P3", "P4"],
        }
        assert "the observed heads" in verdict.explanation
        report = complete(net, obs)
        assert report.theorem is CompletionMethod.FOREST_FLOWS
        assert np.max(np.abs(report.state.heads - truth.heads)) <= 1e-12
        forced = complete(net, obs, CompletionMethod.FOREST_FLOWS)
        assert np.array_equal(forced.state.heads, report.state.heads)

        # Without P4 the pattern is rank deficient relative to K.
        fewer = _pattern_from_state(net, truth, heads=["J4", "R1"], flows=["P2", "P3"])
        verdict = classify_observation_pattern(net, fewer)
        assert verdict.verdict is Verdict.UNDETERMINED_RANK_DEFICIENT
        assert verdict.detail == {
            "flow_rank": 2, "required_rank": 3, "grounded_heads": ["R1", "J4"],
        }
        with pytest.raises(NotCoveredError) as forced:
            complete(net, fewer, CompletionMethod.FOREST_FLOWS)
        assert (forced.value.detail["flow_rank"], forced.value.detail["required_rank"]) == (2, 3)

    def test_consumer_heads_alone_ground_the_walk(self, triangle_net):
        # No reservoir head: flows that reach R from the observed consumer heads determine it.
        truth = random_ground_truth_state(triangle_net, seed=4)
        obs = _pattern_from_state(triangle_net, truth, heads=["c2", "c1"], flows=["e1"])
        verdict = classify_observation_pattern(triangle_net, obs)
        assert verdict.verdict is Verdict.DETERMINED_FOREST_FLOWS
        assert verdict.detail["grounded_heads"] == ["c1", "c2"]
        report = complete(triangle_net, obs)
        assert np.max(np.abs(report.state.heads - truth.heads)) <= 1e-12

        unreached = _pattern_from_state(triangle_net, truth, heads=["c1"], flows=["e3"])
        verdict = classify_observation_pattern(triangle_net, unreached)
        assert verdict.verdict is Verdict.NOT_COVERED
        assert verdict.detail == {"missing_reservoir_heads": ["R"]}


class TestSoundnessAgainstSolvers:
    def test_determined_verdicts_are_solvable(self):
        for net in make_random_networks(10, seed0=121, max_nodes=20):
            truth = random_ground_truth_state(net, seed=5)

            pattern = _pattern_from_state(net, truth, heads=net.node_ids)
            assert (
                classify_observation_pattern(net, pattern).verdict
                is Verdict.DETERMINED_ALL_HEADS
            )
            report = complete_from_heads(net, pattern.head_vector(net))
            assert report.final_residual.physically_correct(1e-10)

            pattern = _pattern_from_state(
                net, truth, heads=net.reservoir_ids, demands=net.consumer_ids
            )
            assert (
                classify_observation_pattern(net, pattern).verdict
                is Verdict.DETERMINED_DEMAND_DRIVEN
            )
            report = solve_reservoir_heads_demands(
                net, truth.reservoir_heads(net), truth.demands
            )
            assert np.max(np.abs(report.state.heads - truth.heads)) <= 1e-6

    def test_forest_verdict_is_solvable(self):
        for net in make_random_networks(10, seed0=131, max_nodes=20):
            truth = random_ground_truth_state(net, seed=6)
            pattern = _pattern_from_state(net, truth, heads=net.reservoir_ids, flows=net.pipe_ids)
            verdict = classify_observation_pattern(net, pattern)
            assert verdict.verdict is Verdict.DETERMINED_FOREST_FLOWS
            independent = tuple(verdict.detail["independent_flows"])
            chosen = set(independent)
            dec = EdgeDecomposition(
                independent, tuple(p for p in net.pipe_ids if p not in chosen)
            )
            report = complete_from_forest_flows(
                net,
                truth.reservoir_heads(net),
                {pid: pattern.flows[pid] for pid in independent},
                dec,
            )
            assert np.max(np.abs(report.state.heads - truth.heads)) <= 1e-8

    def test_conditional_route_detects_cycle_perturbation(self, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=7)
        q = truth.flows.copy()
        report = complete_from_reservoir_heads_and_flows(
            triangle_net, truth.reservoir_heads(triangle_net), q
        )
        assert report.final_residual.physically_correct(1e-9)
        q[triangle_net.pipe_index["e3"]] += 1e-2
        with pytest.raises(InconsistentObservationsError):
            complete_from_reservoir_heads_and_flows(
                triangle_net, truth.reservoir_heads(triangle_net), q
            )


class TestInformationMonotonicity:
    def test_adding_observations_never_demotes(self):
        rng = np.random.default_rng(23)
        for net in make_random_networks(10, seed0=141, max_nodes=15):
            truth = random_ground_truth_state(net, seed=8)
            base_patterns = [
                _pattern_from_state(net, truth, heads=net.node_ids),
                _pattern_from_state(
                    net, truth, heads=net.reservoir_ids, demands=net.consumer_ids
                ),
                _pattern_from_state(
                    net, truth, heads=net.reservoir_ids, flows=net.pipe_ids
                ),
            ]
            for pattern in base_patterns:
                before = classify_observation_pattern(net, pattern)
                assert before.verdict.determined
                extra_head = net.node_ids[int(rng.integers(0, net.n_nodes))]
                extra_flow = net.pipe_ids[int(rng.integers(0, net.n_pipes))]
                richer = ObservationSet(
                    heads={
                        **pattern.heads,
                        extra_head: float(truth.heads[net.node_index[extra_head]]),
                    },
                    flows={
                        **pattern.flows,
                        extra_flow: float(truth.flows[net.pipe_index[extra_flow]]),
                    },
                    demands=dict(pattern.demands),
                )
                after = classify_observation_pattern(net, richer)
                assert after.verdict.determined


def test_verdict_json_shape(triangle_net):
    pattern = ObservationSet(heads={"R": 100.0}, flows={"e3": 1.0})
    doc = classify_observation_pattern(triangle_net, pattern).to_json_dict()
    assert doc["verdict"] == "undetermined_rank_deficient"
    assert isinstance(doc["explanation"], str)
    assert doc["detail"]["flow_rank"] == 1


def _perturbed(obs, section, key, delta=1e-3):
    sections = {name: dict(getattr(obs, name)) for name in ("heads", "flows", "demands")}
    sections[section][key] += delta
    return ObservationSet(**sections)


class TestComplete:
    def test_every_observation_is_used_or_checked(self):
        # Observations taken from the truth never trip the check; moving any
        # observation the route did not use by 1e-3 always does.
        rng = np.random.default_rng(67)
        for k, net in enumerate(make_random_networks(40, seed0=151, max_nodes=25)):
            truth = random_ground_truth_state(net, seed=k)
            dec = select_independent_edges(net)
            # All but one consumer head and all but one demand, so that no
            # other route applies before the forest and demand-driven ones.
            some = list(rng.permutation(net.consumer_ids)[1:])
            reservoirs = list(net.reservoir_ids)
            consumers, chords = list(net.consumer_ids), list(dec.dependent)
            cases = [
                # (theorem, route taken, heads, flows, demands, left over)
                (None, CompletionMethod.ALL_HEADS, net.node_ids, net.pipe_ids, consumers,
                 [("flows", net.pipe_ids), ("demands", consumers)]),
                (None, CompletionMethod.FOREST_FLOWS, reservoirs + some, net.pipe_ids, some,
                 [("flows", chords), ("heads", some), ("demands", some)]),
                (CompletionMethod.HEADS_AND_FLOWS, CompletionMethod.HEADS_AND_FLOWS,
                 reservoirs + some, net.pipe_ids, consumers, [("heads", some), ("demands", consumers)]),
                (None, CompletionMethod.DEMAND_DRIVEN, reservoirs + some, net.pipe_ids, consumers,
                 [("flows", net.pipe_ids), ("heads", some)]),
            ]
            for theorem, route, heads, flows, demands, left_over in cases:
                obs = _pattern_from_state(net, truth, heads, flows, demands)
                report = complete(net, obs, theorem)
                assert report.theorem is route
                for section, ids in left_over:
                    if not ids:
                        continue
                    key = ids[int(rng.integers(len(ids)))]
                    with pytest.raises(InconsistentObservationsError):
                        complete(net, _perturbed(obs, section, key), theorem)

    def test_forest_route_checks_each_flow_once(self, monkeypatch):
        checked, check = [], completion._check

        def counted(observed, mismatch, reference, tol):
            checked.append((observed, mismatch.size))
            return check(observed, mismatch, reference, tol)

        monkeypatch.setattr(completion, "_check", counted)
        for k, net in enumerate(make_random_networks(10, seed0=161, max_nodes=25)):
            truth = random_ground_truth_state(net, seed=k)
            dec = select_independent_edges(net)
            # The forest route, chosen by the classifier, and the heads-and-flows route.
            for theorem, flows in (
                (CompletionMethod.FOREST_FLOWS, [*dec.independent, *dec.dependent[:2]]),
                (CompletionMethod.HEADS_AND_FLOWS, net.pipe_ids),
            ):
                obs = _pattern_from_state(net, truth, net.reservoir_ids, flows)
                auto = theorem is CompletionMethod.FOREST_FLOWS
                checked.clear()
                assert complete(net, obs, None if auto else theorem).theorem is theorem
                assert [size for what, size in checked if what == "flows"] == [len(flows)]

    def test_overflow_names_the_first_pipe_in_canonical_order(self, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=2)
        heads = _pattern_from_state(triangle_net, truth, triangle_net.node_ids).heads
        obs = ObservationSet(heads=heads, flows={"e3": 1e300, "e2": 1e300})
        with pytest.raises(ObservationOverflowError, match="pipe 'e2' overflows"):
            complete(triangle_net, obs, CompletionMethod.ALL_HEADS)

    def test_validates_the_observations_once(self, monkeypatch, triangle_net):
        calls, validate = [], ObservationSet.validate

        def counted(obs, net):
            calls.append(obs)
            return validate(obs, net)

        monkeypatch.setattr(ObservationSet, "validate", counted)
        truth = random_ground_truth_state(triangle_net, seed=2)
        everything = (triangle_net.node_ids, triangle_net.pipe_ids, triangle_net.consumer_ids)
        obs = _pattern_from_state(triangle_net, truth, *everything)
        for theorem in (None, *CompletionMethod):
            calls.clear()
            assert complete(triangle_net, obs, theorem).theorem is (
                theorem or CompletionMethod.ALL_HEADS
            )
            assert len(calls) == 1
        for theorem in (None, CompletionMethod.ALL_HEADS):
            calls.clear()
            with pytest.raises(InvalidObservationError, match="unknown node 'nope'"):
                complete(triangle_net, ObservationSet(heads={"nope": 1.0}), theorem)
            assert len(calls) == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("section", ["heads", "flows", "demands"])
    def test_every_route_rejects_a_non_finite_observation(self, section, value):
        # A NaN comparison is False, so a check against the completed state
        # cannot catch a NaN that the route did not use: a NaN demand beside all
        # heads used to complete by the all-heads route.
        net = random_connected_wds(GeneratorConfig(seed=3, n_consumers=4, extra_edges=2))
        truth = random_ground_truth_state(net, seed=3)
        some, reservoirs = list(net.consumer_ids[1:]), list(net.reservoir_ids)
        cases = [
            (CompletionMethod.ALL_HEADS, net.node_ids, net.pipe_ids, net.consumer_ids),
            (CompletionMethod.FOREST_FLOWS, reservoirs + some, net.pipe_ids, some),
            (CompletionMethod.HEADS_AND_FLOWS, reservoirs + some, net.pipe_ids, net.consumer_ids),
            (CompletionMethod.DEMAND_DRIVEN, reservoirs + some, net.pipe_ids, net.consumer_ids),
        ]
        for route, heads, flows, demands in cases:
            obs = _pattern_from_state(net, truth, heads, flows, demands)
            assert complete(net, obs, route).theorem is route
            for key in getattr(obs, section):
                bad = ObservationSet(**{**vars(obs), section: {**getattr(obs, section), key: value}})
                where = f"{value!r} at {key!r} in observation section {section!r}"
                for theorem in (None, route):
                    with pytest.raises(InvalidObservationError, match=re.escape(where)):
                        complete(net, bad, theorem)

    def test_theorem_is_a_completion_method_or_its_value(self, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=2)
        obs = _pattern_from_state(triangle_net, truth, heads=triangle_net.node_ids)
        assert complete(triangle_net, obs, "all_heads").theorem is CompletionMethod.ALL_HEADS
        for theorem in ("bogus", Verdict.DETERMINED_ALL_HEADS):
            with pytest.raises(ValueError, match="is not a valid CompletionMethod"):
                complete(triangle_net, obs, theorem)

    def test_not_covered(self, triangle_net):
        obs = ObservationSet(heads={"R": 100.0}, flows={"e3": 0.1})
        with pytest.raises(NotCoveredError) as auto:
            complete(triangle_net, obs)
        assert auto.value.detail == classify_observation_pattern(triangle_net, obs).to_json_dict()
        with pytest.raises(NotCoveredError) as forest:
            complete(triangle_net, obs, CompletionMethod.FOREST_FLOWS)
        assert forest.value.detail["error"] == "rank_deficient_flows"
        assert forest.value.detail["flow_rank"] == 1

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    @pytest.mark.parametrize(
        "theorem",
        [None, CompletionMethod.ALL_HEADS, CompletionMethod.HEADS_AND_FLOWS,
         CompletionMethod.FOREST_FLOWS, CompletionMethod.DEMAND_DRIVEN],
    )
    def test_tolerance_must_be_finite_and_nonnegative(self, triangle_net, theorem, tol):
        net = triangle_net
        truth = random_ground_truth_state(net, seed=2)
        obs = _pattern_from_state(net, truth, net.node_ids, net.pipe_ids, net.consumer_ids)
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            complete(net, obs, theorem, tol)
        assert complete(net, obs, theorem, 1e-6).theorem is (theorem or CompletionMethod.ALL_HEADS)
