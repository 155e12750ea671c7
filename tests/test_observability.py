"""Tests for the observation-pattern classifier."""

import re

import numpy as np
import pytest

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
from hydrostate.structure import EdgeDecomposition
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
