"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Tolerances and sample sizes are pinned here and are not meant
to be tuned.
"""

import time

import numpy as np
import pytest

from hydrostate import (
    InconsistentObservationsError,
    ObservationSet,
    Verdict,
    classify_observation_pattern,
    complete_from_forest_flows,
    complete_from_heads,
    complete_from_reservoir_heads_and_flows,
    incidence_matrix,
    monotonicity_gap,
    select_independent_edges,
    solve_reservoir_heads_demands,
    submatrix_rank,
    symmetric_expansion,
)
from hydrostate import completion
from hydrostate.exact import integer_determinant
from hydrostate.testkit import random_ground_truth_state

from conftest import (
    edge_subset_is_forest, make_random_networks, random_start, undirected_components,
)


def report(criterion: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {criterion} [{status}] {label}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def battery_200():
    """200 random connected networks with 3..40 nodes."""
    return make_random_networks(200, seed0=1000, max_nodes=40)


@pytest.fixture(scope="module")
def battery_100():
    """100 random networks (<= 30 nodes) with their ground-truth states."""
    nets = make_random_networks(100, seed0=2000, max_nodes=30)
    return [(net, random_ground_truth_state(net, seed=i)) for i, net in enumerate(nets)]


def test_criterion_1_rank_theorem(battery_200):
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    checked = 0
    ok = True
    for net in battery_200:
        B = incidence_matrix(net)
        for _ in range(5):
            size = int(rng.integers(1, net.n_nodes))
            subset = tuple(rng.choice(net.node_ids, size=size, replace=False))
            if submatrix_rank(B, subset) != size:
                ok = False
            checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "proper node subsets have full row rank",
        ok and elapsed < 5.0,
        f"{checked} subsets over {len(battery_200)} networks in {elapsed:.2f}s",
    )


def test_criterion_2_forest_decomposition(battery_200):
    ok = True
    for net in battery_200:
        dec = select_independent_edges(net)
        if len(dec.independent) != net.n_consumers:
            ok = False
        if not edge_subset_is_forest(net, dec.independent):
            ok = False
        square = (
            incidence_matrix(net)
            .restrict(nodes=net.consumer_ids, pipes=dec.independent)
            .entries
        )
        if integer_determinant(square) == 0:
            ok = False
        labels = undirected_components(net, dec.independent)
        reservoirs = set(net.reservoir_ids)
        consumers = set(net.consumer_ids)
        members: dict[int, list[str]] = {}
        for idx, label in enumerate(labels):
            members.setdefault(label, []).append(net.node_ids[idx])
        for ids in members.values():
            if any(i in consumers for i in ids):
                if sum(i in reservoirs for i in ids) != 1:
                    ok = False
    report(2, "forest decomposition invariants", ok, f"{len(battery_200)} networks")


def test_criterion_3_strict_monotonicity(battery_200):
    rng = np.random.default_rng(88)
    positive = True
    for _ in range(1000):
        net = battery_200[int(rng.integers(0, len(battery_200)))]
        q1 = rng.uniform(-10.0, 10.0, net.n_pipes)
        q2 = rng.uniform(-10.0, 10.0, net.n_pipes)
        if np.array_equal(q1, q2):
            continue
        if not monotonicity_gap(net, q1, q2) > 0.0:
            positive = False
    zero_ok = True
    for net in battery_200[:20]:
        q = rng.uniform(-10.0, 10.0, net.n_pipes)
        if abs(monotonicity_gap(net, q, q)) > 1e-14:
            zero_ok = False
    report(3, "head-loss operator is strictly monotone", positive and zero_ok, "1000 pairs")


def test_criterion_4_round_trip_oracle(battery_100):
    start = time.perf_counter()
    ok = True
    for net, truth in battery_100:
        # all heads -> flows and demands
        rep_h = complete_from_heads(net, truth.heads)
        if np.max(np.abs(rep_h.state.flows - truth.flows)) > 1e-8:
            ok = False
        if np.max(np.abs(rep_h.state.demands - truth.demands)) > 1e-8:
            ok = False
        if not rep_h.final_residual.physically_correct(1e-10):
            ok = False

        # reservoir heads + all flows -> consumer heads and demands
        rep_f = complete_from_reservoir_heads_and_flows(
            net, truth.reservoir_heads(net), truth.flows
        )
        if np.max(np.abs(rep_f.state.heads - truth.heads)) > 1e-8:
            ok = False
        if np.max(np.abs(rep_f.state.demands - truth.demands)) > 1e-8:
            ok = False
        if not rep_f.final_residual.physically_correct(1e-10):
            ok = False

        # reservoir heads + forest flows -> everything else
        dec = select_independent_edges(net)
        forest_flows = {
            pid: float(truth.flows[net.pipe_index[pid]]) for pid in dec.independent
        }
        rep_t = complete_from_forest_flows(
            net, truth.reservoir_heads(net), forest_flows, dec
        )
        if np.max(np.abs(rep_t.state.heads - truth.heads)) > 1e-8:
            ok = False
        if np.max(np.abs(rep_t.state.flows - truth.flows)) > 1e-8:
            ok = False
        if np.max(np.abs(rep_t.state.demands - truth.demands)) > 1e-8:
            ok = False
        if not rep_t.final_residual.physically_correct(1e-10):
            ok = False
    elapsed = time.perf_counter() - start
    report(
        4,
        "closed-form and linear completions round-trip",
        ok and elapsed < 10.0,
        f"{len(battery_100)} networks in {elapsed:.2f}s",
    )


def test_criterion_5_demand_driven_solver(monkeypatch, battery_100):
    start = time.perf_counter()
    ok = True
    for net, truth in battery_100:
        h_r, d = truth.reservoir_heads(net), truth.demands
        rep = solve_reservoir_heads_demands(net, h_r, d)
        if rep.iterations > 100:
            ok = False
        if not rep.final_residual.physically_correct(1e-8):
            ok = False
        if np.max(np.abs(rep.state.heads - truth.heads)) > 1e-6:
            ok = False
        if np.max(np.abs(rep.state.flows - truth.flows)) > 1e-6:
            ok = False

        # uniqueness witness: five random starts land on the same solution
        solutions = []
        for seed in range(5):
            with monkeypatch.context() as patched:
                patched.setattr(completion, "_initial_point", random_start(seed))
                multi = solve_reservoir_heads_demands(net, h_r, d)
            solutions.append(
                np.concatenate([multi.state.heads, multi.state.flows])
            )
        for other in solutions[1:]:
            if np.max(np.abs(other - solutions[0])) > 1e-6:
                ok = False
    elapsed = time.perf_counter() - start
    report(
        5,
        "demand-driven Newton solves and is unique across starts",
        ok and elapsed < 30.0,
        f"{len(battery_100)} networks x 6 solves in {elapsed:.2f}s",
    )


def test_criterion_6_inconsistency_detection(battery_100):
    cyclic = [
        (net, truth)
        for net, truth in battery_100
        if net.n_pipes > net.n_consumers
    ]
    assert len(cyclic) >= 30
    consistent_ok = True
    detected_ok = True
    for net, truth in cyclic:
        h_r = truth.reservoir_heads(net)
        rep = complete_from_reservoir_heads_and_flows(net, h_r, truth.flows)
        if not rep.final_residual.physically_correct(1e-9):
            consistent_ok = False

        dec = select_independent_edges(net)
        chord = dec.dependent[0]
        q = truth.flows.copy()
        q[net.pipe_index[chord]] += 1e-3
        try:
            complete_from_reservoir_heads_and_flows(net, h_r, q)
            detected_ok = False
        except InconsistentObservationsError:
            pass
    report(
        6,
        "chord perturbations are detected, consistent data passes",
        consistent_ok and detected_ok,
        f"{len(cyclic)} cyclic networks",
    )


def test_criterion_7_analytic_micro_networks(single_pipe_net, path_net):
    # 50-digit references: 0.5**1.852 = 0.27700808696623150
    single = solve_reservoir_heads_demands(
        single_pipe_net, np.array([100.0]), np.array([0.5])
    )
    single_ok = (
        abs(single.state.consumer_heads(single_pipe_net)[0] - 99.44598382606754) <= 1e-9
    )

    series = solve_reservoir_heads_demands(
        path_net, np.array([100.0]), np.array([0.5, 0.5])
    )
    series_heads_ok = np.max(
        np.abs(series.state.heads - np.array([100.0, 99.0, 98.72299191303377]))
    ) <= 1e-9
    series_flows_ok = np.max(np.abs(series.state.flows - np.array([1.0, 0.5]))) <= 1e-9
    report(
        7,
        "analytic micro-networks match high-precision references",
        single_ok and series_heads_ok and series_flows_ok,
    )


def test_criterion_8_symmetric_form_equivalence(battery_100):
    ok = True
    for net, truth in battery_100[:50]:
        B_sym, q_sym = symmetric_expansion(net, truth.flows)
        n_p = net.n_pipes
        if not np.array_equal(q_sym[n_p:], -q_sym[:n_p]):
            ok = False
        consumer_rows = [net.node_index[c] for c in net.consumer_ids]
        lhs = B_sym[consumer_rows] @ q_sym
        if np.max(np.abs(lhs + 2.0 * truth.demands)) > 1e-12:
            ok = False
    report(8, "doubled-edge representation reproduces the mass form", ok, "50 states")


def test_criterion_9_classifier_soundness(battery_100):
    ok = True
    for net, truth in battery_100[:50]:
        h_r = truth.reservoir_heads(net)

        all_heads = ObservationSet(
            heads={nid: float(truth.heads[i]) for i, nid in enumerate(net.node_ids)}
        )
        v = classify_observation_pattern(net, all_heads)
        if v.verdict is not Verdict.DETERMINED_ALL_HEADS:
            ok = False
        rep = complete_from_heads(net, truth.heads)
        if not rep.final_residual.physically_correct(1e-10):
            ok = False

        demand_driven = ObservationSet(
            heads={nid: float(truth.heads[net.node_index[nid]]) for nid in net.reservoir_ids},
            demands={cid: float(truth.demands[i]) for i, cid in enumerate(net.consumer_ids)},
        )
        v = classify_observation_pattern(net, demand_driven)
        if v.verdict is not Verdict.DETERMINED_DEMAND_DRIVEN:
            ok = False
        rep = solve_reservoir_heads_demands(net, h_r, truth.demands)
        if not rep.final_residual.physically_correct(1e-8):
            ok = False

        dec = select_independent_edges(net)
        forest_pattern = ObservationSet(
            heads={nid: float(truth.heads[net.node_index[nid]]) for nid in net.reservoir_ids},
            flows={pid: float(truth.flows[net.pipe_index[pid]]) for pid in dec.independent},
        )
        v = classify_observation_pattern(net, forest_pattern)
        if v.verdict is not Verdict.DETERMINED_FOREST_FLOWS:
            ok = False
        rep = complete_from_forest_flows(
            net, h_r, {pid: forest_pattern.flows[pid] for pid in dec.independent}, dec
        )
        if not rep.final_residual.physically_correct(1e-10):
            ok = False

        # deliberately deficient: drop one forest edge, keep only chords plus rest
        deficient_ids = dec.independent[:-1]
        deficient = ObservationSet(
            heads={nid: float(truth.heads[net.node_index[nid]]) for nid in net.reservoir_ids},
            flows={pid: float(truth.flows[net.pipe_index[pid]]) for pid in deficient_ids},
        )
        v = classify_observation_pattern(net, deficient)
        if v.verdict is not Verdict.UNDETERMINED_RANK_DEFICIENT:
            ok = False
        elif not v.detail["flow_rank"] < net.n_consumers:
            ok = False
    report(9, "classifier verdicts agree with the solvers", ok, "50 networks")
