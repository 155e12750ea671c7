"""Tests for ranks, forest/chord decomposition, tree walk, cycle space and image membership.

Image membership of a pipe-space target ``t`` is tested through
:func:`complete_from_reservoir_heads_and_flows`: the flows whose head losses are
``t + Br^T h_r`` complete exactly when ``t`` lies in the image of ``Bc^T``.
"""

import dataclasses
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostate import (
    CompletionMethod,
    DecompositionMismatchError,
    EdgeDecomposition,
    EmptySubsetError,
    GeneratorConfig,
    InconsistentObservationsError,
    ObservationSet,
    PipeParams,
    UnknownNodeError,
    build_network,
    complete,
    complete_from_forest_flows,
    complete_from_reservoir_heads_and_flows,
    cycle_space_basis,
    incidence_matrix,
    invert_head_loss,
    network_from_json_dict,
    network_to_json_dict,
    params_for_resistance,
    random_connected_wds,
    select_independent_edges,
    submatrix_rank,
)
from hydrostate import structure
from hydrostate.completion import DEFAULT_IMAGE_TOL
from hydrostate.exact import integer_determinant, integer_rank
from hydrostate.structure import (
    greedy_independent_columns,
    orient_forest,
    pipe_positions,
    walk_heads,
)
from hydrostate.testkit import MAX_PARALLEL_PIPES, random_ground_truth_state

from conftest import (
    edge_subset_is_forest,
    looped_grid,
    make_random_networks,
    undirected_components,
)


class TestSubmatrixRank:
    def test_path_consumer_rows(self, path_net):
        B = incidence_matrix(path_net)
        assert submatrix_rank(B, ("c1", "c2")) == 2

    def test_single_node(self, triangle_net):
        B = incidence_matrix(triangle_net)
        assert submatrix_rank(B, ("c1",)) == 1

    def test_triangle_consumer_rows(self, triangle_net):
        B = incidence_matrix(triangle_net)
        assert submatrix_rank(B, ("c1", "c2")) == 2

    def test_empty_subset(self, triangle_net):
        B = incidence_matrix(triangle_net)
        with pytest.raises(EmptySubsetError):
            submatrix_rank(B, ())

    def test_unknown_node(self, triangle_net):
        B = incidence_matrix(triangle_net)
        with pytest.raises(UnknownNodeError):
            submatrix_rank(B, ("nope",))

    def test_all_nodes_reports_full_rank(self, triangle_net):
        B = incidence_matrix(triangle_net)
        assert submatrix_rank(B, ("R", "c1", "c2")) == 2

    def test_random_proper_subsets_have_full_rank(self):
        rng = np.random.default_rng(11)
        for net in make_random_networks(30, seed0=11):
            B = incidence_matrix(net)
            for _ in range(3):
                size = int(rng.integers(1, net.n_nodes))
                subset = rng.choice(net.node_ids, size=size, replace=False)
                assert submatrix_rank(B, tuple(subset)) == size


class TestIntegerElimination:
    def test_rank_matches_numpy_on_incidence_matrices(self):
        for net in make_random_networks(15, seed0=21):
            entries = incidence_matrix(net).entries
            assert integer_rank(entries) == np.linalg.matrix_rank(entries.astype(float))

    def test_determinant_of_unimodular_selection(self, triangle_net):
        B = incidence_matrix(triangle_net)
        square = B.restrict(nodes=("c1", "c2"), pipes=("e1", "e2")).entries
        assert integer_determinant(square) in (-1, 1)

    def test_determinant_zero_for_dependent_columns(self, parallel_triangle_net):
        B = incidence_matrix(parallel_triangle_net)
        square = B.restrict(nodes=("c1", "c2"), pipes=("e1", "e1p")).entries
        assert integer_determinant(square) == 0

    def test_determinant_matches_numpy_with_its_sign(self):
        # Square consumer-row submatrices on random spanning forests (determinant
        # +-1) and on any pipe sets, with the rows in random order.
        rng = np.random.default_rng(41)
        found = []
        for net in make_random_networks(60, seed0=43, max_nodes=14):
            B_vc = incidence_matrix(net).restrict(nodes=net.consumer_ids)
            for forest in (True, True, False, False):
                if forest:
                    kept = structure.grounded_forest(net, rng.permutation(net.n_pipes).tolist())
                    pipes = [net.pipe_ids[j] for j in kept]
                else:
                    pipes = list(rng.choice(net.pipe_ids, net.n_consumers, replace=False))
                square = B_vc.restrict(nodes=list(rng.permutation(net.consumer_ids)), pipes=pipes)
                det = integer_determinant(square.entries)
                assert det == round(np.linalg.det(square.entries.astype(float)))
                assert det != 0 or not forest
                found.append(det)
        assert len(found) >= 200 and set(found) == {-1, 0, 1}

    def test_empty_matrix(self):
        empty = np.zeros((0, 0), dtype=np.int64)
        assert integer_determinant(empty) == 1
        assert integer_rank(empty) == 0
        with pytest.raises(ValueError, match="square"):
            integer_determinant(np.zeros((2, 3), dtype=np.int64))


class TestSelectIndependentEdges:
    def test_triangle_greedy_choice(self, triangle_net):
        dec = select_independent_edges(triangle_net)
        assert dec.independent == ("e1", "e2")
        assert dec.dependent == ("e3",)

    def test_tree_keeps_all_edges(self, path_net):
        dec = select_independent_edges(path_net)
        assert dec.independent == ("e1", "e2")
        assert dec.dependent == ()

    def test_parallel_pipe_lands_in_dependent(self, parallel_triangle_net):
        dec = select_independent_edges(parallel_triangle_net)
        assert "e1p" in dec.dependent
        assert "e1" in dec.independent

    def test_decomposition_invariants_on_random_networks(self):
        for net in make_random_networks(30, seed0=31):
            dec = select_independent_edges(net)
            assert len(dec.independent) == net.n_consumers
            assert set(dec.independent) | set(dec.dependent) == set(net.pipe_ids)
            assert not set(dec.independent) & set(dec.dependent)
            assert edge_subset_is_forest(net, dec.independent)

            B = incidence_matrix(net)
            square = B.restrict(nodes=net.consumer_ids, pipes=dec.independent).entries
            assert integer_determinant(square) != 0

            # each forest component holding a consumer holds exactly one reservoir
            labels = undirected_components(net, dec.independent)
            reservoirs = set(net.reservoir_ids)
            consumers = set(net.consumer_ids)
            per_component: dict[int, list[int]] = {}
            for idx, label in enumerate(labels):
                per_component.setdefault(label, []).append(idx)
            for members in per_component.values():
                ids = [net.node_ids[i] for i in members]
                if any(i in consumers for i in ids):
                    assert sum(i in reservoirs for i in ids) == 1


class TestCycleSpaceBasis:
    def test_triangle_fundamental_cycle(self, triangle_net):
        basis = cycle_space_basis(triangle_net)
        assert basis.dimension == 1
        assert basis.vectors[0].tolist() == [1, -1, 1]

    def test_tree_has_empty_basis(self, path_net):
        basis = cycle_space_basis(path_net)
        assert basis.dimension == 0

    def test_two_triangles_sharing_reservoir(self):
        r = params_for_resistance(1.0)
        net = build_network(
            [("R", "reservoir")] + [(f"c{i}", "consumer") for i in range(1, 5)],
            [
                ("a1", "R", "c1", r),
                ("a2", "R", "c2", r),
                ("a3", "c1", "c2", r),
                ("b1", "R", "c3", r),
                ("b2", "R", "c4", r),
                ("b3", "c3", "c4", r),
            ],
        )
        basis = cycle_space_basis(net)
        assert basis.dimension == 2
        supports = [set(np.nonzero(v)[0]) for v in basis.vectors]
        triangle_a = {net.pipe_index[p] for p in ("a1", "a2", "a3")}
        triangle_b = {net.pipe_index[p] for p in ("b1", "b2", "b3")}
        assert any(s <= triangle_a for s in supports)
        assert any(s <= triangle_b for s in supports)

    def test_kernel_property_exact_on_random_networks(self):
        for net in make_random_networks(25, seed0=41):
            basis = cycle_space_basis(net)
            assert basis.dimension == net.n_pipes - net.n_consumers
            B_vc = incidence_matrix(net).restrict(nodes=net.consumer_ids).entries
            for v in basis.vectors:
                assert v.dtype.kind == "i"
                assert not np.any(B_vc @ v)
            # One kernel vector per chord with 1 on it and 0 on every other chord:
            # that pins the fundamental cycles down uniquely.
            chords = [net.pipe_index[pid] for pid in basis.decomposition.dependent]
            on_chords = np.array(basis.vectors).reshape(-1, net.n_pipes)[:, chords]
            assert np.array_equal(on_chords, np.eye(len(chords)))

    @pytest.mark.parametrize(
        "split, error",
        [
            (lambda f, c: ((c[0],) + f[1:], (f[0],) + c[1:]), DecompositionMismatchError),
            (lambda f, c: (f[:-1], c), DecompositionMismatchError),
            (lambda f, c: (f, c + c[:1]), DecompositionMismatchError),
            (lambda f, c: (f, c + f[:1]), DecompositionMismatchError),
            (lambda f, c: (f, c[:-1] + ("nope",)), UnknownNodeError),
        ],
        ids=["forest_swapped_with_chord", "forest_pipe_dropped", "chord_twice",
             "forest_pipe_as_chord", "unknown_chord"],
    )
    def test_rejects_a_split_that_is_not_a_spanning_forest(self, split, error):
        # A swap once ended in a bare StopIteration of the rational solve, a
        # dropped forest pipe in an IndexError.
        net = random_connected_wds(GeneratorConfig(seed=3, n_consumers=5, extra_edges=3))
        dec = select_independent_edges(net)
        with pytest.raises(error):
            cycle_space_basis(net, EdgeDecomposition(*split(dec.independent, dec.dependent)))

    def test_any_spanning_forest_gives_a_basis(self):
        net = random_connected_wds(GeneratorConfig(seed=3, n_consumers=5, extra_edges=3))
        dec = select_independent_edges(net)
        # Swapping a chord with a forest pipe on its cycle keeps a spanning forest.
        cycle = cycle_space_basis(net, dec).vectors[0]
        out = next(p for p in dec.independent if cycle[net.pipe_index[p]])
        forest = tuple(dec.dependent[0] if p == out else p for p in dec.independent)
        chords = (out,) + dec.dependent[1:]
        basis = cycle_space_basis(net, EdgeDecomposition(forest, chords))
        B_vc = incidence_matrix(net).restrict(nodes=net.consumer_ids).entries
        assert basis.dimension == len(chords) and not np.any(B_vc @ np.array(basis.vectors).T)


def complete_to_target(net, target, reservoir_heads=None):
    """The heads-and-flows completion from ``reservoir_heads`` (default 0) and the flows whose
    head losses are ``target + Br^T h_r``; it raises unless ``target`` is in the image of Bc^T."""
    h_r = np.zeros(net.n_reservoirs) if reservoir_heads is None else reservoir_heads
    h = np.zeros(net.n_nodes)
    h[net.reservoir_indices] = h_r
    loss = target + h[net.tail_indices] - h[net.head_indices]
    q = invert_head_loss(loss, net.resistances)
    return complete_from_reservoir_heads_and_flows(net, h_r, q)


@pytest.mark.filterwarnings("ignore:completion produced negative consumer heads")
class TestImageMembership:
    def test_tree_is_always_member(self, path_net):
        rng = np.random.default_rng(5)
        for _ in range(10):
            target = rng.normal(size=path_net.n_pipes)
            report = complete_to_target(path_net, target, np.array([100.0]))
            assert report.final_residual.energy_inf_norm <= 1e-9

    def test_triangle_incompatible_target(self, triangle_net):
        with pytest.raises(InconsistentObservationsError) as info:
            complete_to_target(triangle_net, np.array([1.0, -1.0, 1.0]))
        assert info.value.residual > 1e-3

    def test_triangle_forward_constructed_target(self, triangle_net):
        target = np.array([-5.0, -3.0, 2.0])  # B_consumers^T @ (5, 3)
        report = complete_to_target(triangle_net, target)
        assert report.state.consumer_heads(triangle_net) == pytest.approx([5.0, 3.0], abs=1e-12)
        assert report.final_residual.energy_inf_norm <= 1e-12

    def test_recovers_heads_on_random_networks(self):
        rng = np.random.default_rng(17)
        for net in make_random_networks(20, seed0=51):
            B_vc = incidence_matrix(net).restrict(nodes=net.consumer_ids).entries.astype(float)
            h = rng.uniform(-100.0, 100.0, net.n_consumers)
            h_r = rng.uniform(50.0, 150.0, net.n_reservoirs)
            report = complete_to_target(net, B_vc.T @ h, h_r)
            assert np.max(np.abs(report.state.consumer_heads(net) - h)) <= 1e-10
            assert np.array_equal(report.state.reservoir_heads(net), h_r)


class TestPatternHelpers:
    def test_greedy_size_is_rank(self, triangle_net):
        assert len(greedy_independent_columns(triangle_net, ("e1", "e2"))) == 2
        assert len(greedy_independent_columns(triangle_net, ("e3",))) == 1
        assert len(greedy_independent_columns(triangle_net, ())) == 0

    def test_greedy_restricted_to_candidates(self, triangle_net):
        assert greedy_independent_columns(triangle_net, ("e2", "e3")) == ("e2", "e3")
        assert greedy_independent_columns(triangle_net, ("e3",)) == ("e3",)


# --- the union-find forest scan against the exact-rank oracle -----------------


def rank_greedy_oracle(net, candidates):
    """Greedy scan by exact rank: keep a pipe when it raises the integer rank.

    The consumer-row columns are re-eliminated for every candidate, O(n^4)
    overall; the union-find scan must keep exactly the same pipes.
    """
    B_vc = incidence_matrix(net).restrict(nodes=net.consumer_ids)
    candidate_set = set(candidates)
    chosen: list[str] = []
    rank = 0
    for pid in (p for p in net.pipe_ids if p in candidate_set):
        trial_rank = integer_rank(B_vc.restrict(pipes=chosen + [pid]).entries)
        if trial_rank > rank:
            chosen.append(pid)
            rank = trial_rank
            if rank == net.n_consumers:
                break
    return tuple(chosen)


@st.composite
def shuffled_networks(draw):
    """Random networks with 1-3 reservoirs, parallel and reservoir-reservoir pipes.

    The generator lists its spanning-tree pipes first; the pipes are rebuilt
    in a random order so that the canonical scan order is arbitrary too.
    """
    n_reservoirs, n_consumers = draw(st.integers(1, 3)), draw(st.integers(1, 30))
    n = n_reservoirs + n_consumers
    capacity = MAX_PARALLEL_PIPES * (n * (n - 1) // 2) - (n - 1)
    extra = draw(st.integers(0, min(2 * n, capacity)))
    seed = draw(st.integers(0, 2**32 - 1))
    net = random_connected_wds(GeneratorConfig(seed, n_reservoirs, n_consumers, extra))
    order = draw(st.permutations(range(net.n_pipes)))
    ids = net.node_ids
    params = map(PipeParams, net.lengths.tolist(), net.diameters.tolist(), net.roughnesses.tolist())
    ends = ([ids[i] for i in e.tolist()] for e in (net.tail_indices, net.head_indices))
    spec = list(zip(net.pipe_ids, *ends, params))
    return build_network(list(zip(ids, net.roles)), [spec[k] for k in order])


class TestForestScan:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_integer_rank_oracle(self, data):
        net = data.draw(shuffled_networks())
        # Random subsets in random order, with repeated ids.
        candidates = data.draw(st.lists(st.sampled_from(net.pipe_ids), max_size=2 * net.n_pipes))
        assert greedy_independent_columns(net, candidates) == rank_greedy_oracle(net, candidates)
        B_vc = incidence_matrix(net).restrict(nodes=net.consumer_ids)
        assert len(greedy_independent_columns(net, candidates)) == integer_rank(
            B_vc.restrict(pipes=candidates).entries
        )
        independent = rank_greedy_oracle(net, net.pipe_ids)
        dependent = tuple(pid for pid in net.pipe_ids if pid not in independent)
        assert select_independent_edges(net) == EdgeDecomposition(independent, dependent)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_canonical_forest_shortcut(self, data):
        # Once the grounded tree is built, candidates that hold its forest give that forest
        # without a scan; before, and for a set lacking one forest pipe, they are scanned.
        net = data.draw(shuffled_networks())

        def scan(candidates):
            positions = sorted(pipe_positions(net, set(candidates)))
            return tuple(net.pipe_ids[j] for j in structure.grounded_forest(net, positions))

        forest = scan(net.pipe_ids)
        chords = [pid for pid in net.pipe_ids if pid not in forest]
        drawn = st.lists(st.sampled_from(chords), unique=True) if chords else st.just([])
        surplus = data.draw(st.permutations(forest + tuple(data.draw(drawn))))
        dropped = data.draw(st.sampled_from(forest))
        lacking = [pid for pid in surplus if pid != dropped]
        scanned = scan(lacking)

        wrapped = mock.patch.object(structure, "grounded_forest", wraps=structure.grounded_forest)
        with wrapped as scans:
            assert greedy_independent_columns(net, surplus) == forest
            assert scans.call_count == 1 and "grounded_tree" not in vars(net)
            assert net.grounded_tree.forest == forest
            assert scans.call_count == 2  # building the tree is one scan
            assert greedy_independent_columns(net, surplus) == forest
            assert scans.call_count == 2
            assert greedy_independent_columns(net, lacking) == scanned
            assert scans.call_count == 3

    def test_reservoir_pipe_is_always_dependent(self):
        r = params_for_resistance(1.0)
        net = build_network(
            [("R1", "reservoir"), ("R2", "reservoir"), ("c1", "consumer")],
            [("rr", "R1", "R2", r), ("a", "R1", "c1", r), ("b", "c1", "R2", r)],
        )
        assert select_independent_edges(net) == EdgeDecomposition(("a",), ("rr", "b"))
        assert greedy_independent_columns(net, ("rr",)) == ()
        assert greedy_independent_columns(net, ("b", "rr")) == ("b",)

    def test_pipe_parallel_to_forest_pipe(self, parallel_triangle_net):
        net = parallel_triangle_net
        assert select_independent_edges(net) == EdgeDecomposition(("e1", "e2"), ("e1p", "e3"))
        assert greedy_independent_columns(net, ("e1p", "e1")) == ("e1",)
        assert greedy_independent_columns(net, ("e3", "e1p")) == ("e1p", "e3")
        assert greedy_independent_columns(net, ("e1p", "e1", "e3")) == ("e1", "e3")

    def test_empty_candidate_set(self, triangle_net):
        assert greedy_independent_columns(triangle_net, ()) == ()

    @pytest.mark.parametrize(
        "candidates", [("nope",), ("e1", "nope", "e2"), ("e1", "e2", "e3", "nope")]
    )
    def test_unknown_pipe_id(self, triangle_net, candidates):
        with pytest.raises(UnknownNodeError, match="nope"):
            greedy_independent_columns(triangle_net, candidates)


def test_spanning_forest_of_a_large_grid():
    # 10^4 consumers, far beyond what the exact-rank scan can reach.
    net = looped_grid(100, 100, seed=1)
    dec = select_independent_edges(net)
    assert len(dec.independent) == net.n_consumers
    # Independent check: n_c pipes that connect every consumer to the grounded
    # reservoirs form a spanning tree of the grounded graph (n_c + 1 nodes).
    neighbours: list[list[int]] = [[] for _ in range(net.n_nodes)]
    for pid in dec.independent:
        j = net.pipe_index[pid]
        tail, head = int(net.tail_indices[j]), int(net.head_indices[j])
        neighbours[tail].append(head)
        neighbours[head].append(tail)
    reached = set(net.reservoir_indices.tolist())
    queue = deque(reached)
    while queue:
        for k in neighbours[queue.popleft()]:
            if k not in reached:
                reached.add(k)
                queue.append(k)
    assert reached >= set(net.consumer_indices.tolist())


# --- the tree walk against the dense linear algebra it replaces ---------------


def dense_forest_heads(net, forest, reservoir_heads, loss):
    """Oracle: consumer heads from the energy law on the forest pipes, one dense square solve."""
    B = incidence_matrix(net)
    Bc = B.restrict(nodes=net.consumer_ids, pipes=forest).entries.astype(float)
    Br = B.restrict(nodes=net.reservoir_ids, pipes=forest).entries.astype(float)
    cols = [net.pipe_index[pid] for pid in forest]
    return np.linalg.solve(Bc.T, loss[cols] - Br.T @ reservoir_heads)


def lstsq_membership(net, target, tol=DEFAULT_IMAGE_TOL):
    """Oracle membership test: dense least squares of ``B_consumers^T h = target``.

    Returns ``(member, consumer heads)``, deciding on the relative infinity-norm
    residual as :func:`complete_from_reservoir_heads_and_flows` does.
    """
    A = incidence_matrix(net).restrict(nodes=net.consumer_ids).entries.T.astype(float)
    heads, *_ = np.linalg.lstsq(A, target, rcond=None)
    residual = float(np.max(np.abs(A @ heads - target), initial=0.0))
    scale = max(1.0, float(np.max(np.abs(target), initial=0.0)))
    return residual / scale <= tol, heads


def assert_close(actual, expected, rtol):
    assert np.max(np.abs(actual - expected), initial=0.0) <= rtol * max(
        1.0, float(np.max(np.abs(expected), initial=0.0))
    )


def scanned_forest(net, pipe_ids):
    """The pipes of ``pipe_ids`` that join two grounded components, in the order given."""
    positions = structure.grounded_forest(net, pipe_positions(net, pipe_ids))
    return tuple(net.pipe_ids[j] for j in positions)


def per_step_orientation(net, positions, grounded):
    """Oracle: the breadth-first orientation as ``(child, parent, pipe, sign)`` steps, in order."""
    queue = list(grounded)
    tails, ends = net.tail_indices.tolist(), net.head_indices.tolist()
    incident = [[] for _ in range(net.n_nodes)]
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
    return steps


def per_step_heads(steps, heads, loss):
    """Oracle: the walk one step at a time, in Python floats."""
    h, loss = np.asarray(heads, dtype=float).tolist(), np.asarray(loss, dtype=float).tolist()
    for child, parent, pipe, sign in steps:
        h[child] = h[parent] - sign * loss[pipe]
    return np.array(h)


class TestTreeWalk:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_level_walk_matches_the_per_step_walk(self, data):
        # K is any nonempty node set, of any role, and the forest its greedy scan keeps.
        net = data.draw(shuffled_networks())
        grounded = sorted(data.draw(st.sets(st.integers(0, net.n_nodes - 1), min_size=1)))
        forest = greedy_independent_columns(net, net.pipe_ids, grounded)
        walk = orient_forest(net, pipe_positions(net, forest), grounded)
        steps = per_step_orientation(net, pipe_positions(net, forest), grounded)
        assert walk.steps.T.tolist() == [list(step) for step in steps]

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        heads = np.zeros(net.n_nodes)
        heads[grounded] = rng.uniform(-50.0, 150.0, len(grounded))
        loss = rng.uniform(-10.0, 10.0, net.n_pipes)
        assert np.array_equal(walk_heads(walk, heads, loss), per_step_heads(steps, heads, loss))

        # Each level's parents are grounded or children of an earlier level.
        known, levels = set(grounded), walk.levels
        assert levels[0] == 0 and levels[-1] == len(steps)
        for a, b in zip(levels, levels[1:]):
            assert a < b
            assert known.issuperset(walk.steps[1, a:b].tolist())
            assert known.isdisjoint(walk.steps[0, a:b].tolist())
            known.update(walk.steps[0, a:b].tolist())
        assert known == set(range(net.n_nodes))

    @pytest.mark.filterwarnings("ignore:completion produced negative consumer heads")
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracles(self, data):
        net = data.draw(shuffled_networks())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        h_r = rng.uniform(50.0, 150.0, net.n_reservoirs)
        h0 = np.zeros(net.n_nodes)
        h0[net.reservoir_indices] = h_r

        # Heads along a forest found by scanning the pipes in a random order.
        forest = scanned_forest(net, data.draw(st.permutations(net.pipe_ids)))
        loss = rng.uniform(-10.0, 10.0, net.n_pipes)
        walk = orient_forest(net, pipe_positions(net, forest), net.reservoir_indices)
        walked = walk_heads(walk, h0, loss)
        assert np.array_equal(walked[net.reservoir_indices], h_r)
        assert_close(walked[net.consumer_indices], dense_forest_heads(net, forest, h_r, loss), 1e-9)

        # Membership of a consistent target, and of one with a chord perturbed.
        A = incidence_matrix(net).restrict(nodes=net.consumer_ids).entries.T.astype(float)
        h_c = rng.uniform(-100.0, 100.0, net.n_consumers)
        target = A @ h_c
        report = complete_to_target(net, target, h_r)
        member, oracle_heads = lstsq_membership(net, target)
        assert member
        assert_close(report.state.consumer_heads(net), oracle_heads, 1e-9)
        chords = select_independent_edges(net).dependent
        if chords:
            chord = chords[data.draw(st.integers(0, len(chords) - 1))]
            target[net.pipe_index[chord]] += 1e-3
            assert not lstsq_membership(net, target)[0]
            with pytest.raises(InconsistentObservationsError):
                complete_to_target(net, target, h_r)

    def test_orientation_and_order(self, path_net):
        # R -> c1 -> c2 along the canonical orientation; c1 is reached first.
        walk = path_net.grounded_tree.walk
        assert walk.steps.tolist() == [[1, 2], [0, 1], [0, 1], [1, 1]]
        assert walk.levels == (0, 1, 2) and walk.child.tolist() == [1, 2]
        heads = walk_heads(walk, np.array([100.0, 0.0, 0.0]), np.array([1.0, 0.5]))
        assert heads.tolist() == [100.0, 99.0, 98.5]

    def test_empty_forest_with_every_node_grounded(self, triangle_net):
        walk = orient_forest(triangle_net, (), range(triangle_net.n_nodes))
        assert walk.steps.shape == (4, 0) and walk.levels == (0,)
        heads = np.array([3.0, 2.0, 1.0])
        assert walk_heads(walk, heads, np.zeros(3)).tolist() == heads.tolist()

    @pytest.mark.parametrize(
        "forest",
        [("e1", "e1p"), ("e1",), ("e1", "e2", "e3"), ()],
        ids=["cycle", "short", "long", "empty"],
    )
    def test_not_a_spanning_forest(self, parallel_triangle_net, forest):
        with pytest.raises(DecompositionMismatchError):
            positions = pipe_positions(parallel_triangle_net, forest)
            orient_forest(parallel_triangle_net, positions, parallel_triangle_net.reservoir_indices)

    def test_unknown_pipe_id(self, triangle_net):
        # Pipe ids reach the orientation as positions, and the conversion names an unknown id.
        with pytest.raises(UnknownNodeError, match="unknown pipe id: 'nope'"):
            orient_forest(triangle_net, pipe_positions(triangle_net, ("nope",)), [0])


# --- the grounded tree, oriented once per network -----------------------------


def assert_valid_orientation(net, forest, grounded, walk):
    """Every step reaches a new node from a reached one through a forest pipe, with its sign."""
    reached = set(grounded)
    forest_positions = {net.pipe_index[pid] for pid in forest}
    steps = walk.steps.T.tolist()
    for child, parent, pipe, sign in steps:
        assert parent in reached and child not in reached and pipe in forest_positions
        tail, head = int(net.tail_indices[pipe]), int(net.head_indices[pipe])
        assert (tail, head) == ((parent, child) if sign == 1 else (child, parent))
        reached.add(child)
    assert len(steps) == len(forest) and reached == set(range(net.n_nodes))
    assert walk.steps.dtype == np.intp and not walk.steps.flags.writeable


def assert_same_walk(walk, other):
    assert np.array_equal(walk.steps, other.steps) and walk.levels == other.levels


class TestGroundedTree:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cache_matches_fresh_orientation(self, data):
        net = data.draw(shuffled_networks())
        tree = net.grounded_tree
        reservoirs = net.reservoir_indices.tolist()
        canonical = scanned_forest(net, net.pipe_ids)
        assert tree.forest == canonical
        chords = select_independent_edges(net).dependent
        assert chords == tuple(pid for pid in net.pipe_ids if pid not in canonical)
        positions = pipe_positions(net, canonical)
        assert np.sort(tree.walk.steps[2]).tolist() == positions
        assert_same_walk(tree.walk, structure._breadth_first(net, positions, reservoirs))
        assert_valid_orientation(net, canonical, reservoirs, tree.walk)
        assert select_independent_edges(net) == EdgeDecomposition(tree.forest, chords)

        # The canonical positions from the reservoirs, however passed, read the cache.
        for given_positions in (positions, tuple(positions), np.array(positions)):
            assert orient_forest(net, given_positions, reservoirs) is tree.walk
            assert orient_forest(net, given_positions, net.reservoir_indices) is tree.walk

        # A forest from a permuted scan, or another grounded order, is walked afresh.
        permuted = scanned_forest(net, data.draw(st.permutations(net.pipe_ids)))
        moved = pipe_positions(net, permuted)
        walked = orient_forest(net, moved, reservoirs)
        assert_same_walk(walked, structure._breadth_first(net, moved, reservoirs))
        assert_valid_orientation(net, permuted, reservoirs, walked)
        if permuted != canonical:
            assert walked is not tree.walk
        order = data.draw(st.permutations(reservoirs))
        regrounded = orient_forest(net, positions, order)
        assert_valid_orientation(net, canonical, order, regrounded)
        assert (regrounded is tree.walk) == (order == reservoirs)

        # A forest that does not span the grounded graph still raises.
        with pytest.raises(DecompositionMismatchError):
            orient_forest(net, pipe_positions(net, permuted[1:]), reservoirs)
        if chords:
            with pytest.raises(DecompositionMismatchError):
                orient_forest(net, pipe_positions(net, permuted + chords[:1]), reservoirs)

    def test_holds_only_the_forest_and_its_walk(self, parallel_triangle_net):
        tree = parallel_triangle_net.grounded_tree
        assert [f.name for f in dataclasses.fields(tree)] == ["forest", "walk"]

    @pytest.fixture
    def counts(self, monkeypatch):
        """Count the union-find scans and the breadth-first passes, wherever they are run from."""
        calls = {"scan": 0, "orient": 0}

        def counted(kind, fn):
            def wrapper(*args):
                calls[kind] += 1
                return fn(*args)
            return wrapper

        for kind, name in (("scan", "grounded_forest"), ("orient", "_breadth_first")):
            monkeypatch.setattr(structure, name, counted(kind, getattr(structure, name)))
        return calls

    def test_second_linear_solve_runs_no_scan(self, counts):
        net = looped_grid(6, 7, seed=3)
        truth = random_ground_truth_state(net, seed=8)
        h_r = truth.reservoir_heads(net)
        assert counts == {"scan": 0, "orient": 0}  # the truth grounds every node: no pass
        first = complete_from_reservoir_heads_and_flows(net, h_r, truth.flows)
        assert counts == {"scan": 1, "orient": 1}
        second = complete_from_reservoir_heads_and_flows(net, h_r, truth.flows)
        assert counts == {"scan": 1, "orient": 1}
        assert np.array_equal(first.state.heads, second.state.heads)

        # The forest route on the canonical forest and the decomposition read the same cache.
        dec = select_independent_edges(net)
        complete_from_forest_flows(
            net, h_r, {pid: truth.flows[net.pipe_index[pid]] for pid in dec.independent}, dec
        )
        assert counts == {"scan": 1, "orient": 1}

    def test_forest_solves_read_the_tree_built_on_first_use(self, counts):
        # The first ``complete`` scans to classify and builds the canonical tree (a scan and a
        # pass); each later one on the same network reads the tree: no scan and no pass.
        built = looped_grid(6, 7, seed=3)
        truth = random_ground_truth_state(built, seed=8)
        forest = select_independent_edges(built).independent
        net = network_from_json_dict(network_to_json_dict(built))
        obs = ObservationSet(
            heads={nid: float(truth.heads[net.node_index[nid]]) for nid in net.reservoir_ids},
            flows={pid: float(truth.flows[net.pipe_index[pid]]) for pid in forest},
        )
        counts.update(scan=0, orient=0)
        first = complete(net, obs)
        assert first.theorem is CompletionMethod.FOREST_FLOWS
        assert counts == {"scan": 2, "orient": 1} and "grounded_tree" in vars(net)
        second = complete(net, obs)
        assert counts == {"scan": 2, "orient": 1}
        assert np.array_equal(first.state.heads, second.state.heads)
        assert_close(first.state.heads, truth.heads, 1e-9)

    def test_noncanonical_cycle_basis_runs_one_pass_and_no_scan(self, counts):
        built = looped_grid(6, 7, seed=3)
        forest = scanned_forest(built, built.pipe_ids[::-1])
        assert forest != select_independent_edges(built).independent
        dec = EdgeDecomposition(forest, tuple(pid for pid in built.pipe_ids if pid not in forest))
        net = network_from_json_dict(network_to_json_dict(built))
        counts.update(scan=0, orient=0)
        assert cycle_space_basis(net, dec).dimension == net.n_pipes - net.n_consumers
        assert counts == {"scan": 0, "orient": 1} and "grounded_tree" not in vars(net)
