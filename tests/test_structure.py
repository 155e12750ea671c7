"""Tests for ranks, forest/chord decomposition, cycle space and image membership."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostate import (
    EdgeDecomposition,
    EmptySubsetError,
    GeneratorConfig,
    UnknownNodeError,
    build_network,
    cycle_space_basis,
    image_membership,
    incidence_matrix,
    params_for_resistance,
    random_connected_wds,
    select_independent_edges,
    submatrix_rank,
)
from hydrostate.structure import (
    flow_pattern_rank,
    greedy_independent_columns,
    integer_determinant,
    integer_rank,
)
from hydrostate.testkit import MAX_PARALLEL_PIPES

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


class TestImageMembership:
    def test_tree_is_always_member(self, path_net):
        rng = np.random.default_rng(5)
        for _ in range(10):
            target = rng.normal(size=path_net.n_pipes)
            result = image_membership(path_net, target)
            assert result.member
            assert result.residual <= 1e-9

    def test_triangle_incompatible_target(self, triangle_net):
        result = image_membership(triangle_net, np.array([1.0, -1.0, 1.0]))
        assert not result.member
        assert result.consumer_heads is None
        assert result.residual > 1e-3

    def test_triangle_forward_constructed_target(self, triangle_net):
        target = np.array([-5.0, -3.0, 2.0])  # B_consumers^T @ (5, 3)
        result = image_membership(triangle_net, target)
        assert result.member
        assert result.consumer_heads == pytest.approx([5.0, 3.0], abs=1e-12)
        assert result.residual <= 1e-12

    def test_recovers_heads_on_random_networks(self):
        rng = np.random.default_rng(17)
        for net in make_random_networks(20, seed0=51):
            B_vc = incidence_matrix(net).restrict(nodes=net.consumer_ids).entries.astype(float)
            h = rng.uniform(-100.0, 100.0, net.n_consumers)
            result = image_membership(net, B_vc.T @ h)
            assert result.member
            assert np.max(np.abs(result.consumer_heads - h)) <= 1e-10

    def test_bad_target_length(self, triangle_net):
        with pytest.raises(ValueError):
            image_membership(triangle_net, np.zeros(5))


class TestPatternHelpers:
    def test_flow_pattern_rank(self, triangle_net):
        assert flow_pattern_rank(triangle_net, ("e1", "e2")) == 2
        assert flow_pattern_rank(triangle_net, ("e3",)) == 1
        assert flow_pattern_rank(triangle_net, ()) == 0

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
    pipes = [(p.id, p.tail, p.head, p.params) for p in (net.pipes[k] for k in order)]
    return build_network([(node.id, node.role) for node in net.nodes], pipes)


class TestForestScan:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_integer_rank_oracle(self, data):
        net = data.draw(shuffled_networks())
        # Random subsets in random order, with repeated ids.
        candidates = data.draw(st.lists(st.sampled_from(net.pipe_ids), max_size=2 * net.n_pipes))
        assert greedy_independent_columns(net, candidates) == rank_greedy_oracle(net, candidates)
        B_vc = incidence_matrix(net).restrict(nodes=net.consumer_ids)
        assert flow_pattern_rank(net, candidates) == integer_rank(
            B_vc.restrict(pipes=candidates).entries
        )
        independent = rank_greedy_oracle(net, net.pipe_ids)
        dependent = tuple(pid for pid in net.pipe_ids if pid not in independent)
        assert select_independent_edges(net) == EdgeDecomposition(independent, dependent)

    def test_reservoir_pipe_is_always_dependent(self):
        r = params_for_resistance(1.0)
        net = build_network(
            [("R1", "reservoir"), ("R2", "reservoir"), ("c1", "consumer")],
            [("rr", "R1", "R2", r), ("a", "R1", "c1", r), ("b", "c1", "R2", r)],
        )
        assert select_independent_edges(net) == EdgeDecomposition(("a",), ("rr", "b"))
        assert greedy_independent_columns(net, ("rr",)) == ()
        assert greedy_independent_columns(net, ("b", "rr")) == ("b",)
        assert flow_pattern_rank(net, ("rr",)) == 0

    def test_pipe_parallel_to_forest_pipe(self, parallel_triangle_net):
        net = parallel_triangle_net
        assert select_independent_edges(net) == EdgeDecomposition(("e1", "e2"), ("e1p", "e3"))
        assert greedy_independent_columns(net, ("e1p", "e1")) == ("e1",)
        assert greedy_independent_columns(net, ("e3", "e1p")) == ("e1p", "e3")
        assert flow_pattern_rank(net, ("e1p", "e1")) == 1
        assert flow_pattern_rank(net, ("e1p", "e1", "e3")) == 2

    def test_empty_candidate_set(self, triangle_net):
        assert greedy_independent_columns(triangle_net, ()) == ()
        assert flow_pattern_rank(triangle_net, []) == 0

    @pytest.mark.parametrize("candidates", [("nope",), ("e1", "nope", "e2")])
    def test_unknown_pipe_id(self, triangle_net, candidates):
        with pytest.raises(UnknownNodeError, match="nope"):
            greedy_independent_columns(triangle_net, candidates)
        with pytest.raises(UnknownNodeError, match="nope"):
            flow_pattern_rank(triangle_net, candidates)


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
