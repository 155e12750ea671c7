"""Tests for the random network and ground-truth state generators."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrostate import (
    GeneratorConfig,
    InfeasibleConfigError,
    build_network,
    cycle_space_basis,
    network_to_json_dict,
    params_for_resistance,
    random_connected_wds,
    random_ground_truth_state,
    resistance,
    residuals,
)
from hydrostate.testkit import HEAD_RANGE, MAX_PARALLEL_PIPES, RESISTANCE_RANGE


def slot_list_oracle(cfg: GeneratorConfig):
    """The generator as it was before the slot-free pair lookup: it lists every free slot.

    O(n^2) time and memory, so only for networks of a few hundred nodes.
    """
    assert cfg.n_reservoirs + cfg.n_consumers <= 500
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_reservoirs + cfg.n_consumers
    node_ids = [f"R{i + 1}" for i in range(cfg.n_reservoirs)] + [
        f"J{i + 1}" for i in range(cfg.n_consumers)
    ]
    roles = ["reservoir"] * cfg.n_reservoirs + ["consumer"] * cfg.n_consumers
    order = rng.permutation(n)
    pair_count: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []
    for i in range(1, n):
        a = int(order[int(rng.integers(0, i))])
        b = int(order[i])
        tail, head = (a, b) if rng.random() < 0.5 else (b, a)
        edges.append((tail, head))
        key = (min(a, b), max(a, b))
        pair_count[key] = pair_count.get(key, 0) + 1

    slots: list[tuple[int, int]] = []
    for a in range(n):
        for b in range(a + 1, n):
            free = MAX_PARALLEL_PIPES - pair_count.get((a, b), 0)
            slots.extend([(a, b)] * free)
    if cfg.extra_edges:
        picks = rng.choice(len(slots), size=cfg.extra_edges, replace=False)
        for idx in sorted(int(i) for i in picks):
            a, b = slots[idx]
            tail, head = (a, b) if rng.random() < 0.5 else (b, a)
            edges.append((tail, head))

    pipes = []
    for k, (tail, head) in enumerate(edges):
        target_r = float(rng.uniform(*RESISTANCE_RANGE))
        pipes.append(
            (f"P{k + 1}", node_ids[tail], node_ids[head], params_for_resistance(target_r))
        )
    return build_network(list(zip(node_ids, roles)), pipes)


def capacity(n_nodes: int) -> int:
    """Free pair slots left once a spanning tree has taken ``n_nodes - 1`` of them."""
    return MAX_PARALLEL_PIPES * (n_nodes * (n_nodes - 1) // 2) - (n_nodes - 1)


@st.composite
def generator_configs(draw):
    n_reservoirs = draw(st.integers(1, 4))
    n_consumers = draw(st.integers(1, 120))
    extra = draw(st.integers(0, capacity(n_reservoirs + n_consumers)))
    return GeneratorConfig(draw(st.integers(0, 2**32)), n_reservoirs, n_consumers, extra)


class TestParamsForResistance:
    def test_realizes_target(self):
        for target in (0.5, 1.0, 2.0, 61.70223710570267, 455.0):
            params = params_for_resistance(target)
            assert resistance(params) == pytest.approx(target, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            params_for_resistance(0.0)


class TestRandomConnectedWds:
    def test_single_pipe_shape(self):
        net = random_connected_wds(GeneratorConfig(seed=1, n_reservoirs=1, n_consumers=1))
        assert net.n_nodes == 2
        assert net.n_pipes == 1

    def test_requested_counts_and_cycle_dimension(self):
        cfg = GeneratorConfig(seed=7, n_reservoirs=1, n_consumers=4, extra_edges=2)
        net = random_connected_wds(cfg)
        assert net.n_nodes == 5
        assert net.n_pipes == 6
        assert cycle_space_basis(net).dimension == 2

    def test_determinism(self):
        cfg = GeneratorConfig(seed=42, n_reservoirs=2, n_consumers=6, extra_edges=3)
        a = random_connected_wds(cfg)
        b = random_connected_wds(cfg)
        assert a == b
        assert network_to_json_dict(a) == network_to_json_dict(b)

    def test_different_seeds_differ(self):
        a = random_connected_wds(GeneratorConfig(seed=1, n_consumers=6, extra_edges=3))
        b = random_connected_wds(GeneratorConfig(seed=2, n_consumers=6, extra_edges=3))
        assert a != b

    def test_resistances_in_range(self):
        net = random_connected_wds(GeneratorConfig(seed=3, n_consumers=8, extra_edges=4))
        r_lo, r_hi = RESISTANCE_RANGE
        assert np.all(net.resistances >= r_lo)
        assert np.all(net.resistances <= r_hi)

    def test_infeasible_extra_edges(self):
        # 2 nodes: one pair, capacity MAX_PARALLEL_PIPES, tree uses one slot
        cap = MAX_PARALLEL_PIPES - 1
        random_connected_wds(
            GeneratorConfig(seed=1, n_reservoirs=1, n_consumers=1, extra_edges=cap)
        )
        with pytest.raises(InfeasibleConfigError):
            random_connected_wds(
                GeneratorConfig(seed=1, n_reservoirs=1, n_consumers=1, extra_edges=cap + 1)
            )

    def test_invalid_counts(self):
        with pytest.raises(InfeasibleConfigError):
            random_connected_wds(GeneratorConfig(seed=1, n_reservoirs=0, n_consumers=2))
        with pytest.raises(InfeasibleConfigError):
            random_connected_wds(GeneratorConfig(seed=1, n_consumers=2, extra_edges=-1))

    def test_negative_seed_is_infeasible(self):
        with pytest.raises(InfeasibleConfigError, match="seed"):
            random_connected_wds(GeneratorConfig(seed=-1))

    @pytest.mark.parametrize(
        "fields",
        [
            {"seed": 1.5},
            {"seed": 1.0},
            {"seed": "1"},
            {"n_reservoirs": 1.0},
            {"n_consumers": 2.0},
            {"extra_edges": 0.5},
            {"extra_edges": None},
        ],
        ids=["float_seed", "integral_float_seed", "str_seed", "float_reservoirs",
             "float_consumers", "float_extra_edges", "none_extra_edges"],
    )
    def test_non_integer_count_or_seed_is_infeasible(self, fields):
        name = next(iter(fields))
        cfg = GeneratorConfig(**{"seed": 1, "n_consumers": 2, **fields})
        with pytest.raises(InfeasibleConfigError, match=f"{name} must be an integer"):
            random_connected_wds(cfg)

    def test_numpy_integers_are_accepted(self):
        cfg = GeneratorConfig(seed=np.int64(4), n_reservoirs=np.int32(1), n_consumers=np.uint8(3))
        assert network_to_json_dict(random_connected_wds(cfg)) == network_to_json_dict(
            random_connected_wds(GeneratorConfig(seed=4, n_reservoirs=1, n_consumers=3))
        )

    def test_parallel_cap_respected(self):
        cfg = GeneratorConfig(seed=9, n_reservoirs=1, n_consumers=3, extra_edges=8)
        net = random_connected_wds(cfg)
        pairs: dict[tuple[str, str], int] = {}
        for ends in zip(net.tail_indices.tolist(), net.head_indices.tolist()):
            key = tuple(sorted(ends))
            pairs[key] = pairs.get(key, 0) + 1
        assert max(pairs.values()) <= MAX_PARALLEL_PIPES


class TestSameNetworkAsSlotList:
    """The slot-free pair lookup yields the network of the full slot list, seed for seed."""

    # Three networks' sorted JSON, hashed on the slot-list generator. The last
    # one draws from a population above 10**4 slots and more than a fiftieth
    # of it, which takes numpy's tail-shuffle branch of ``choice``.
    PINNED = {
        GeneratorConfig(seed=1, n_reservoirs=1, n_consumers=3, extra_edges=2): (
            "9b2c430139b9aadf451110a7cd62898c58110d3aab105d9ea0a9d9a5446f72cb"
        ),
        GeneratorConfig(seed=2024, n_reservoirs=2, n_consumers=120, extra_edges=60): (
            "f749d3d619ca4c21d55f5b6f4cb78d6080ac0c8a9d3680abc62e108fd1a3a652"
        ),
        GeneratorConfig(seed=7, n_reservoirs=4, n_consumers=120, extra_edges=5000): (
            "252ab564b77c2ba0741b373e72770568dec3cb981918f162e40b5b80a4d87a85"
        ),
    }

    @pytest.mark.parametrize("cfg", list(PINNED), ids=lambda c: f"seed{c.seed}")
    def test_pinned_digest(self, cfg):
        doc = json.dumps(network_to_json_dict(random_connected_wds(cfg)), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == self.PINNED[cfg]

    @settings(max_examples=60, deadline=None)
    @given(generator_configs())
    # Full capacity, and numpy's two branches of ``choice`` on either side of
    # a fiftieth of more than 10**4 slots: Floyd's sampling and a tail shuffle.
    @example(GeneratorConfig(3, 1, 1, extra_edges=1))
    @example(GeneratorConfig(5, 4, 120, extra_edges=capacity(124)))
    @example(GeneratorConfig(8, 1, 101, extra_edges=capacity(102) // 50 + 1))
    @example(GeneratorConfig(9, 3, 110, extra_edges=capacity(113) // 2))
    @example(GeneratorConfig(10, 2, 118, extra_edges=capacity(120) // 50))
    def test_matches_oracle(self, cfg):
        expected = network_to_json_dict(slot_list_oracle(cfg))
        assert network_to_json_dict(random_connected_wds(cfg)) == expected


def test_ten_thousand_consumers_in_bounded_memory():
    # The slot list alone would hold about 10**8 pairs (some 800 MB) here.
    cfg = GeneratorConfig(seed=4, n_reservoirs=3, n_consumers=10_000, extra_edges=5000)
    tracemalloc.start()
    try:
        net = random_connected_wds(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20
    assert net.n_nodes == 10_003
    assert net.n_pipes == 10_002 + 5000
    tails, heads = net.tail_indices, net.head_indices
    pairs = np.sort(np.column_stack([tails, heads]), axis=1)
    assert np.unique(pairs, axis=0, return_counts=True)[1].max() <= MAX_PARALLEL_PIPES
    # Breadth-first search from one node reaches every node.
    neighbours = [[] for _ in range(net.n_nodes)]
    for a, b in zip(tails.tolist(), heads.tolist()):
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen, queue = {0}, [0]
    for v in queue:
        for w in neighbours[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    assert len(seen) == net.n_nodes


class TestRandomGroundTruthState:
    def test_physically_correct_by_construction(self):
        net = random_connected_wds(GeneratorConfig(seed=11, n_consumers=6, extra_edges=3))
        state = random_ground_truth_state(net, seed=5)
        assert residuals(net, state).physically_correct(1e-12)

    def test_determinism(self):
        net = random_connected_wds(GeneratorConfig(seed=13, n_consumers=4))
        a = random_ground_truth_state(net, seed=7)
        b = random_ground_truth_state(net, seed=7)
        assert np.array_equal(a.heads, b.heads)
        assert np.array_equal(a.flows, b.flows)
        assert np.array_equal(a.demands, b.demands)

    def test_heads_inside_range(self):
        net = random_connected_wds(GeneratorConfig(seed=14, n_consumers=5))
        state = random_ground_truth_state(net, seed=8)
        h_lo, h_hi = HEAD_RANGE
        assert np.all(state.heads >= h_lo)
        assert np.all(state.heads <= h_hi)
