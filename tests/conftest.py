"""Shared fixtures: small hand-checkable networks, builders, graph helpers and Newton starts."""

import numpy as np
import pytest

from hydrostate import Network, build_network, head_loss, params_for_resistance
from hydrostate.structure import walk_heads
from hydrostate.testkit import GeneratorConfig, random_connected_wds


@pytest.fixture
def single_pipe_net() -> Network:
    """R -> J1 through one pipe with resistance 2."""
    return build_network(
        [("R", "reservoir"), ("J1", "consumer")],
        [("P1", "R", "J1", params_for_resistance(2.0))],
    )


@pytest.fixture
def path_net() -> Network:
    """Series line R -> c1 -> c2, both pipes with resistance 1."""
    return build_network(
        [("R", "reservoir"), ("c1", "consumer"), ("c2", "consumer")],
        [
            ("e1", "R", "c1", params_for_resistance(1.0)),
            ("e2", "c1", "c2", params_for_resistance(1.0)),
        ],
    )


@pytest.fixture
def path3_net():
    """Series line R1 -> J1 -> J2 -> J3, every pipe with resistance 1."""
    r = params_for_resistance(1.0)
    return build_network(
        [("R1", "reservoir"), ("J1", "consumer"), ("J2", "consumer"), ("J3", "consumer")],
        [("P1", "R1", "J1", r), ("P2", "J1", "J2", r), ("P3", "J2", "J3", r)],
    )


@pytest.fixture
def triangle_net() -> Network:
    """Triangle R, c1, c2 with pipes e1=(R,c1), e2=(R,c2), e3=(c1,c2), all resistance 1."""
    return build_network(
        [("R", "reservoir"), ("c1", "consumer"), ("c2", "consumer")],
        [
            ("e1", "R", "c1", params_for_resistance(1.0)),
            ("e2", "R", "c2", params_for_resistance(1.0)),
            ("e3", "c1", "c2", params_for_resistance(1.0)),
        ],
    )


@pytest.fixture
def parallel_triangle_net() -> Network:
    """Triangle with a second parallel pipe e1p from R to c1."""
    return build_network(
        [("R", "reservoir"), ("c1", "consumer"), ("c2", "consumer")],
        [
            ("e1", "R", "c1", params_for_resistance(1.0)),
            ("e1p", "R", "c1", params_for_resistance(2.0)),
            ("e2", "R", "c2", params_for_resistance(1.0)),
            ("e3", "c1", "c2", params_for_resistance(1.0)),
        ],
    )


def make_random_networks(count: int, seed0: int = 0, max_nodes: int = 40) -> list[Network]:
    """Deterministic battery of varied random networks (3..max_nodes nodes)."""
    meta = np.random.default_rng(seed0)
    nets = []
    for k in range(count):
        n_nodes = int(meta.integers(3, max_nodes + 1))
        n_r = int(meta.integers(1, min(3, n_nodes - 1) + 1))
        n_c = n_nodes - n_r
        extra = int(meta.integers(0, n_nodes))
        cfg = GeneratorConfig(
            seed=seed0 * 100_000 + k,
            n_reservoirs=n_r,
            n_consumers=n_c,
            extra_edges=extra,
        )
        nets.append(random_connected_wds(cfg))
    return nets


def looped_grid(rows, cols, seed=0, double=False):
    """Full ``rows x cols`` grid of consumers fed by reservoirs at two opposite corners."""
    rng = np.random.default_rng(seed)
    ids = [f"J{k}" for k in range(rows * cols)]
    edges = [(ids[k], ids[k + 1]) for k in range(rows * cols) if (k + 1) % cols]
    edges += [(ids[k], ids[k + cols]) for k in range((rows - 1) * cols)]
    edges += [("R1", ids[0]), ("R2", ids[-1])]
    edges += edges if double else []
    pipes = [(f"P{k}", a, b, params_for_resistance(float(r)))
             for k, ((a, b), r) in enumerate(zip(edges, rng.uniform(0.5, 5.0, len(edges))))]
    nodes = [("R1", "reservoir"), ("R2", "reservoir")] + [(i, "consumer") for i in ids]
    return build_network(nodes, pipes)


def undirected_components(net: Network, pipe_ids) -> list[int]:
    """Component label per node index under the given undirected pipe subset."""
    parent = list(range(net.n_nodes))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for pid in pipe_ids:
        j = net.pipe_index[pid]
        a, b = find(int(net.tail_indices[j])), find(int(net.head_indices[j]))
        if a != b:
            parent[a] = b
    return [find(i) for i in range(net.n_nodes)]


def edge_subset_is_forest(net: Network, pipe_ids) -> bool:
    """True iff the undirected subgraph on the given pipes is acyclic."""
    parent = list(range(net.n_nodes))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for pid in pipe_ids:
        j = net.pipe_index[pid]
        a, b = find(int(net.tail_indices[j])), find(int(net.head_indices[j]))
        if a == b:
            return False
        parent[a] = b
    return True


# --- Newton starts other than the solver's own --------------------------------
# Pass one in with ``monkeypatch.setattr(completion, "_initial_point", start)``.


def flat_start(net: Network, reservoir_heads, demands):
    """Every pipe dry, at the zero-flow clamp, and every consumer at the mean reservoir head."""
    return np.zeros(net.n_pipes), np.full(net.n_consumers, float(np.mean(reservoir_heads)))


def forest_start(net: Network, reservoir_heads, demands):
    """A mass-feasible start: forest flows carry the demands, summed from the leaves; chords dry.

    Consumer heads follow the forest's head losses down from the reservoirs.
    """
    walk = net.grounded_tree.walk
    subtree, q = np.zeros(net.n_nodes), np.zeros(net.n_pipes)
    subtree[net.consumer_indices] = demands
    for child, parent, pipe, sign in reversed(walk.steps.T.tolist()):
        q[pipe] = sign * subtree[child]
        subtree[parent] += subtree[child]
    h = np.zeros(net.n_nodes)
    h[net.reservoir_indices] = reservoir_heads
    h = walk_heads(walk, h, head_loss(q, net.resistances))
    return q, h[net.consumer_indices]


def random_start(seed):
    """A start drawn from ``seed``: flows up to the largest demand, heads near the reservoirs'."""

    def start(net: Network, reservoir_heads, demands):
        rng = np.random.default_rng(seed)
        scale = max(1.0, float(np.max(np.abs(demands), initial=0.0)))
        q = rng.uniform(-scale, scale, net.n_pipes)
        lo = float(np.min(reservoir_heads)) - 10.0
        hi = float(np.max(reservoir_heads)) + 10.0
        return q, rng.uniform(lo, hi, net.n_consumers)

    return start
