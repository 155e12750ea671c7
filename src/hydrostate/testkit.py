"""Deterministic generators for random networks and ground-truth states.

The generator builds a random spanning tree first (connected by
construction) and then sprinkles extra edges, allowing parallel pipes up to a
fixed multiplicity cap. Ground-truth states sample heads and derive the rest
in closed form, so they satisfy the hydraulic principles to machine
precision and serve as the oracle for every round-trip test.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .completion import complete_from_heads
from .errors import InfeasibleConfigError
from .hydraulics import HydraulicState
from .network import Network, PipeParams, network_from_columns, resistance

#: Maximum number of parallel pipes between one node pair.
MAX_PARALLEL_PIPES = 2
#: Diameter (m) and Hazen-Williams roughness of generated pipes.
DIAMETER, ROUGHNESS = 0.3, 100.0
#: Resistance of a generated pipe of length 1 m.
_UNIT_RESISTANCE = resistance(PipeParams(length=1.0, diameter=DIAMETER, roughness=ROUGHNESS))
#: Interval of the resistances of generated pipes.
RESISTANCE_RANGE = (0.5, 5.0)
#: Interval of the heads of generated ground-truth states.
HEAD_RANGE = (50.0, 150.0)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    n_reservoirs: int = 1
    n_consumers: int = 3
    extra_edges: int = 0


def params_for_resistance(target: float) -> PipeParams:
    """Generated-pipe parameters realizing a given resistance (resistance is linear in length)."""
    if not target > 0:
        raise ValueError("target resistance must be positive")
    return PipeParams(length=target / _UNIT_RESISTANCE, diameter=DIAMETER, roughness=ROUGHNESS)


def _capacity(n: int) -> int:
    """Free pair slots of an ``n``-node network once its spanning tree has taken ``n - 1``."""
    return MAX_PARALLEL_PIPES * (n * (n - 1) // 2) - (n - 1)


def _validate(cfg: GeneratorConfig) -> None:
    for name in ("seed", "n_reservoirs", "n_consumers", "extra_edges"):
        value = getattr(cfg, name)
        try:
            operator.index(value)
        except TypeError:
            raise InfeasibleConfigError(f"{name} must be an integer, got {value!r}") from None
    if cfg.seed < 0:
        raise InfeasibleConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.n_reservoirs < 1 or cfg.n_consumers < 1:
        raise InfeasibleConfigError("need at least one reservoir and one consumer")
    if cfg.extra_edges < 0:
        raise InfeasibleConfigError("extra_edges must be nonnegative")
    n = cfg.n_reservoirs + cfg.n_consumers
    capacity = _capacity(n)
    if cfg.extra_edges > capacity:
        raise InfeasibleConfigError(
            f"extra_edges={cfg.extra_edges} exceeds the capacity {capacity} "
            f"of a {n}-node network with at most {MAX_PARALLEL_PIPES} parallel pipes per pair"
        )


def _free_slot_pairs(n: int, tree: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node pairs ``(a, b)``, ``a < b``, of the free slots with the sorted indices ``picks``.

    The free slots list every pair ``a < b`` row by row, ``MAX_PARALLEL_PIPES``
    times, once less for each of the ``n - 1`` spanning-tree edges in
    ``tree`` (rows of two node indices, either orientation). Row ``a``
    holds ``MAX_PARALLEL_PIPES * (n - 1 - a)`` slots minus its tree partners,
    so one bisection over the row ends finds the row. A slot at ``offset`` in
    the row, after the first slots of ``j`` tree partners, belongs to
    ``b = a + 1 + (offset + j) // MAX_PARALLEL_PIPES``, and a second
    bisection over those first slots finds ``j``. O(n + k log n) time and
    memory for ``k`` picks.
    """
    tree = np.sort(tree, axis=1)
    tree = tree[np.lexsort((tree[:, 1], tree[:, 0]))]
    lo, hi = tree[:, 0], tree[:, 1]
    partners = np.bincount(lo, minlength=n)
    sizes = MAX_PARALLEL_PIPES * (n - 1 - np.arange(n)) - partners
    row_end = np.cumsum(sizes)
    row_start = row_end - sizes
    first_partner = np.cumsum(partners) - partners
    rank_in_row = np.arange(len(tree)) - first_partner[lo]
    partner_slot = row_start[lo] + MAX_PARALLEL_PIPES * (hi - lo - 1) - rank_in_row
    a = np.searchsorted(row_end, picks, side="right")
    before = np.searchsorted(partner_slot, picks, side="left") - first_partner[a]
    return a, a + 1 + (picks - row_start[a] + before) // MAX_PARALLEL_PIPES


def random_connected_wds(cfg: GeneratorConfig) -> Network:
    """Random connected network, deterministic in the seed.

    Exactly ``n_reservoirs + n_consumers`` nodes and
    ``(n_nodes - 1) + extra_edges`` pipes; pipe resistances land inside
    :data:`RESISTANCE_RANGE`. Time and memory are O(n + k log n) for ``k`` extra
    edges, except that numpy's ``choice`` shuffles all (n - 1)**2 slot
    indices when ``k`` exceeds a fiftieth of more than 10**4 of them.
    """
    _validate(cfg)
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_reservoirs + cfg.n_consumers
    node_ids = [f"R{i + 1}" for i in range(cfg.n_reservoirs)] + [
        f"J{i + 1}" for i in range(cfg.n_consumers)
    ]
    roles = ["reservoir"] * cfg.n_reservoirs + ["consumer"] * cfg.n_consumers

    # Random recursive tree over a node permutation, then extra edges drawn
    # from the remaining pair slots without replacement.
    order = rng.permutation(n).tolist()
    edges: list[tuple[int, int]] = []
    for i in range(1, n):
        a, b = order[int(rng.integers(0, i))], order[i]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))

    if cfg.extra_edges:
        picks = np.sort(rng.choice(_capacity(n), size=cfg.extra_edges, replace=False))
        lo, hi = _free_slot_pairs(n, np.array(edges), picks)
        keep = rng.random(cfg.extra_edges) < 0.5
        edges += [
            (a, b) if k else (b, a) for a, b, k in zip(lo.tolist(), hi.tolist(), keep.tolist())
        ]

    m = len(edges)
    # Resistance is linear in length, and division is correctly rounded, so
    # each length equals the scalar ``params_for_resistance(target).length``.
    lengths = rng.uniform(*RESISTANCE_RANGE, m) / _UNIT_RESISTANCE
    return network_from_columns(
        node_ids,
        roles,
        [f"P{k + 1}" for k in range(m)],
        [node_ids[tail] for tail, _ in edges],
        [node_ids[head] for _, head in edges],
        lengths,
        np.full(m, DIAMETER),
        np.full(m, ROUGHNESS),
    )


def random_ground_truth_state(net: Network, seed: int) -> HydraulicState:
    """Physically correct state from heads drawn uniformly from :data:`HEAD_RANGE` (closed form)."""
    heads = np.random.default_rng(seed).uniform(*HEAD_RANGE, net.n_nodes)
    return complete_from_heads(net, heads).state
