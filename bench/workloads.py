"""The benchmark's workloads: seeded inputs, requests and the correctness gate.

Each workload builds its inputs from the run seed and returns the requests of
one *round*, a fixed seeded mix of request kinds. The runner repeats whole
rounds, so every run measures the same mix. Every request checks its own
answer against a seeded ground truth; tolerances are the ones pinned in
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hydrostate import (
    EdgeDecomposition,
    GeneratorConfig,
    InconsistentObservationsError,
    Network,
    ObservationSet,
    Verdict,
    build_network,
    classify_observation_pattern,
    complete_from_forest_flows,
    complete_from_reservoir_heads_and_flows,
    cycle_space_basis,
    network_to_json_dict,
    params_for_resistance,
    random_connected_wds,
    random_ground_truth_state,
    select_independent_edges,
    solve_reservoir_heads_demands,
)
from hydrostate.cli import run_cli

from tracer import Tracer

#: Criterion 4: closed-form and linear routes against the truth, and their residual.
CLOSED_FORM_TOL = 1e-8
CLOSED_FORM_RESIDUAL = 1e-10
#: Criterion 5: the demand-driven Newton solve against the truth, and its residual.
NEWTON_TOL = 1e-6
NEWTON_RESIDUAL = 1e-8
#: Criterion 6: chord flow perturbation that must be reported as inconsistent.
CHORD_PERTURBATION = 1e-3
#: Documented exit codes of ``hydrostate solve``.
EXIT_OK, EXIT_INCONSISTENT = 0, 2
#: Wall-clock limit of one CLI child process.
CHILD_TIMEOUT_S = 60.0
#: Pipes per consumer of the looped grid, as in real water networks.
GRID_PIPES_PER_CONSUMER = 1.5
#: Chords observed on top of the forest in a full-rank flow set.
SURPLUS_CHORDS = 5


@dataclass
class Answer:
    """Outcome of one request's gate.

    ``known_defect`` marks a miss that reproduces a documented defect of the
    program; it still counts as failed.
    """

    ok: bool
    known_defect: bool = False
    info: dict = field(default_factory=dict)


@dataclass
class Request:
    kind: str
    run: Callable[[], Answer]


@dataclass
class Workload:
    rounds: list[list[Request]]
    #: Run once during set-up, untimed: first BLAS call, lazy network caches.
    warm_up: list[Request]
    #: Extra calls made in traced runs only, after the request itself.
    probe: Callable[[Request, Answer], Answer] | None = None


def attempt(request: Request, probe: Callable[[Request, Answer], Answer] | None = None) -> Answer:
    """Run one request and its gate; an exception is a failed answer, not a crash."""
    try:
        answer = request.run()
        return probe(request, answer) if probe else answer
    except Exception as exc:  # the client keeps running and counts the miss
        return Answer(False, info={"error": f"{type(exc).__name__}: {exc}"})


# --- network generation -----------------------------------------------------


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def looped_grid(seed: int, n_consumers: int) -> Network:
    """Seeded looped grid of consumers fed by two reservoirs at opposite corners.

    Consumers sit on a near-square grid. A random spanning tree of the grid
    edges (Kruskal over a seeded edge order) is kept, then further grid edges
    close loops until there are about ``GRID_PIPES_PER_CONSUMER`` pipes per
    consumer. Every node has degree at most 4, and the cost is O(m).
    """
    rng = np.random.default_rng(seed)
    n = n_consumers
    cols = int(np.ceil(np.sqrt(n)))
    grid_edges = [(k, k + 1) for k in range(n) if (k + 1) % cols and k + 1 < n]
    grid_edges += [(k, k + cols) for k in range(n - cols)]
    parent = list(range(n))
    tree, loops = [], []
    for e in rng.permutation(len(grid_edges)):
        a, b = grid_edges[e]
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            tree.append((a, b))
        else:
            loops.append((a, b))
    ids = [f"J{k + 1}" for k in range(n)]
    n_loops = max(0, round(GRID_PIPES_PER_CONSUMER * n) - n - 1)
    edges = [(ids[a], ids[b]) for a, b in tree + loops[:n_loops]]
    edges += [("R1", ids[0]), ("R2", ids[n - 1])]
    flips = rng.random(len(edges)) < 0.5
    targets = rng.uniform(0.5, 5.0, len(edges))
    pipes = [
        (f"P{k + 1}", *((b, a) if flip else (a, b)), params_for_resistance(float(r)))
        for k, ((a, b), flip, r) in enumerate(zip(edges, flips, targets))
    ]
    nodes = [("R1", "reservoir"), ("R2", "reservoir")] + [(i, "consumer") for i in ids]
    return build_network(nodes, pipes)


def forest_oracle(net: Network) -> EdgeDecomposition:
    """Forest/chord split by union-find with every reservoir grounded into one node.

    A pipe is independent exactly when it joins two components; scanning in
    canonical pipe order gives the same split as the package's greedy rank
    scan (matroid greedy), so it serves as an independent check of it.
    """
    ground = net.n_nodes
    parent = list(range(ground + 1))
    reservoirs = set(net.reservoir_ids)
    node = [ground if nid in reservoirs else i for i, nid in enumerate(net.node_ids)]
    independent, dependent = [], []
    for pid, t, h in zip(net.pipe_ids, net.tail_indices, net.head_indices):
        a, b = _find(parent, node[t]), _find(parent, node[h])
        if a != b:
            parent[a] = b
            independent.append(pid)
        else:
            dependent.append(pid)
    return EdgeDecomposition(tuple(independent), tuple(dependent))


# --- gate helpers -----------------------------------------------------------


def _close(a, b, tol: float) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= tol)


def _reservoir_heads(net: Network, truth) -> dict[str, float]:
    return {nid: float(truth.heads[net.node_index[nid]]) for nid in net.reservoir_ids}


def _flows(net: Network, truth, pipe_ids) -> dict[str, float]:
    return {pid: float(truth.flows[net.pipe_index[pid]]) for pid in pipe_ids}


def _report_matches(report, truth, tol: float, residual_tol: float) -> bool:
    s = report.state
    return (
        report.final_residual.physically_correct(residual_tol)
        and _close(s.heads, truth.heads, tol)
        and _close(s.flows, truth.flows, tol)
        and _close(s.demands, truth.demands, tol)
    )


def _sizes(net: Network) -> dict:
    return {"incidence_bytes": 8 * net.n_nodes * net.n_pipes}


def _newton_sizes(net: Network, iterations: int) -> dict:
    return {
        "newton_iterations": iterations,
        "jacobian_bytes": 8 * (net.n_pipes + net.n_consumers) ** 2,
        **_sizes(net),
    }


# --- newton-grid -----------------------------------------------------------


def newton_grid(seed: int, n_consumers: int = 500, scenarios: int = 16) -> Workload:
    """One looped grid; each request solves one seeded demand scenario."""
    net = looped_grid(seed, n_consumers)
    rng = np.random.default_rng(seed)
    truths = [random_ground_truth_state(net, int(s)) for s in rng.integers(0, 2**31, scenarios)]

    def request(truth) -> Request:
        def run() -> Answer:
            report = solve_reservoir_heads_demands(net, truth.reservoir_heads(net), truth.demands)
            ok = report.final_residual.physically_correct(NEWTON_RESIDUAL) and (
                _close(report.state.heads, truth.heads, NEWTON_TOL)
                and _close(report.state.flows, truth.flows, NEWTON_TOL)
            )
            return Answer(ok, info=_newton_sizes(net, report.iterations))

        return Request("demand_driven", run)

    rounds = [[request(t)] for t in truths]
    return Workload(rounds, warm_up=rounds[0])


# --- sensor-patterns -------------------------------------------------------

#: Request kinds of one sensor-patterns round and how often each occurs. The
#: three cheap kinds make up 3/7 of a round, so the median falls inside the
#: full-rank classify cluster and the tail inside the loop-structure cluster.
SENSOR_MIX = {"rank_deficient": 1, "full_rank": 2, "all_flows": 1, "perturbed": 1, "loops": 2}


def sensor_patterns(seed: int, n_consumers: int = 120, n_networks: int = 16) -> Workload:
    """Random networks; each round asks one network every pattern question."""
    rng = np.random.default_rng(seed)
    rounds = []
    for net_seed, truth_seed in rng.integers(0, 2**31, (n_networks, 2)):
        net = random_connected_wds(
            GeneratorConfig(
                seed=int(net_seed),
                n_reservoirs=2,
                n_consumers=n_consumers,
                extra_edges=n_consumers // 2,
            )
        )
        truth = random_ground_truth_state(net, int(truth_seed))
        rounds.append(_sensor_round(net, truth, forest_oracle(net), rng))
    warm_up = [req for requests in rounds for req in requests if req.kind == "all_flows"]
    return Workload(rounds, warm_up)


def _sensor_round(net, truth, oracle: EdgeDecomposition, rng) -> list[Request]:
    h_r = truth.reservoir_heads(net)
    heads = _reservoir_heads(net, truth)
    n_c = net.n_consumers
    dropped = oracle.independent[int(rng.integers(len(oracle.independent)))]
    deficient = ObservationSet(
        heads=heads, flows=_flows(net, truth, (p for p in oracle.independent if p != dropped))
    )
    surplus = rng.choice(len(oracle.dependent), min(SURPLUS_CHORDS, len(oracle.dependent)), replace=False)
    full_rank = ObservationSet(
        heads=heads,
        flows=_flows(net, truth, oracle.independent + tuple(oracle.dependent[i] for i in surplus)),
    )
    perturbed = truth.flows.copy()
    perturbed[net.pipe_index[oracle.dependent[int(rng.integers(len(oracle.dependent)))]]] += (
        CHORD_PERTURBATION
    )
    consumer_rows = [net.node_index[c] for c in net.consumer_ids]
    B_c = np.zeros((net.n_nodes, net.n_pipes))
    B_c[net.tail_indices, np.arange(net.n_pipes)] = 1.0
    B_c[net.head_indices, np.arange(net.n_pipes)] = -1.0
    B_c = B_c[consumer_rows]

    def rank_deficient() -> Answer:
        v = classify_observation_pattern(net, deficient)
        ok = v.verdict is Verdict.UNDETERMINED_RANK_DEFICIENT and v.detail["flow_rank"] == n_c - 1
        return Answer(ok, info=_sizes(net))

    def full_rank_flows() -> Answer:
        v = classify_observation_pattern(net, full_rank)
        if v.verdict is not Verdict.DETERMINED_FOREST_FLOWS:
            return Answer(False, info=_sizes(net))
        independent = tuple(v.detail["independent_flows"])
        chosen = set(independent)
        dec = EdgeDecomposition(independent, tuple(p for p in net.pipe_ids if p not in chosen))
        report = complete_from_forest_flows(
            net, h_r, {p: full_rank.flows[p] for p in independent}, dec
        )
        return Answer(
            _report_matches(report, truth, CLOSED_FORM_TOL, CLOSED_FORM_RESIDUAL), info=_sizes(net)
        )

    def all_flows() -> Answer:
        report = complete_from_reservoir_heads_and_flows(net, h_r, truth.flows)
        return Answer(
            _report_matches(report, truth, CLOSED_FORM_TOL, CLOSED_FORM_RESIDUAL), info=_sizes(net)
        )

    def perturbed_flows() -> Answer:
        try:
            complete_from_reservoir_heads_and_flows(net, h_r, perturbed)
        except InconsistentObservationsError:
            return Answer(True, info={"perturbed": 1, "detected": 1, **_sizes(net)})
        return Answer(False, info={"perturbed": 1, "detected": 0, **_sizes(net)})

    def loops() -> Answer:
        dec = select_independent_edges(net)
        basis = cycle_space_basis(net, dec)
        vectors = np.array(basis.vectors, dtype=float).reshape(-1, net.n_pipes)
        chord_cols = [net.pipe_index[p] for p in oracle.dependent]
        ok = (
            dec == oracle
            and basis.dimension == net.n_pipes - n_c
            and not np.any(B_c @ vectors.T)
            and np.array_equal(vectors[:, chord_cols], np.eye(len(chord_cols)))
        )
        return Answer(bool(ok), info=_sizes(net))

    kinds = {
        "rank_deficient": rank_deficient,
        "full_rank": full_rank_flows,
        "all_flows": all_flows,
        "perturbed": perturbed_flows,
        "loops": loops,
    }
    order = [kind for kind, count in SENSOR_MIX.items() for _ in range(count)]
    return [Request(str(kind), kinds[kind]) for kind in rng.permutation(order)]


# --- cli-solve -------------------------------------------------------------

#: The CLI request kinds: the observations written, and the ``--theorem`` the
#: request names (``auto`` unless the route cannot be reached through it).
CLI_KINDS = {
    "all_heads": "auto",
    "forest_flows": "auto",
    "demand_driven": "auto",
    "heads_flows": "heads-flows",
    "contradicted": "auto",
}


def cli_solve(
    seed: int, root: Path, workdir: Path, tracer: Tracer, n_consumers: int = 60, n_networks: int = 8
) -> Workload:
    """Input files for several networks; each request runs one ``hydrostate solve`` child."""
    rng = np.random.default_rng(seed)
    rounds = []
    for k, (net_seed, truth_seed) in enumerate(rng.integers(0, 2**31, (n_networks, 2))):
        net = random_connected_wds(
            GeneratorConfig(
                seed=int(net_seed),
                n_reservoirs=2,
                n_consumers=n_consumers,
                extra_edges=n_consumers // 2,
            )
        )
        truth = random_ground_truth_state(net, int(truth_seed))
        oracle = forest_oracle(net)
        heads = _reservoir_heads(net, truth)
        contradicted = _flows(net, truth, net.pipe_ids)
        contradicted[oracle.dependent[int(rng.integers(len(oracle.dependent)))]] += (
            CHORD_PERTURBATION
        )
        observations = {
            "all_heads": {"heads": dict(zip(net.node_ids, map(float, truth.heads)))},
            "forest_flows": {"heads": heads, "flows": _flows(net, truth, oracle.independent)},
            "demand_driven": {
                "heads": heads,
                "demands": dict(zip(net.consumer_ids, map(float, truth.demands))),
            },
            "heads_flows": {"heads": heads, "flows": _flows(net, truth, net.pipe_ids)},
            "contradicted": {"heads": heads, "flows": contradicted},
        }
        net_path = workdir / f"net{k}.json"
        net_path.write_text(json.dumps(network_to_json_dict(net)), encoding="utf-8")
        requests = []
        for kind in rng.permutation(list(CLI_KINDS)):
            obs_path = workdir / f"net{k}-{kind}.json"
            obs_path.write_text(json.dumps(observations[kind]), encoding="utf-8")
            argv = ["solve", str(net_path), "--obs", str(obs_path), "--theorem", CLI_KINDS[kind]]
            requests.append(_cli_request(str(kind), argv, net, truth, root, tracer))
        rounds.append(requests)
    return Workload(rounds, warm_up=rounds[0][:1], probe=_cli_probe(root, tracer))


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _vector(doc: dict, ids) -> np.ndarray:
    return np.array([float(doc[i]) for i in ids])


def _cli_request(kind: str, argv: list[str], net: Network, truth, root: Path, tracer: Tracer) -> Request:
    env = child_env(root)

    def run() -> Answer:
        with tracer.span("cli.solve_child", tag=kind):
            child = subprocess.run(
                [sys.executable, "-m", "hydrostate.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                cwd=root,
                timeout=CHILD_TIMEOUT_S,
            )
        info = {"argv": argv, "returncode": child.returncode, "stdout": child.stdout, **_sizes(net)}
        try:
            doc = json.loads(child.stdout)
        except json.JSONDecodeError:
            return Answer(False, info=info)
        if kind == "contradicted":
            info.update(perturbed=1, detected=int(child.returncode == EXIT_INCONSISTENT))
            if child.returncode == EXIT_INCONSISTENT:
                return Answer(doc.get("error") == "inconsistent_observations", info=info)
            # Known defect: with every flow observed, ``--theorem auto`` routes
            # to the forest solve, drops the contradicted chord and exits 0.
            known = child.returncode == EXIT_OK and doc.get("theorem") == "forest_flows"
            return Answer(False, known_defect=known, info=info)
        if child.returncode != EXIT_OK or "state" not in doc:
            return Answer(False, info=info)
        state, res = doc["state"], doc["residuals"]
        heads = _vector(state["heads"], net.node_ids)
        flows = _vector(state["flows"], net.pipe_ids)
        demands = _vector(state["demands"], net.consumer_ids)
        if kind == "demand_driven":
            info.update(_newton_sizes(net, int(doc["iterations"])))
            tol, residual_tol = NEWTON_TOL, NEWTON_RESIDUAL
        else:
            tol, residual_tol = CLOSED_FORM_TOL, CLOSED_FORM_RESIDUAL
        expected_theorem = {"heads_flows": "heads_and_flows"}.get(kind, kind)
        ok = (
            doc["theorem"] == expected_theorem
            and max(res["energy_inf_norm"], res["mass_inf_norm"]) <= residual_tol
            and _close(heads, truth.heads, tol)
            and _close(flows, truth.flows, tol)
            and _close(demands, truth.demands, tol)
        )
        return Answer(ok, info=info)

    return Request(kind, run)


def _cli_probe(root: Path, tracer: Tracer) -> Callable[[Request, Answer], Answer]:
    """Traced-run extras: a bare ``import hydrostate.cli`` child and the same argv in-process."""

    def probe(request: Request, answer: Answer) -> Answer:
        info = answer.info
        with tracer.span("cli.startup"):
            subprocess.run(
                [sys.executable, "-c", "import hydrostate.cli"],
                check=True,
                env=child_env(root),
                cwd=root,
                timeout=CHILD_TIMEOUT_S,
            )
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli(info["argv"])
        same = code == info["returncode"] and out.getvalue() == info["stdout"]
        return Answer(answer.ok and same, answer.known_defect and same, info)

    return probe
