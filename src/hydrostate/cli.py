"""Command-line front end.

Subcommands: validate, analyze, solve, check, generate. Standard output is
always a single JSON document (or empty on usage/file errors); diagnostics go
to standard error. Exit codes: 0 success, 1 failed validation/check, 2
inconsistent observations, 3 no convergence, 4 pattern not covered, 64 usage
error, 65 file or parse error. ``solve`` also exits 65, like a non-finite
value in the observation file, when a finite observed flow is so large that
its head loss overflows.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Mapping

import numpy as np

from .completion import (
    ObservationSet,
    SolverOptions,
    complete_from_forest_flows,
    complete_from_heads,
    complete_from_reservoir_heads_and_flows,
    observed_head_loss,
    solve_reservoir_heads_demands,
)
from .errors import (
    FormatError,
    InconsistentObservationsError,
    InfeasibleConfigError,
    InvalidObservationError,
    NetworkValidationError,
    NonConvergenceError,
    ObservationOverflowError,
)
from .hydraulics import SOLVER_TOLERANCE, residuals, state_from_json_dict
from .network import Network, network_from_json_dict, network_to_json_dict
from .observability import Verdict, classify_observation_pattern
from .structure import DEFAULT_IMAGE_TOL, EdgeDecomposition, greedy_independent_columns
from .testkit import GeneratorConfig, random_connected_wds

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_INCONSISTENT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NOT_COVERED = 4
EXIT_USAGE = 64
EXIT_FILE = 65


def _emit(payload: Any) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))


def _finite_or_none(value: float) -> float | None:
    """``value``, or ``None`` (JSON ``null``) when it overflowed to inf or NaN."""
    return value if math.isfinite(value) else None


def _diag(message: str) -> None:
    print(f"hydrostate: {message}", file=sys.stderr)


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_network(path: str) -> Network:
    return network_from_json_dict(_load_json(path))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrostate",
        description="Complete and analyze hydraulic states of water distribution networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a network file")
    p.add_argument("network")

    p = sub.add_parser("analyze", help="classify an observation pattern")
    p.add_argument("network")
    p.add_argument("--pattern", required=True)

    p = sub.add_parser("solve", help="complete the hydraulic state from observations")
    p.add_argument("network")
    p.add_argument("--obs", required=True)
    p.add_argument(
        "--theorem",
        choices=["auto", "all-heads", "heads-flows", "forest-flows", "demand-driven"],
        default="auto",
    )
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=100)

    p = sub.add_parser("check", help="check a state against the hydraulic principles")
    p.add_argument("network")
    p.add_argument("--state", required=True)
    p.add_argument("--tol", type=float, default=SOLVER_TOLERANCE)

    p = sub.add_parser("generate", help="generate a random connected network")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reservoirs", type=int, default=1)
    p.add_argument("--consumers", type=int, default=3)
    p.add_argument("--extra-edges", type=int, default=0)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help (code 0) and usage errors (code 2) itself.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "generate":
            return _cmd_generate(args)
        raise AssertionError(args.command)
    except (OSError, json.JSONDecodeError, FormatError) as exc:
        _diag(str(exc))
        return EXIT_FILE


def _cmd_validate(args) -> int:
    try:
        net = _load_network(args.network)
    except NetworkValidationError as exc:
        _emit({"valid": False, "error": type(exc).__name__, "message": str(exc)})
        return EXIT_FAILED_CHECK
    _emit(
        {
            "valid": True,
            "nodes": net.n_nodes,
            "reservoirs": net.n_reservoirs,
            "consumers": net.n_consumers,
            "pipes": net.n_pipes,
        }
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    net = _load_network(args.network)
    try:
        pattern = ObservationSet.from_json_dict(_load_json(args.pattern))
        pattern.validate(net)
    except InvalidObservationError as exc:
        _diag(str(exc))
        return EXIT_FILE
    verdict = classify_observation_pattern(net, pattern)
    _emit(verdict.to_json_dict())
    return EXIT_OK


def _cmd_solve(args) -> int:
    net = _load_network(args.network)
    try:
        obs = ObservationSet.from_json_dict(_load_json(args.obs))
        obs.validate(net)
    except InvalidObservationError as exc:
        _diag(str(exc))
        return EXIT_FILE

    solver_tol = args.tol if args.tol is not None else SOLVER_TOLERANCE
    image_tol = args.tol if args.tol is not None else DEFAULT_IMAGE_TOL
    options = SolverOptions(max_iterations=args.max_iter, tolerance=solver_tol)

    theorem = args.theorem
    verdict = None
    if theorem == "auto":
        verdict = classify_observation_pattern(net, obs)
        if verdict.verdict is Verdict.DETERMINED_ALL_HEADS:
            theorem = "all-heads"
        elif verdict.verdict is Verdict.DETERMINED_DEMAND_DRIVEN:
            theorem = "demand-driven"
        elif verdict.verdict is Verdict.DETERMINED_FOREST_FLOWS:
            theorem = "forest-flows"
        elif verdict.verdict is Verdict.CONDITIONALLY_DETERMINED_FLOWS:
            theorem = "heads-flows"
        else:
            _emit(verdict.to_json_dict())
            return EXIT_NOT_COVERED

    try:
        if theorem == "all-heads":
            report = complete_from_heads(net, obs.head_vector(net))
        elif theorem == "heads-flows":
            report = complete_from_reservoir_heads_and_flows(
                net, obs.reservoir_head_vector(net), obs.flow_vector(net), image_tol
            )
        elif theorem == "forest-flows":
            observed = tuple(pid for pid in net.pipe_ids if pid in obs.flows)
            independent = (
                greedy_independent_columns(net, observed)
                if verdict is None
                else tuple(verdict.detail["independent_flows"])
            )
            if len(independent) < net.n_consumers:
                _emit(
                    {
                        "error": "rank_deficient_flows",
                        "message": "observed flows do not span a forest reaching every consumer",
                        "flow_rank": len(independent),
                        "required_rank": net.n_consumers,
                    }
                )
                return EXIT_NOT_COVERED
            chosen = set(independent)
            dec = EdgeDecomposition(
                independent, tuple(pid for pid in net.pipe_ids if pid not in chosen)
            )
            forest_flows = {pid: obs.flows[pid] for pid in independent}
            report = complete_from_forest_flows(
                net, obs.reservoir_head_vector(net), forest_flows, dec
            )
            surplus = {pid: obs.flows[pid] for pid in observed if pid not in chosen}
            if surplus:
                _check_surplus_flows(net, report.state.heads, surplus, image_tol)
        elif theorem == "demand-driven":
            report = solve_reservoir_heads_demands(
                net, obs.reservoir_head_vector(net), obs.demand_vector(net), options
            )
        else:
            raise AssertionError(theorem)
    except ObservationOverflowError as exc:
        _diag(str(exc))
        return EXIT_FILE
    except InvalidObservationError as exc:
        _emit(
            {
                "error": "missing_observations",
                "message": f"observations cannot drive theorem {theorem!r}: {exc}",
            }
        )
        return EXIT_NOT_COVERED
    except InconsistentObservationsError as exc:
        _emit(
            {
                "error": "inconsistent_observations",
                "message": str(exc),
                "residual": _finite_or_none(exc.residual),
            }
        )
        return EXIT_INCONSISTENT
    except NonConvergenceError as exc:
        _emit(
            {
                "error": "no_convergence",
                "message": str(exc),
                "iterations": exc.iterations,
                "residual": _finite_or_none(exc.residual),
            }
        )
        return EXIT_NO_CONVERGENCE

    _emit(report.to_json_dict(net))
    return EXIT_OK


def _check_surplus_flows(
    net: Network, heads: np.ndarray, flows: Mapping[str, float], tol: float
) -> None:
    """Raise :class:`InconsistentObservationsError` if observed flows contradict the heads.

    Each flow must satisfy the energy law ``h_tail - h_head = f(q)`` on its
    pipe. As in :func:`~hydrostate.structure.image_membership`, the largest
    residual is taken relative to the largest entry of the target
    ``f(q) - Br^T h_r``, and never relative to less than 1. A flow whose
    head loss overflows raises :class:`ObservationOverflowError` instead,
    since no residual can be measured against it.
    """
    pipes = np.array([net.pipe_index[pid] for pid in flows])
    tails, ends = net.tail_indices[pipes], net.head_indices[pipes]
    loss = observed_head_loss(net, pipes, np.array(list(flows.values())))
    reservoir = np.zeros(net.n_nodes)
    reservoir[net.reservoir_indices] = heads[net.reservoir_indices]
    target = loss - (reservoir[tails] - reservoir[ends])
    residual = float(np.max(np.abs(heads[tails] - heads[ends] - loss)))
    if residual / max(1.0, float(np.max(np.abs(target)))) > tol:
        raise InconsistentObservationsError(residual)


def _cmd_check(args) -> int:
    net = _load_network(args.network)
    state = state_from_json_dict(net, _load_json(args.state))
    report = residuals(net, state)
    correct = report.physically_correct(args.tol)
    payload = report.to_json_dict()
    payload["physically_correct"] = correct
    payload["tolerance"] = args.tol
    _emit(payload)
    return EXIT_OK if correct else EXIT_FAILED_CHECK


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        seed=args.seed,
        n_reservoirs=args.reservoirs,
        n_consumers=args.consumers,
        extra_edges=args.extra_edges,
    )
    try:
        net = random_connected_wds(cfg)
    except InfeasibleConfigError as exc:
        _diag(str(exc))
        return EXIT_USAGE
    _emit(network_to_json_dict(net))
    return EXIT_OK


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
