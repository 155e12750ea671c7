"""Command-line front end.

Subcommands: validate, analyze, solve, check, generate. Standard output is
always a single JSON document (or empty on usage/file errors); diagnostics go
to standard error. Exit codes: 0 success, 1 failed validation/check, 2
inconsistent observations, 3 no convergence, 4 pattern not covered, 64 usage
error, 65 file or parse error. An invalid network makes every subcommand
that reads one emit the ``{"valid": false, ...}`` document of ``validate``
and exit 1. ``solve`` also exits 65, like a non-finite value in the
observation file, when a finite observed flow is so large that its head loss
overflows.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

from .completion import CompletionMethod, ObservationSet, require_tolerance
from .errors import (
    FormatError,
    InconsistentObservationsError,
    InfeasibleConfigError,
    InvalidObservationError,
    MissingObservationError,
    NetworkValidationError,
    NonConvergenceError,
    NotCoveredError,
)
from .hydraulics import SOLVER_TOLERANCE, residuals, state_from_json_dict
from .network import Network, network_from_json_dict, network_to_json_dict
from .observability import classify_observation_pattern, complete

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_INCONSISTENT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NOT_COVERED = 4
EXIT_USAGE = 64
EXIT_FILE = 65

THEOREMS = {
    "auto": None,
    "all-heads": CompletionMethod.ALL_HEADS,
    "heads-flows": CompletionMethod.HEADS_AND_FLOWS,
    "forest-flows": CompletionMethod.FOREST_FLOWS,
    "demand-driven": CompletionMethod.DEMAND_DRIVEN,
}


def _emit(payload: Any) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))


def _finite_or_none(value: float) -> float | None:
    """``value``, or ``None`` (JSON ``null``) when it overflowed to inf or NaN."""
    return value if math.isfinite(value) else None


def _diag(message: str) -> None:
    print(f"hydrostate: {message}", file=sys.stderr)


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or UTF-8, or an integer past the digit limit
            raise FormatError(str(exc)) from None


def _load_network(path: str) -> Network:
    return network_from_json_dict(_load_json(path))


def tolerance(text: str) -> float:
    """``--tol`` value: a finite number >= 0; anything else is a usage error (exit 64)."""
    try:
        value = float(text)
        require_tolerance(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}") from None
    return value


def iteration_count(text: str) -> int:
    """``--max-iter`` value: an integer >= 0; anything else is a usage error (exit 64)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value >= 0:
        return value
    raise argparse.ArgumentTypeError(f"iteration count must be an integer >= 0, got {text!r}")


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
        choices=list(THEOREMS),
        default="auto",
    )
    p.add_argument("--tol", type=tolerance, default=None)
    p.add_argument("--max-iter", type=iteration_count, default=100)

    p = sub.add_parser("check", help="check a state against the hydraulic principles")
    p.add_argument("network")
    p.add_argument("--state", required=True)
    p.add_argument("--tol", type=tolerance, default=SOLVER_TOLERANCE)

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
        if args.command == "generate":
            return _cmd_generate(args)
        try:
            net = _load_network(args.network)
        except NetworkValidationError as exc:
            # Every subcommand that reads a network reports an invalid one alike.
            _emit({"valid": False, "error": type(exc).__name__, "message": str(exc)})
            return EXIT_FAILED_CHECK
        return _NETWORK_COMMANDS[args.command](args, net)
    except (OSError, FormatError) as exc:
        _diag(str(exc))
        return EXIT_FILE


def _cmd_validate(args, net: Network) -> int:
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


def _cmd_analyze(args, net: Network) -> int:
    try:
        pattern = ObservationSet.from_json_dict(_load_json(args.pattern))
        verdict = classify_observation_pattern(net, pattern)
    except InvalidObservationError as exc:
        _diag(str(exc))
        return EXIT_FILE
    _emit(verdict.to_json_dict())
    return EXIT_OK


def _cmd_solve(args, net: Network) -> int:
    obs = ObservationSet.from_json_dict(_load_json(args.obs))
    try:
        report = complete(net, obs, THEOREMS[args.theorem], args.tol, args.max_iter)
    except NotCoveredError as exc:
        _emit(exc.detail)
        return EXIT_NOT_COVERED
    except MissingObservationError as exc:
        _emit(
            {
                "error": "missing_observations",
                "message": f"observations cannot drive theorem {args.theorem!r}: {exc}",
            }
        )
        return EXIT_NOT_COVERED
    except InvalidObservationError as exc:
        _diag(str(exc))
        return EXIT_FILE
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


def _cmd_check(args, net: Network) -> int:
    state = state_from_json_dict(net, _load_json(args.state))
    report = residuals(net, state)
    correct = report.physically_correct(args.tol)
    payload = report.to_json_dict()
    payload["physically_correct"] = correct
    payload["tolerance"] = args.tol
    _emit(payload)
    return EXIT_OK if correct else EXIT_FAILED_CHECK


def _cmd_generate(args) -> int:
    from .testkit import GeneratorConfig, random_connected_wds  # only generate needs the generator

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


_NETWORK_COMMANDS = {"validate": _cmd_validate, "analyze": _cmd_analyze, "solve": _cmd_solve,
                     "check": _cmd_check}


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
