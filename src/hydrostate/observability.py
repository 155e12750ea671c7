"""Classify observation patterns by which guarantee covers them, and complete by it.

The classifier is structural: it reads which ids are observed and column
ranks (at most one union-find scan of the observed pipes), and of the values
only rejects non-numbers and non-finite ones; :func:`complete` checks them against the state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .completion import (
    DEFAULT_IMAGE_TOL, CompletionMethod, ObservationSet, SolveReport, SolverOptions,
    _forest_flows_route, check_observations, complete_from_heads,
    complete_from_reservoir_heads_and_flows, require_iterations, require_tolerance,
    solve_reservoir_heads_demands,
)
from .errors import NotCoveredError
from .network import Network
from .structure import greedy_independent_columns


class Verdict(enum.Enum):
    DETERMINED_ALL_HEADS = "determined_all_heads"
    DETERMINED_FOREST_FLOWS = "determined_forest_flows"
    DETERMINED_DEMAND_DRIVEN = "determined_demand_driven"
    UNDETERMINED_RANK_DEFICIENT = "undetermined_rank_deficient"
    NOT_COVERED = "not_covered"

    @property
    def determined(self) -> bool:
        return self in _ROUTES


@dataclass(frozen=True)
class ObservabilityVerdict:
    verdict: Verdict
    explanation: str
    detail: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "explanation": self.explanation,
            "detail": dict(self.detail),
        }


def classify_observation_pattern(net: Network, pattern: ObservationSet) -> ObservabilityVerdict:
    """Decide which completion guarantee applies to an observation pattern.

    Fixed first-match order:

    1. heads everywhere -> unique flows and demands;
    2. reservoir heads and all consumer demands -> unique heads and flows;
    3. reservoir heads and observed-flow columns of full consumer rank ->
       unique completion from any independent flow subset;
    4. reservoir heads with rank-deficient observed flows -> not determined
       by the flow route;
    5. anything else -> no covered guarantee, no claim either way.
    """
    pattern.validate(net)  # every observed id is known, so counts tell coverage
    n_c = net.n_consumers

    if len(pattern.heads) == net.n_nodes:
        return ObservabilityVerdict(
            Verdict.DETERMINED_ALL_HEADS,
            "heads are observed at every node; flows and demands follow uniquely",
        )

    missing = [nid for nid in net.reservoir_ids if nid not in pattern.heads]
    if not missing:
        if len(pattern.demands) == n_c:
            return ObservabilityVerdict(
                Verdict.DETERMINED_DEMAND_DRIVEN,
                "reservoir heads and all consumer demands determine the state uniquely",
            )

        independent = greedy_independent_columns(net, pattern.flows)
        rank = len(independent)
        if rank == n_c:
            return ObservabilityVerdict(
                Verdict.DETERMINED_FOREST_FLOWS,
                "the observed flows span a forest reaching every consumer; "
                "together with the reservoir heads they determine the state uniquely",
                detail={
                    "flow_rank": rank,
                    "required_rank": n_c,
                    "independent_flows": list(independent),
                },
            )
        return ObservabilityVerdict(
            Verdict.UNDETERMINED_RANK_DEFICIENT,
            "the observed flows do not reach every consumer independently; "
            "the remaining state is not determined by the flow route",
            detail={"flow_rank": rank, "required_rank": n_c},
        )

    return ObservabilityVerdict(
        Verdict.NOT_COVERED,
        "no covered guarantee matches this observation pattern",
        detail={"missing_reservoir_heads": missing},
    )


_ROUTES = {
    Verdict.DETERMINED_ALL_HEADS: CompletionMethod.ALL_HEADS,
    Verdict.DETERMINED_FOREST_FLOWS: CompletionMethod.FOREST_FLOWS,
    Verdict.DETERMINED_DEMAND_DRIVEN: CompletionMethod.DEMAND_DRIVEN,
}


def complete(
    net: Network, obs: ObservationSet, theorem: CompletionMethod | None = None,
    tol: float | None = None, max_iterations: int = SolverOptions.max_iterations,
) -> SolveReport:
    """Complete the state by one route (by default the classifier's), then check every observation.

    ``tol`` (default ``DEFAULT_IMAGE_TOL``, or the solver's when demand-driven) serves both.
    Raises :class:`NotCoveredError` when no route applies, besides the errors of the route, and
    ``ValueError`` when ``tol`` is not a finite number >= 0 or ``max_iterations`` an integer >= 0.
    """
    if tol is not None:
        require_tolerance(tol)
    require_iterations(max_iterations)
    forest = None
    if theorem is None:
        verdict = classify_observation_pattern(net, obs)  # validates obs
        if verdict.verdict not in _ROUTES:
            raise NotCoveredError(verdict.explanation, verdict.to_json_dict())
        theorem, forest = _ROUTES[verdict.verdict], verdict.detail.get("independent_flows")
    else:
        obs.validate(net)
    if tol is None:
        demand_driven = theorem is CompletionMethod.DEMAND_DRIVEN
        tol = SolverOptions.tolerance if demand_driven else DEFAULT_IMAGE_TOL
    if theorem is CompletionMethod.ALL_HEADS:
        report = complete_from_heads(net, obs.head_vector(net))
    elif theorem is CompletionMethod.HEADS_AND_FLOWS:
        h_r, q = obs.reservoir_head_vector(net), obs.flow_vector(net)
        report = complete_from_reservoir_heads_and_flows(net, h_r, q, tol)
        obs = replace(obs, flows={})  # the route has checked every flow
    elif theorem is CompletionMethod.DEMAND_DRIVEN:
        h_r, d = obs.reservoir_head_vector(net), obs.demand_vector(net)
        options = SolverOptions(max_iterations=max_iterations, tolerance=tol)
        report = solve_reservoir_heads_demands(net, h_r, d, options)
    else:
        if forest is None:
            forest = greedy_independent_columns(net, obs.flows)
        if len(forest) < net.n_consumers:
            message = "observed flows do not span a forest reaching every consumer"
            detail = {"error": "rank_deficient_flows", "message": message, "flow_rank": len(forest)}
            raise NotCoveredError(message, {**detail, "required_rank": net.n_consumers})
        report = _forest_flows_route(net, obs.reservoir_head_vector(net), forest, obs.flows)
    check_observations(net, report.state, obs, tol)
    return report
