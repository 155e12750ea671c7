"""Classify observation patterns by which guarantee covers them.

The classifier is purely structural: it looks at which ids are observed and
at column ranks (one union-find scan of the observed pipes), never at the
observed values. Value-dependent solvability (the full-flows route needs the
observations to be mutually consistent) is reported as a proviso, not
decided here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .completion import ObservationSet
from .network import Network
from .structure import greedy_independent_columns


class Verdict(enum.Enum):
    DETERMINED_ALL_HEADS = "determined_all_heads"
    DETERMINED_FOREST_FLOWS = "determined_forest_flows"
    CONDITIONALLY_DETERMINED_FLOWS = "conditionally_determined_flows"
    DETERMINED_DEMAND_DRIVEN = "determined_demand_driven"
    UNDETERMINED_RANK_DEFICIENT = "undetermined_rank_deficient"
    NOT_COVERED = "not_covered"

    @property
    def determined(self) -> bool:
        return self in (
            Verdict.DETERMINED_ALL_HEADS,
            Verdict.DETERMINED_FOREST_FLOWS,
            Verdict.DETERMINED_DEMAND_DRIVEN,
        )


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
    4. reservoir heads and flows on every pipe -> determined only if the
       values are mutually consistent (reported as a proviso);
    5. reservoir heads with rank-deficient observed flows -> not determined
       by the flow route;
    6. anything else -> no covered guarantee, no claim either way.
    """
    pattern.validate(net)
    n_c = net.n_consumers

    if pattern.covers_all_heads(net):
        return ObservabilityVerdict(
            Verdict.DETERMINED_ALL_HEADS,
            "heads are observed at every node; flows and demands follow uniquely",
        )

    if pattern.covers_reservoir_heads(net):
        if pattern.covers_all_demands(net):
            return ObservabilityVerdict(
                Verdict.DETERMINED_DEMAND_DRIVEN,
                "reservoir heads and all consumer demands determine the state uniquely",
            )

        observed_flows = tuple(pid for pid in net.pipe_ids if pid in pattern.flows)
        independent = greedy_independent_columns(net, observed_flows)
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
        if len(observed_flows) == net.n_pipes:
            # Unreachable for valid networks: complete flow coverage always has
            # full consumer rank. Kept to document the value-conditional route.
            return ObservabilityVerdict(
                Verdict.CONDITIONALLY_DETERMINED_FLOWS,
                "flows are observed on every pipe; the state is determined only if "
                "the observed values are mutually consistent around every cycle",
                detail={"flow_rank": rank, "required_rank": n_c},
            )
        return ObservabilityVerdict(
            Verdict.UNDETERMINED_RANK_DEFICIENT,
            "the observed flows do not reach every consumer independently; "
            "the remaining state is not determined by the flow route",
            detail={"flow_rank": rank, "required_rank": n_c},
        )

    missing = [nid for nid in net.reservoir_ids if nid not in pattern.heads]
    return ObservabilityVerdict(
        Verdict.NOT_COVERED,
        "no covered guarantee matches this observation pattern",
        detail={"missing_reservoir_heads": missing},
    )
