"""Hydraulic state completion and observability analysis for water distribution networks.

Build a network, observe part of its hydraulic state (heads, flows,
demands), and either complete the rest through one of the proven solver
routes or classify whether the observation pattern determines the state at
all.
"""

import importlib

from .completion import (
    CompletionMethod,
    ObservationSet,
    SolveReport,
    SolverOptions,
    complete_from_forest_flows,
    complete_from_heads,
    complete_from_reservoir_heads_and_flows,
    solve_reservoir_heads_demands,
)
from .errors import (
    DecompositionMismatchError,
    DisconnectedNetworkError,
    DuplicateIdError,
    EmptySubsetError,
    FormatError,
    HydrostateError,
    InconsistentObservationsError,
    InfeasibleConfigError,
    InvalidObservationError,
    MissingObservationError,
    NetworkValidationError,
    NoConsumerError,
    NonConvergenceError,
    NonpositiveParameterError,
    NoReservoirError,
    NotCoveredError,
    ObservationOverflowError,
    SelfLoopError,
    UnknownNodeError,
)
from .hydraulics import (
    HAZEN_WILLIAMS_EXPONENT,
    HydraulicState,
    ResidualReport,
    demands_from_flows,
    head_loss,
    invert_head_loss,
    monotonicity_gap,
    residuals,
    state_from_json_dict,
    state_to_json_dict,
)
from .network import (
    Network,
    NodeRole,
    PipeParams,
    build_network,
    network_from_columns,
    network_from_json_dict,
    network_to_json_dict,
    resistance,
)
from .observability import ObservabilityVerdict, Verdict, classify_observation_pattern, complete
from .structure import (
    CycleBasis,
    EdgeDecomposition,
    cycle_space_basis,
    select_independent_edges,
)

__version__ = "0.1.0"

#: Names loaded from their submodule on first use, so that the solver and the
#: CLI load neither the generator nor the exact test oracles.
_LAZY_EXPORTS = {
    **dict.fromkeys(("GeneratorConfig", "params_for_resistance", "random_connected_wds",
                     "random_ground_truth_state"), "testkit"),
    **dict.fromkeys(("IncidenceMatrix", "incidence_matrix", "integer_determinant", "integer_rank",
                     "submatrix_rank", "symmetric_expansion"), "exact"),
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return getattr(importlib.import_module(f".{_LAZY_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
