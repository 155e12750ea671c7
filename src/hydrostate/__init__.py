"""Hydraulic state completion and observability analysis for water distribution networks.

Build a network, observe part of its hydraulic state (heads, flows,
demands), and either complete the rest through one of the proven solver
routes or classify whether the observation pattern determines the state at
all.
"""

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
    NetworkValidationError,
    NoConsumerError,
    NonConvergenceError,
    NonpositiveParameterError,
    NoReservoirError,
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
    symmetric_expansion,
)
from .network import (
    IncidenceMatrix,
    Network,
    NodeRole,
    PipeParams,
    build_network,
    incidence_matrix,
    network_from_json_dict,
    network_to_json_dict,
    resistance,
)
from .observability import ObservabilityVerdict, Verdict, classify_observation_pattern
from .structure import (
    CycleBasis,
    EdgeDecomposition,
    ImageMembership,
    cycle_space_basis,
    image_membership,
    select_independent_edges,
    submatrix_rank,
)
from .testkit import (
    GeneratorConfig,
    params_for_resistance,
    random_connected_wds,
    random_ground_truth_state,
)

__version__ = "0.1.0"
