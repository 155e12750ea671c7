"""State-completion solvers, one per proven observation pattern.

Four routes recover a full physically correct state:

* all heads known: closed form, flows then demands;
* reservoir heads plus all flows: linear least squares with a consistency
  test, since cyclic flow patterns can contradict the energy law;
* reservoir heads plus flows on a forest: invertible square solve for the
  consumer heads, then chord flows and demands in closed form;
* reservoir heads plus consumer demands (the classic simulator input):
  damped Newton iteration on the coupled energy/mass system, whose solution
  exists and is unique. Each step eliminates the flows and solves only the
  symmetric positive definite consumer-head system (the Global Gradient
  Algorithm of Todini & Pilati). Consumers are numbered in reverse
  Cuthill-McKee order, which makes that matrix banded with a small
  bandwidth b on mesh-like networks, and a block-tridiagonal elimination
  solves it in O(n_c * b) memory. The solver uses numpy only:
  ``import scipy.sparse.linalg`` alone costs about 0.45 s and 32 MB of
  resident memory, more than a whole solve of a few thousand consumers.

Every route rejects non-finite heads, flows and demands.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    DecompositionMismatchError,
    FormatError,
    InconsistentObservationsError,
    InvalidObservationError,
    NonConvergenceError,
    ObservationOverflowError,
)
from .hydraulics import (
    HAZEN_WILLIAMS_EXPONENT,
    SOLVER_TOLERANCE,
    HydraulicState,
    ResidualReport,
    demands_from_flows,
    head_loss,
    invert_head_loss,
    residuals,
    state_to_json_dict,
)
from .network import Network, consumer_outflow, incidence_matrix
from .structure import (
    DEFAULT_IMAGE_TOL,
    EdgeDecomposition,
    image_membership,
    select_independent_edges,
)


class CompletionMethod(enum.Enum):
    ALL_HEADS = "all_heads"
    HEADS_AND_FLOWS = "heads_and_flows"
    FOREST_FLOWS = "forest_flows"
    DEMAND_DRIVEN = "demand_driven"


@dataclass(frozen=True)
class ObservationSet:
    """Known heads, flows and demands keyed by node/pipe id."""

    heads: Mapping[str, float] = field(default_factory=dict)
    flows: Mapping[str, float] = field(default_factory=dict)
    demands: Mapping[str, float] = field(default_factory=dict)

    def validate(self, net: Network) -> None:
        """Check that every key resolves; demand keys must be consumer nodes."""
        for nid in self.heads:
            if nid not in net.node_index:
                raise InvalidObservationError(f"head observation at unknown node {nid!r}")
        for pid in self.flows:
            if pid not in net.pipe_index:
                raise InvalidObservationError(f"flow observation at unknown pipe {pid!r}")
        consumers = set(net.consumer_ids)
        for nid in self.demands:
            if nid not in consumers:
                raise InvalidObservationError(
                    f"demand observation at {nid!r}, which is not a consumer node"
                )

    def covers_all_heads(self, net: Network) -> bool:
        return all(nid in self.heads for nid in net.node_ids)

    def covers_reservoir_heads(self, net: Network) -> bool:
        return all(nid in self.heads for nid in net.reservoir_ids)

    def covers_all_demands(self, net: Network) -> bool:
        return all(nid in self.demands for nid in net.consumer_ids)

    def covers_all_flows(self, net: Network) -> bool:
        return all(pid in self.flows for pid in net.pipe_ids)

    def head_vector(self, net: Network) -> np.ndarray:
        return self._vector(self.heads, net.node_ids, "head")

    def reservoir_head_vector(self, net: Network) -> np.ndarray:
        return self._vector(self.heads, net.reservoir_ids, "reservoir head")

    def flow_vector(self, net: Network) -> np.ndarray:
        return self._vector(self.flows, net.pipe_ids, "flow")

    def demand_vector(self, net: Network) -> np.ndarray:
        return self._vector(self.demands, net.consumer_ids, "demand")

    @staticmethod
    def _vector(mapping: Mapping[str, float], ids: tuple[str, ...], what: str) -> np.ndarray:
        missing = [i for i in ids if i not in mapping]
        if missing:
            raise InvalidObservationError(f"missing {what} observation for {missing[0]!r}")
        return np.array([float(mapping[i]) for i in ids])

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "ObservationSet":
        if not isinstance(doc, Mapping):
            raise FormatError("observation document must be a JSON object")
        def section(key: str) -> dict[str, float]:
            raw = doc.get(key, {})
            if not isinstance(raw, Mapping):
                raise FormatError(f"observation section {key!r} must be an object")
            try:
                values = {str(k): float(v) for k, v in raw.items()}
            except (TypeError, ValueError):
                raise FormatError(f"non-numeric value in observation section {key!r}") from None
            for k, v in values.items():
                if not math.isfinite(v):
                    raise FormatError(
                        f"non-finite value {v!r} at {k!r} in observation section {key!r}"
                    )
            return values
        return cls(heads=section("heads"), flows=section("flows"), demands=section("demands"))

    def to_json_dict(self) -> dict:
        return {
            "heads": dict(self.heads),
            "flows": dict(self.flows),
            "demands": dict(self.demands),
        }


@dataclass(frozen=True)
class SolverOptions:
    """Iteration plumbing for the demand-driven solver."""

    max_iterations: int = 100
    tolerance: float = SOLVER_TOLERANCE
    zero_flow_epsilon: float = 1e-8
    initial_strategy: str = "linear"  # linear | forest | flat | random
    random_seed: int | None = None
    max_step_halvings: int = 30


@dataclass(frozen=True)
class SolveReport:
    """A completed state plus how it was obtained."""

    state: HydraulicState
    iterations: int
    final_residual: ResidualReport
    theorem: CompletionMethod

    def to_json_dict(self, net: Network) -> dict:
        return {
            "theorem": self.theorem.value,
            "iterations": self.iterations,
            "state": state_to_json_dict(net, self.state),
            "residuals": self.final_residual.to_json_dict(),
        }


def _assemble_heads(
    net: Network, reservoir_heads: np.ndarray | float, consumer_heads: np.ndarray | float
) -> np.ndarray:
    h = np.empty(net.n_nodes)
    h[net.reservoir_indices] = reservoir_heads
    h[net.consumer_indices] = consumer_heads
    return h


def _pipe_drops(
    net: Network, reservoir_heads: np.ndarray | float, consumer_heads: np.ndarray | float
) -> np.ndarray:
    """Head drop along every pipe, ``Br^T h_r + Bc^T h_c``."""
    h = _assemble_heads(net, reservoir_heads, consumer_heads)
    return h[net.tail_indices] - h[net.head_indices]


def _solve_heads(net: Network, weights: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``Bc diag(weights) Bc^T x = rhs`` for positive pipe weights.

    A pipe adds its weight on the diagonal at each consumer end and subtracts
    it at the two off-diagonal cells when both ends are consumers; one
    scatter over :attr:`Network.head_band` fills the blocks of the matrix in
    reverse Cuthill-McKee order. The matrix is symmetric positive definite,
    so every Schur complement of the block-tridiagonal elimination is too
    and pivoting inside each diagonal block suffices. Time is
    O(n_c * block**2) and memory O(n_c * block).
    """
    band = net.head_band
    s, n = band.block, band.n_blocks
    values = weights[band.pipes]
    values[band.n_diagonal :] *= -1.0
    flat = np.bincount(band.cells, values, minlength=(2 * n - 1) * s * s)
    flat[band.padding] = 1.0
    blocks = flat.reshape(2 * n - 1, s, s)
    diagonal, below = blocks[:n], blocks[n:]

    y = np.zeros(n * s)
    y[: net.n_consumers] = rhs[band.order]
    y = y.reshape(n, s)
    # Forward: S_0 = D_0, then S_{k+1} = D_{k+1} - L_k S_k^-1 L_k^T, carrying
    # the right-hand side along as one more column.
    schur = diagonal[0]
    eliminated = []
    for k in range(n - 1):
        lower = below[k]
        solved = np.linalg.solve(schur, np.column_stack([lower.T, y[k]]))
        eliminated.append(solved)
        update = lower @ solved
        schur = diagonal[k + 1] - update[:, :s]
        y[k + 1] -= update[:, s]
    x = np.empty((n, s))
    x[n - 1] = np.linalg.solve(schur, y[n - 1])
    for k in range(n - 2, -1, -1):
        x[k] = eliminated[k][:, s] - eliminated[k][:, :s] @ x[k + 1]

    out = np.empty(net.n_consumers)
    out[band.order] = x.reshape(-1)[: net.n_consumers]
    return out


def _require_finite(what: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise InvalidObservationError(f"{what} must be finite")


def observed_head_loss(net: Network, pipes: np.ndarray, flows: np.ndarray) -> np.ndarray:
    """Head loss of the observed ``flows`` on the pipes with indices ``pipes``.

    Raises :class:`ObservationOverflowError` naming the first pipe whose
    finite flow has a head loss that overflows to inf.
    """
    with np.errstate(over="ignore"):
        loss = head_loss(flows, net.resistances[pipes])
    overflow = np.flatnonzero(~np.isfinite(loss))
    if overflow.size:
        pid = net.pipe_ids[pipes[overflow[0]]]
        raise ObservationOverflowError(f"observed flow on pipe {pid!r} overflows its head loss")
    return loss


def _warn_negative_heads(consumer_heads: np.ndarray) -> None:
    # Heads are physically nonnegative, but the equations are solvable over
    # all reals; a negative computed head flags implausible inputs, it does
    # not invalidate the solution.
    if np.any(consumer_heads < 0):
        warnings.warn(
            "completion produced negative consumer heads; the solution is "
            "mathematically valid but physically implausible",
            stacklevel=3,
        )


def complete_from_heads(net: Network, heads: np.ndarray) -> SolveReport:
    """Complete flows and demands from a full head vector (canonical node order).

    Closed form: each pipe flow inverts its head drop, each demand is the net
    inflow those flows deliver.
    """
    h = np.asarray(heads, dtype=float)
    if h.shape != (net.n_nodes,):
        raise ValueError(f"head vector must have one entry per node ({net.n_nodes})")
    _require_finite("heads", h)
    drops = h[net.tail_indices] - h[net.head_indices]
    q = invert_head_loss(drops, net.resistances)
    d = demands_from_flows(net, q)
    state = HydraulicState(h, q, d)
    return SolveReport(state, 0, residuals(net, state), CompletionMethod.ALL_HEADS)


def complete_from_reservoir_heads_and_flows(
    net: Network,
    reservoir_heads: np.ndarray,
    flows: np.ndarray,
    tol: float = DEFAULT_IMAGE_TOL,
) -> SolveReport:
    """Complete consumer heads and demands from reservoir heads and all flows.

    The energy law pins down what the consumer heads must produce on every
    pipe; on cyclic networks that system is overdetermined, so arbitrary flow
    vectors may admit no solution. Raises
    :class:`InconsistentObservationsError` when the least-squares test
    rejects the observations, and :class:`ObservationOverflowError` when the
    head loss of an observed flow, or a head summed from such losses,
    overflows.
    """
    h_r = np.asarray(reservoir_heads, dtype=float)
    q = np.asarray(flows, dtype=float)
    if h_r.shape != (net.n_reservoirs,):
        raise ValueError(f"need one reservoir head per reservoir ({net.n_reservoirs})")
    if q.shape != (net.n_pipes,):
        raise ValueError(f"need one flow per pipe ({net.n_pipes})")
    _require_finite("reservoir heads", h_r)
    _require_finite("flows", q)
    target = observed_head_loss(net, np.arange(net.n_pipes), q) - _pipe_drops(net, h_r, 0.0)
    membership = image_membership(net, target, tol)
    if not math.isfinite(membership.residual):
        raise ObservationOverflowError("observed flows overflow the consumer heads")
    if not membership.member:
        raise InconsistentObservationsError(membership.residual)
    _warn_negative_heads(membership.consumer_heads)
    h = _assemble_heads(net, h_r, membership.consumer_heads)
    d = demands_from_flows(net, q)
    state = HydraulicState(h, q, d)
    return SolveReport(state, 0, residuals(net, state), CompletionMethod.HEADS_AND_FLOWS)


def _forest_consumer_heads(
    net: Network,
    dec: EdgeDecomposition,
    reservoir_heads: np.ndarray,
    forest_flow_vector: np.ndarray,
) -> np.ndarray:
    """Consumer heads from the energy law on forest edges (square invertible solve)."""
    B = incidence_matrix(net)
    Bc = B.restrict(nodes=net.consumer_ids, pipes=dec.independent).entries.astype(float)
    Br = B.restrict(nodes=net.reservoir_ids, pipes=dec.independent).entries.astype(float)
    r = np.array([net.resistances[net.pipe_index[pid]] for pid in dec.independent])
    rhs = head_loss(forest_flow_vector, r) - Br.T @ reservoir_heads
    return np.linalg.solve(Bc.T, rhs)


def complete_from_forest_flows(
    net: Network,
    reservoir_heads: np.ndarray,
    forest_flows: Mapping[str, float],
    decomposition: EdgeDecomposition | None = None,
) -> SolveReport:
    """Complete the state from reservoir heads and flows on the independent edges.

    ``forest_flows`` must be keyed exactly by ``decomposition.independent``.
    Consumer heads come from the invertible forest system, the chord flows
    from inverting their head drops, the demands from mass balance. Raises
    :class:`ObservationOverflowError` when the head loss of a forest flow, or
    a head summed from such losses, overflows.
    """
    dec = decomposition if decomposition is not None else select_independent_edges(net)
    if set(forest_flows) != set(dec.independent):
        raise DecompositionMismatchError(
            "forest flows must be keyed exactly by the decomposition's independent edges"
        )
    h_r = np.asarray(reservoir_heads, dtype=float)
    if h_r.shape != (net.n_reservoirs,):
        raise ValueError(f"need one reservoir head per reservoir ({net.n_reservoirs})")

    q_forest = np.array([float(forest_flows[pid]) for pid in dec.independent])
    _require_finite("reservoir heads", h_r)
    _require_finite("forest flows", q_forest)
    forest = np.array([net.pipe_index[pid] for pid in dec.independent], dtype=np.intp)
    observed_head_loss(net, forest, q_forest)
    h_c = _forest_consumer_heads(net, dec, h_r, q_forest)
    h = _assemble_heads(net, h_r, h_c)

    q = np.empty(net.n_pipes)
    for pid, value in zip(dec.independent, q_forest):
        q[net.pipe_index[pid]] = value
    for pid in dec.dependent:
        j = net.pipe_index[pid]
        drop = h[net.tail_indices[j]] - h[net.head_indices[j]]
        q[j] = invert_head_loss(drop, net.resistances[j])

    d = demands_from_flows(net, q)
    # Head losses that are finite one by one can still overflow when summed
    # along a path; report that as an overflow, never as a state with NaN.
    if not all(np.all(np.isfinite(v)) for v in (h, q, d)):
        raise ObservationOverflowError("observed forest flows overflow the completed state")
    _warn_negative_heads(h_c)
    state = HydraulicState(h, q, d)
    return SolveReport(state, 0, residuals(net, state), CompletionMethod.FOREST_FLOWS)


def _initial_point(
    net: Network,
    reservoir_heads: np.ndarray,
    demands: np.ndarray,
    options: SolverOptions,
) -> tuple[np.ndarray, np.ndarray]:
    """Starting flows and consumer heads for the Newton iteration."""
    if options.initial_strategy == "linear":
        # Solve the network with a linear head-loss law (conductance 1/r).
        # One symmetric positive definite solve seeds every pipe with a flow
        # of physically sensible size, so the first Jacobian is genuine on
        # every pipe that matters.
        g = 1.0 / net.resistances
        rhs = -demands - consumer_outflow(net, g * _pipe_drops(net, reservoir_heads, 0.0))
        h_c = _solve_heads(net, g, rhs)
        q = g * _pipe_drops(net, reservoir_heads, h_c)
        return q, h_c
    if options.initial_strategy == "forest":
        # Mass-feasible start: forest flows carry the demands, chords stay dry.
        dec = select_independent_edges(net)
        B = incidence_matrix(net)
        Bc = B.restrict(nodes=net.consumer_ids, pipes=dec.independent).entries.astype(float)
        q_forest = np.linalg.solve(Bc, -demands)
        q = np.zeros(net.n_pipes)
        for pid, value in zip(dec.independent, q_forest):
            q[net.pipe_index[pid]] = value
        h_c = _forest_consumer_heads(net, dec, reservoir_heads, q_forest)
        return q, h_c
    if options.initial_strategy == "flat":
        return np.zeros(net.n_pipes), np.full(net.n_consumers, float(np.mean(reservoir_heads)))
    if options.initial_strategy == "random":
        rng = np.random.default_rng(options.random_seed)
        scale = max(1.0, float(np.max(np.abs(demands), initial=0.0)))
        q = rng.uniform(-scale, scale, net.n_pipes)
        lo = float(np.min(reservoir_heads)) - 10.0
        hi = float(np.max(reservoir_heads)) + 10.0
        h_c = rng.uniform(lo, hi, net.n_consumers)
        return q, h_c
    raise ValueError(f"unknown initial strategy: {options.initial_strategy!r}")


def _newton_step(net: Network, slope: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton step ``(dq, dh_c)`` for the residual ``F = (energy, mass)``.

    The Jacobian is ``[[-D, Bc^T], [Bc, 0]]`` with ``D = diag(slope)``. Its
    Schur complement eliminates the flows: solve
    ``Bc D^-1 Bc^T dh_c = -mass - Bc D^-1 energy``, then
    ``dq = D^-1 (Bc^T dh_c + energy)``.
    """
    energy, mass = F[: net.n_pipes], F[net.n_pipes :]
    g = 1.0 / slope
    rhs = -mass - consumer_outflow(net, g * energy)
    dh = _solve_heads(net, g, rhs)
    dq = g * (_pipe_drops(net, 0.0, dh) + energy)
    return dq, dh


def solve_reservoir_heads_demands(
    net: Network,
    reservoir_heads: np.ndarray,
    demands: np.ndarray,
    options: SolverOptions | None = None,
) -> SolveReport:
    """Solve for consumer heads and flows given reservoir heads and demands.

    This is the demand-driven setting of classical hydraulic simulators. The
    coupled system

    * energy: ``Bc^T h_c + Br^T h_r - f(q) = 0`` on every pipe,
    * mass: ``Bc q + d = 0`` at every consumer,

    is solved by damped Newton iteration on the unknowns ``(q, h_c)``. Each
    step eliminates the flow update and solves the reduced symmetric positive
    definite system ``Bc D^-1 Bc^T dh_c = ...`` over the consumer heads alone
    (the Global Gradient Algorithm, as in EPANET), where ``D = diag(f'(q))``.
    That matrix is factored block by block in the reverse Cuthill-McKee
    consumer order of :attr:`Network.head_band`, in O(n_c * b) memory for
    bandwidth b, with numpy alone (see the module docstring). The head-loss
    derivative vanishes at zero flow, so ``D`` clamps ``|q|`` from below by
    ``options.zero_flow_epsilon``; the residual itself always uses the exact
    nonlinearity, so the converged state is unbiased. Raises
    :class:`InvalidObservationError` on non-finite heads or demands and
    :class:`NonConvergenceError` when the iteration budget runs out or no
    damped step decreases the residual.
    """
    opts = options if options is not None else SolverOptions()
    h_r = np.asarray(reservoir_heads, dtype=float)
    d = np.asarray(demands, dtype=float)
    if h_r.shape != (net.n_reservoirs,):
        raise ValueError(f"need one reservoir head per reservoir ({net.n_reservoirs})")
    if d.shape != (net.n_consumers,):
        raise ValueError(f"need one demand per consumer ({net.n_consumers})")
    _require_finite("reservoir heads", h_r)
    _require_finite("demands", d)

    r = net.resistances
    x = HAZEN_WILLIAMS_EXPONENT

    def residual_vector(q: np.ndarray, h_c: np.ndarray) -> np.ndarray:
        energy = _pipe_drops(net, h_r, h_c) - head_loss(q, r)
        mass = consumer_outflow(net, q) + d
        return np.concatenate([energy, mass])

    q, h_c = _initial_point(net, h_r, d, opts)
    F = residual_vector(q, h_c)
    norm = float(np.max(np.abs(F)))

    iterations = 0
    while norm > opts.tolerance:
        if iterations >= opts.max_iterations:
            raise NonConvergenceError(iterations, norm)
        slope = x * r * np.maximum(np.abs(q), opts.zero_flow_epsilon) ** (x - 1.0)
        try:
            dq, dh = _newton_step(net, slope, F)
        except np.linalg.LinAlgError:
            # Overflowing input gets here: the slopes are so steep that the
            # conductances underflow and the head matrix is singular in
            # floating point.
            raise NonConvergenceError(iterations, norm) from None

        # Halve the step until the residual strictly decreases.
        lam = 1.0
        for _ in range(opts.max_step_halvings + 1):
            q_new = q + lam * dq
            h_new = h_c + lam * dh
            F_new = residual_vector(q_new, h_new)
            norm_new = float(np.max(np.abs(F_new)))
            if norm_new < norm:
                break
            lam *= 0.5
        else:
            raise NonConvergenceError(iterations, norm)

        q, h_c, F, norm = q_new, h_new, F_new, norm_new
        iterations += 1

    _warn_negative_heads(h_c)
    h = _assemble_heads(net, h_r, h_c)
    state = HydraulicState(h, q, d)
    return SolveReport(state, iterations, residuals(net, state), CompletionMethod.DEMAND_DRIVEN)
