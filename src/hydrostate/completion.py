"""State-completion solvers, one per proven observation pattern.

Four routes recover a full physically correct state:

* all heads known: closed form, flows then demands;
* reservoir heads plus all flows: a tree walk with a consistency
  test, since cyclic flow patterns can contradict the energy law;
* observed heads plus flows on a forest reaching every other node from
  them: a walk along the forest for the other heads, then chord flows and
  demands in closed form;
* reservoir heads plus consumer demands (the classic simulator input):
  damped Newton iteration on the coupled energy/mass system, whose solution
  exists and is unique. Each step eliminates the flows and solves only the
  symmetric positive definite consumer-head system (the Global Gradient
  Algorithm of Todini & Pilati), by the block elimination of
  :mod:`hydrostate.band`.

Every route rejects non-finite heads, flows and demands.
"""

from __future__ import annotations

import enum
import math
import operator
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DecompositionMismatchError,
    FormatError,
    InconsistentObservationsError,
    InvalidObservationError,
    MissingObservationError,
    NonConvergenceError,
    ObservationOverflowError,
)
from .hydraulics import (
    HAZEN_WILLIAMS_EXPONENT,
    SOLVER_TOLERANCE,
    HydraulicState,
    ResidualReport,
    head_loss,
    invert_head_loss,
    residual_report,
    state_to_json_dict,
)
from .band import solve_heads
from .network import (
    Network,
    NodeRole,
    check_json_object,
    consumer_outflow,
    finite_numbers,
    json_number,
)
from .structure import (
    EdgeDecomposition,
    orient_forest,
    pipe_positions,
    walk_heads,
)


class CompletionMethod(enum.Enum):
    ALL_HEADS = "all_heads"
    HEADS_AND_FLOWS = "heads_and_flows"
    FOREST_FLOWS = "forest_flows"
    DEMAND_DRIVEN = "demand_driven"


#: Default relative tolerance of the energy-law test of observed flows.
DEFAULT_IMAGE_TOL = 1e-9
#: The sections of an observation set, the only keys of an observation document.
_SECTIONS = ("heads", "flows", "demands")


@dataclass(frozen=True)
class ObservationSet:
    """Known heads, flows and demands keyed by node/pipe id."""

    heads: Mapping[str, float] = field(default_factory=dict)
    flows: Mapping[str, float] = field(default_factory=dict)
    demands: Mapping[str, float] = field(default_factory=dict)

    def validate(self, net: Network) -> None:
        """Check that each section maps known ids (demands: consumer ids) to finite numbers."""
        for section in _SECTIONS:
            values, where = getattr(self, section), f"observation section {section!r}"
            finite_numbers(values, values, where, InvalidObservationError)
        for nid in self.heads:
            if nid not in net.node_index:
                raise InvalidObservationError(f"head observation at unknown node {nid!r}")
        for pid in self.flows:
            if pid not in net.pipe_index:
                raise InvalidObservationError(f"flow observation at unknown pipe {pid!r}")
        for nid in self.demands:
            node = net.node_index.get(nid)
            if node is None or net.roles[node] is not NodeRole.CONSUMER:
                raise InvalidObservationError(
                    f"demand observation at {nid!r}, which is not a consumer node"
                )

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
            raise MissingObservationError(f"missing {what} observation for {missing[0]!r}")
        return np.array([float(mapping[i]) for i in ids])

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "ObservationSet":
        check_json_object(doc, _SECTIONS, "observation", "observation section")
        def section(key: str) -> dict[str, float]:
            raw, where = doc.get(key, {}), f"observation section {key!r}"
            numbers = finite_numbers(raw, raw, where, FormatError)  # first: raw must be a mapping
            for k in raw:
                if not isinstance(k, str):
                    raise FormatError(f"non-string id {k!r} in {where}")
            return dict(zip(raw, numbers))
        return cls(*map(section, _SECTIONS))

    def to_json_dict(self) -> dict:
        return {section: dict(getattr(self, section)) for section in _SECTIONS}


#: Floor on ``|q|`` in the Newton slopes, where the head-loss derivative vanishes at zero flow.
ZERO_FLOW_EPSILON = 1e-8
#: Step halvings a Newton step may take before the solve gives up.
MAX_STEP_HALVINGS = 30
#: A stalled residual at most this times its largest head term is float rounding alone.
FLOAT_RESOLUTION = 16 * np.finfo(float).eps
#: Default Newton iteration budget of the demand-driven solver.
MAX_ITERATIONS = 100


def require_tolerance(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is a finite number >= 0 (:func:`json_number`'s rule)."""
    if not 0 <= json_number(tol) < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")


def require_iterations(n: int) -> None:
    """Raise ``ValueError`` unless ``n`` is an integer >= 0 (:func:`operator.index`; no bool)."""
    if isinstance(n, bool) or not hasattr(n, "__index__") or operator.index(n) < 0:
        raise ValueError(f"max_iterations must be an integer >= 0, got {n!r}")


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


def _one_per(values, n: int, what: str, per: str) -> np.ndarray:
    """``values`` as a float vector; ``ValueError`` unless it holds one ``what`` per ``per``.

    Unless ``values`` is an ndarray of a real dtype, each entry is read by :func:`json_number`, so
    a non-number becomes NaN; :class:`InvalidObservationError` rejects every non-finite entry.
    """
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        values = np.frompyfunc(json_number, 1, 1)(np.asarray(values, dtype=object))
    vector = np.asarray(values, dtype=float)
    if vector.shape != (n,):
        raise ValueError(f"need one {what} per {per} ({n})")
    if not np.isfinite(vector).all():
        raise InvalidObservationError(f"{what}s must be finite")
    return vector


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


#: Prefix of the file names of this package's modules.
_PACKAGE_PREFIX = os.path.dirname(__file__) + os.sep


def _warn_negative_heads(net: Network, h: np.ndarray, nodes: np.ndarray) -> None:
    """Warn at the first caller outside the package when a head of ``nodes`` is negative.

    Heads are physically nonnegative, but the equations are solvable over all
    reals; a negative computed head flags implausible inputs, it does not
    invalidate the solution. The warning names the roles of the negative heads.
    """
    roles = sorted({net.roles[k].value for k in nodes[h[nodes] < 0].tolist()})
    if roles:
        frame, level = sys._getframe(), 1
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_PREFIX):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"completion produced negative {' and '.join(roles)} heads; the solution is "
            "mathematically valid but physically implausible",
            stacklevel=level,
        )


def _complete_on_forest(net, heads, grounded, forest, observed, flows, tol, theorem):
    """The linear routes: walk ``forest`` from the ``grounded`` heads, check ``observed`` flows.

    ``forest`` holds pipe positions, or is None for the canonical forest from the reservoirs.
    ``tol=None`` skips the check, for flows that the walk cannot contradict.
    """
    loss = np.zeros(net.n_pipes)
    if observed.size:
        loss[observed] = observed_head_loss(net, observed, flows)
    walk = net.grounded_tree.walk if forest is None else orient_forest(net, forest, grounded)
    h = walk_heads(walk, heads, loss)
    drops = h[net.tail_indices] - h[net.head_indices]
    q = invert_head_loss(drops, net.resistances)
    q[observed] = flows
    outflow = consumer_outflow(net, q)
    d = -outflow
    # Losses finite one by one can overflow when summed along a path, and so
    # can head drops and demands: no NaN state.
    if not (np.isfinite(h).all() and np.isfinite(q).all() and np.isfinite(d).all()):
        raise ObservationOverflowError("observations overflow the completed state")
    if observed.size and tol is not None:
        _check_flows(net, h, observed, loss[observed], tol)
    _warn_negative_heads(net, h, walk.child)
    report = residual_report(net, drops - head_loss(q, net.resistances), d + outflow)
    return SolveReport(HydraulicState(h, q, d), 0, report, theorem)


def _check(observed: str, mismatch: np.ndarray, reference: np.ndarray, tol: float) -> None:
    """Raise if the largest ``|mismatch|`` exceeds ``tol`` times ``max(1, max|reference|)``."""
    residual = float(np.max(np.abs(mismatch), initial=0.0))
    if residual / max(1.0, float(np.max(np.abs(reference), initial=0.0))) > tol:
        raise InconsistentObservationsError(residual, observed)


def _check_flows(net: Network, h: np.ndarray, pipes: np.ndarray, loss: np.ndarray, tol: float):
    """The one energy-law test of observed flows: raise :class:`InconsistentObservationsError`
    unless the head drops of ``h`` on ``pipes`` match ``loss`` within ``tol`` of the largest
    ``|loss - Br^T h_r|``, with the reservoir heads ``h_r`` read from ``h``."""
    tails, ends = net.tail_indices[pipes], net.head_indices[pipes]
    reservoir = _assemble_heads(net, h[net.reservoir_indices], 0.0)
    _check("flows", h[tails] - h[ends] - loss, loss - (reservoir[tails] - reservoir[ends]), tol)


def check_observations(net: Network, state: HydraulicState, obs: ObservationSet, tol: float):
    """Raise :class:`InconsistentObservationsError` unless flows obey the energy law on the heads of
    ``state``, and heads, then demands, equal its own within ``tol`` of the largest observed."""
    if obs.flows:
        pipes = np.array([net.pipe_index[pid] for pid in obs.flows], dtype=np.intp)
        order = np.argsort(pipes)  # canonical order: an overflow names the first pipe
        pipes, flows = pipes[order], np.array(list(obs.flows.values()), dtype=float)[order]
        _check_flows(net, state.heads, pipes, observed_head_loss(net, pipes, flows), tol)
    completed = {"heads": state.heads, "demands": _assemble_heads(net, 0.0, state.demands)}
    for what, observed in (("heads", obs.heads), ("demands", obs.demands)):
        values = np.array(list(observed.values()), dtype=float)
        _check(what, completed[what][[net.node_index[i] for i in observed]] - values, values, tol)


def complete_from_heads(net: Network, heads: np.ndarray) -> SolveReport:
    """Complete flows and demands from a full head vector (canonical node order).

    Closed form: each pipe flow inverts its head drop, each demand is the net
    inflow those flows deliver.
    """
    h = _one_per(heads, net.n_nodes, "head", "node")
    everything, none = np.arange(net.n_nodes), np.arange(0)
    return _complete_on_forest(net, h, everything, (), none, none, 0.0, CompletionMethod.ALL_HEADS)


def complete_from_reservoir_heads_and_flows(
    net: Network,
    reservoir_heads: np.ndarray,
    flows: np.ndarray,
    tol: float = DEFAULT_IMAGE_TOL,
) -> SolveReport:
    """Complete consumer heads and demands from reservoir heads and all flows.

    The energy law pins down what the consumer heads must produce on every
    pipe; on cyclic networks that system is overdetermined, so arbitrary flow
    vectors may admit no solution. They admit one exactly when
    ``f(q) - Br^T h_r`` lies in the image of ``Bc^T`` (to ``tol`` relative to its
    largest entry, or to 1). Raises
    :class:`InconsistentObservationsError` when a pipe outside the forest
    breaks the energy law, :class:`ObservationOverflowError` when the
    head loss of an observed flow, or a head summed from such losses,
    overflows, and ``ValueError`` when ``tol`` is not finite and nonnegative.
    """
    require_tolerance(tol)
    h_r = _one_per(reservoir_heads, net.n_reservoirs, "reservoir head", "reservoir")
    q = _one_per(flows, net.n_pipes, "flow", "pipe")
    return _complete_on_forest(
        net, _assemble_heads(net, h_r, 0.0), net.reservoir_indices, None,
        np.arange(net.n_pipes), q, tol, CompletionMethod.HEADS_AND_FLOWS,
    )


def complete_from_forest_flows(
    net: Network,
    reservoir_heads: np.ndarray,
    forest_flows: Mapping[str, float],
    decomposition: EdgeDecomposition | None = None,
) -> SolveReport:
    """Complete the state from reservoir heads and flows on the independent edges.

    ``forest_flows`` must be keyed exactly by ``decomposition.independent``.
    Consumer heads come from the tree walk along the forest, the chord flows
    from inverting their head drops, the demands from mass balance. The
    forest flows are not checked: the heads are walked from them, so they
    obey the energy law by construction. Raises
    :class:`DecompositionMismatchError` unless the forest spans the consumers,
    :class:`InvalidObservationError` when ``forest_flows`` is not a mapping or
    naming the first forest pipe whose flow is not a finite number, and
    :class:`ObservationOverflowError` when the head loss of a forest flow, or a
    head summed from such losses, overflows.
    """
    if not isinstance(forest_flows, Mapping):
        raise InvalidObservationError("observation section 'flows' must be a mapping")
    forest = net.grounded_tree.forest if decomposition is None else decomposition.independent
    if set(forest_flows) != set(forest):
        raise DecompositionMismatchError(
            "forest flows must be keyed exactly by the decomposition's independent edges"
        )
    h_r = _one_per(reservoir_heads, net.n_reservoirs, "reservoir head", "reservoir")
    return _forest_flows_route(net, net.reservoir_indices, h_r, forest, forest_flows)


def _forest_flows_route(
    net: Network, grounded: Sequence[int], heads: Sequence[float], forest: Sequence[str],
    flows: Mapping[str, float],
) -> SolveReport:
    """The forest route from the ``heads`` at ``grounded``; ``flows`` may hold other pipes too."""
    q_forest = finite_numbers(flows, forest, "observation section 'flows'", InvalidObservationError)
    pipes = np.array(pipe_positions(net, forest), dtype=np.intp)
    h = np.zeros(net.n_nodes)
    h[grounded] = heads
    if np.array_equal(grounded, net.reservoir_indices):
        net.grounded_tree  # built on first use, so that later solves skip the scan and the pass
    return _complete_on_forest(
        net, h, grounded, pipes, pipes, np.array(q_forest), None, CompletionMethod.FOREST_FLOWS
    )


def _initial_point(
    net: Network, reservoir_heads: np.ndarray, demands: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Starting flows and consumer heads for the Newton iteration.

    Solve the network with a linear head-loss law (conductance 1/r). One
    symmetric positive definite solve seeds every pipe with a flow of
    physically sensible size, so the first Jacobian is genuine on every pipe
    that matters. The matrix depends on the network alone, so it is factored
    once per network (:attr:`Network.linear_head_factor`).
    """
    g = 1.0 / net.resistances
    rhs = -demands - consumer_outflow(net, g * _pipe_drops(net, reservoir_heads, 0.0))
    h_c = net.linear_head_factor.solve(rhs)
    q = g * _pipe_drops(net, reservoir_heads, h_c)
    return q, h_c


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
    dh = solve_heads(net.head_band, g, rhs)
    dq = g * (_pipe_drops(net, 0.0, dh) + energy)
    return dq, dh


def solve_reservoir_heads_demands(
    net: Network,
    reservoir_heads: np.ndarray,
    demands: np.ndarray,
    tol: float = SOLVER_TOLERANCE,
    max_iterations: int = MAX_ITERATIONS,
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
    :mod:`hydrostate.band` solves that matrix by block elimination; the start
    solves the network with a linear head-loss law, whose matrix is factored
    once per network and cached as :attr:`Network.linear_head_factor`. The
    head-loss derivative vanishes at zero flow, so ``D`` clamps ``|q|`` from
    below by ``ZERO_FLOW_EPSILON``; the residual itself always uses the exact
    nonlinearity, so the converged state is unbiased. The iteration stops once
    the largest residual is at most ``tol``. Raises ``ValueError`` unless
    ``tol`` is a finite number >= 0 and ``max_iterations`` an integer >= 0,
    :class:`InvalidObservationError` on non-finite heads or demands and
    :class:`NonConvergenceError` when the start's residual is not finite, the
    ``max_iterations`` budget runs out or no damped step decreases the residual
    (saying so when that residual is at the float resolution of the heads).
    """
    require_tolerance(tol)
    require_iterations(max_iterations)
    h_r = _one_per(reservoir_heads, net.n_reservoirs, "reservoir head", "reservoir")
    d = _one_per(demands, net.n_consumers, "demand", "consumer")

    r = net.resistances
    x = HAZEN_WILLIAMS_EXPONENT

    def residual_vector(q: np.ndarray, h_c: np.ndarray) -> np.ndarray:
        energy = _pipe_drops(net, h_r, h_c) - head_loss(q, r)
        mass = consumer_outflow(net, q) + d
        return np.concatenate([energy, mass])

    q, h_c = _initial_point(net, h_r, d)
    F = residual_vector(q, h_c)
    norm = float(np.max(np.abs(F)))
    # An overflowing or NaN start has no finite residual for a step to
    # decrease; the halving below keeps every later norm finite.
    if not math.isfinite(norm):
        raise NonConvergenceError(0, norm)

    iterations = 0
    while norm > tol:
        if iterations >= max_iterations:
            raise NonConvergenceError(iterations, norm)
        slope = x * r * np.maximum(np.abs(q), ZERO_FLOW_EPSILON) ** (x - 1.0)
        try:
            dq, dh = _newton_step(net, slope, F)
        except np.linalg.LinAlgError:
            # Overflowing input gets here: the slopes are so steep that the
            # conductances underflow and the head matrix is singular in
            # floating point.
            raise NonConvergenceError(iterations, norm) from None

        # Halve the step until the residual strictly decreases.
        lam = 1.0
        for _ in range(MAX_STEP_HALVINGS + 1):
            q_new = q + lam * dq
            h_new = h_c + lam * dh
            F_new = residual_vector(q_new, h_new)
            norm_new = float(np.max(np.abs(F_new)))
            if norm_new < norm:
                break
            lam *= 0.5
        else:
            error = NonConvergenceError(iterations, norm)
            scale = float(np.max(np.abs(np.concatenate([h_r, h_c, head_loss(q, r)]))))
            if norm <= FLOAT_RESOLUTION * scale:  # rounding alone leaves a residual this size
                note = f"the residual sits at float resolution for heads up to {scale:.3g} m"
                error.args = (f"{error}; {note}",)
            raise error

        q, h_c, F, norm = q_new, h_new, F_new, norm_new
        iterations += 1

    h = _assemble_heads(net, h_r, h_c)
    _warn_negative_heads(net, h, net.consumer_indices)
    # F holds the residuals of exactly this state, bit for bit.
    report = residual_report(net, F[: net.n_pipes], F[net.n_pipes :])
    return SolveReport(HydraulicState(h, q, d), iterations, report, CompletionMethod.DEMAND_DRIVEN)
