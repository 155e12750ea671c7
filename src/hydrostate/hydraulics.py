"""The hydraulic principles as executable functions.

Conservation of energy couples heads to flows through the Hazen-Williams
law; conservation of mass couples flows to demands through the consumer rows
of the incidence matrix. A state satisfying both (to tolerance) is physically
correct. Flow signs are relative to the canonical pipe orientation; positive
demand means withdrawal from the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import FormatError
from .network import HAZEN_WILLIAMS_EXPONENT, Network, consumer_outflow, finite_numbers

#: Residual tolerance for accepting an iteratively solved state.
SOLVER_TOLERANCE = 1e-8


def head_loss(flow, resistance):
    """Head loss ``r * q * |q|**(x-1)`` along a pipe; odd in the flow.

    Accepts scalars or arrays. The sign of the result equals the sign of the
    flow: water loses head in the direction it travels.
    """
    flow = np.asarray(flow, dtype=float)
    return resistance * flow * np.abs(flow) ** (HAZEN_WILLIAMS_EXPONENT - 1.0)


def invert_head_loss(drop, resistance):
    """Flow producing a given head drop: ``sign(dh) * (|dh| / r)**(1/x)``.

    Exact inverse of :func:`head_loss`; returns 0 exactly when the drop is 0.
    """
    drop = np.asarray(drop, dtype=float)
    return np.sign(drop) * (np.abs(drop) / resistance) ** (1.0 / HAZEN_WILLIAMS_EXPONENT)


@dataclass(frozen=True, eq=False)
class HydraulicState:
    """Heads per node, signed flow per pipe, demand per consumer node.

    Vectors follow the network's canonical node/pipe/consumer order. Arrays
    are copied and frozen at construction.
    """

    heads: np.ndarray
    flows: np.ndarray
    demands: np.ndarray

    def __post_init__(self):
        for name in ("heads", "flows", "demands"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def reservoir_heads(self, net: Network) -> np.ndarray:
        return self.heads[net.reservoir_indices]

    def consumer_heads(self, net: Network) -> np.ndarray:
        return self.heads[net.consumer_indices]


def state_to_json_dict(net: Network, state: HydraulicState) -> dict:
    return {
        "heads": {nid: float(state.heads[i]) for i, nid in enumerate(net.node_ids)},
        "flows": {pid: float(state.flows[j]) for j, pid in enumerate(net.pipe_ids)},
        "demands": {cid: float(state.demands[k]) for k, cid in enumerate(net.consumer_ids)},
    }


def state_from_json_dict(net: Network, doc: Mapping) -> HydraulicState:
    """Parse a full state document; every node, pipe and consumer must be covered.

    Raises :class:`FormatError` on a missing entry, on an id that the section
    does not index (naming the first) and on a value that is not a finite
    JSON number.
    """
    if not isinstance(doc, Mapping):
        raise FormatError("state document must be a JSON object")
    columns = []
    for section, ids in (
        ("heads", net.node_ids), ("flows", net.pipe_ids), ("demands", net.consumer_ids)
    ):
        try:
            values = finite_numbers(doc[section], ids, f"state section {section!r}", FormatError)
            if len(doc[section]) > len(ids):
                known = set(ids)
                unknown = next(i for i in doc[section] if i not in known)
                raise FormatError(f"unknown id {unknown!r} in state section {section!r}")
        except (KeyError, TypeError) as exc:
            raise FormatError(f"incomplete or malformed state document: {exc}") from None
        columns.append(np.array(values))
    return HydraulicState(*columns)


def demands_from_flows(net: Network, flows: np.ndarray) -> np.ndarray:
    """Demand vector implied by mass balance: net inflow at each consumer."""
    flows = np.asarray(flows, dtype=float)
    if flows.shape != (net.n_pipes,):
        raise ValueError(f"flow vector must have one entry per pipe ({net.n_pipes})")
    return -consumer_outflow(net, flows)


@dataclass(frozen=True)
class ResidualReport:
    """Infinity norms of the energy and mass residuals with their argmax locations.

    A state is physically correct at tolerance ``tol`` iff both norms are at
    most ``tol``.
    """

    energy_inf_norm: float
    mass_inf_norm: float
    max_energy_pipe: str
    max_mass_node: str

    def physically_correct(self, tol: float) -> bool:
        return self.energy_inf_norm <= tol and self.mass_inf_norm <= tol

    def to_json_dict(self) -> dict:
        return {
            "energy_inf_norm": self.energy_inf_norm,
            "mass_inf_norm": self.mass_inf_norm,
            "max_energy_pipe": self.max_energy_pipe,
            "max_mass_node": self.max_mass_node,
        }


def residuals(net: Network, state: HydraulicState) -> ResidualReport:
    """Per-pipe energy and per-consumer mass residuals of a state."""
    h, q, d = state.heads, state.flows, state.demands
    if h.shape != (net.n_nodes,) or q.shape != (net.n_pipes,) or d.shape != (net.n_consumers,):
        raise ValueError("state dimensions do not match the network")
    energy = (h[net.tail_indices] - h[net.head_indices]) - head_loss(q, net.resistances)
    return residual_report(net, energy, d + consumer_outflow(net, q))


def residual_report(net: Network, energy: np.ndarray, mass: np.ndarray) -> ResidualReport:
    """The report of signed per-pipe energy and per-consumer mass residuals."""
    energy, mass = np.abs(energy), np.abs(mass)
    e_arg = int(energy.argmax())
    m_arg = int(mass.argmax())
    return ResidualReport(
        energy_inf_norm=float(energy[e_arg]),
        mass_inf_norm=float(mass[m_arg]),
        max_energy_pipe=net.pipe_ids[e_arg],
        max_mass_node=net.consumer_ids[m_arg],
    )


def monotonicity_gap(net: Network, flows_a: np.ndarray, flows_b: np.ndarray) -> float:
    """Inner product ``<f(q1) - f(q2), q1 - q2>`` of the head-loss operator.

    Strictly positive whenever the flow vectors differ; zero only at equal
    arguments. Summed with compensated addition so the strict-positivity
    property survives nearly equal inputs.
    """
    qa = np.asarray(flows_a, dtype=float)
    qb = np.asarray(flows_b, dtype=float)
    if qa.shape != (net.n_pipes,) or qb.shape != (net.n_pipes,):
        raise ValueError(f"flow vectors must have one entry per pipe ({net.n_pipes})")
    r = net.resistances
    terms = (head_loss(qa, r) - head_loss(qb, r)) * (qa - qb)
    return math.fsum(terms.tolist())
