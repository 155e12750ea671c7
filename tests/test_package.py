"""Guards over the whole package: what its runtime paths build, and what the benchmark imports."""

import ast
import importlib
import json
import math
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hydrostate.cli
import hydrostate.exact  # noqa: F401  (loaded so that every module is patched below)
import hydrostate.testkit  # noqa: F401
from hydrostate import (
    CompletionMethod,
    GeneratorConfig,
    HydrostateError,
    InvalidObservationError,
    NonpositiveParameterError,
    ObservationSet,
    PipeParams,
    Verdict,
    build_network,
    classify_observation_pattern,
    complete,
    complete_from_forest_flows,
    cycle_space_basis,
    network_from_columns,
    network_to_json_dict,
    random_connected_wds,
    random_ground_truth_state,
    resistance,
    select_independent_edges,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def route_observations(net, truth) -> dict[CompletionMethod, ObservationSet]:
    """The observations of ``truth`` that each completion route reads, for the canonical forest."""
    heads = dict(zip(net.node_ids, truth.heads.tolist()))
    reservoir_heads = {nid: heads[nid] for nid in net.reservoir_ids}
    flows = dict(zip(net.pipe_ids, truth.flows.tolist()))
    demands = dict(zip(net.consumer_ids, truth.demands.tolist()))
    return {
        CompletionMethod.ALL_HEADS: ObservationSet(heads=heads),
        CompletionMethod.HEADS_AND_FLOWS: ObservationSet(reservoir_heads, flows),
        CompletionMethod.FOREST_FLOWS: ObservationSet(
            reservoir_heads, {pid: flows[pid] for pid in select_independent_edges(net).independent}
        ),
        CompletionMethod.DEMAND_DRIVEN: ObservationSet(reservoir_heads, demands=demands),
    }


def test_runtime_paths_build_no_dense_incidence(monkeypatch, tmp_path, capsys):
    net = random_connected_wds(GeneratorConfig(seed=5, n_reservoirs=2, n_consumers=12, extra_edges=6))
    truth = random_ground_truth_state(net, seed=6)
    dec = select_independent_edges(net)

    def refuse(_net):
        raise AssertionError("a runtime path built the dense incidence matrix")

    bound = [m for name, m in sys.modules.items()
             if name.split(".")[0] == "hydrostate" and "incidence_matrix" in vars(m)]
    assert {m.__name__ for m in bound} == {"hydrostate.exact"}  # the package exports it lazily
    for module in bound:
        monkeypatch.setattr(module, "incidence_matrix", refuse)
    assert hydrostate.incidence_matrix is refuse

    routes = route_observations(net, truth)
    everything = routes[CompletionMethod.HEADS_AND_FLOWS]  # reservoir heads and every flow
    reservoir_heads, flows = everything.heads, everything.flows
    demands = routes[CompletionMethod.DEMAND_DRIVEN].demands
    for method, obs in routes.items():
        assert classify_observation_pattern(net, obs).verdict.determined
        report = complete(net, obs, method)
        assert np.allclose(report.state.heads, truth.heads, rtol=0, atol=1e-6)
    deficient = ObservationSet(reservoir_heads, {dec.independent[0]: flows[dec.independent[0]]})
    verdict = classify_observation_pattern(net, deficient).verdict
    assert verdict is Verdict.UNDETERMINED_RANK_DEFICIENT

    assert cycle_space_basis(net, dec).dimension == net.n_pipes - net.n_consumers

    net_file, obs_file = tmp_path / "net.json", tmp_path / "obs.json"
    net_file.write_text(json.dumps(network_to_json_dict(net)))
    obs_file.write_text(json.dumps({"heads": reservoir_heads, "demands": demands}))
    assert hydrostate.cli.run_cli(["solve", str(net_file), "--obs", str(obs_file)]) == 0
    assert json.loads(capsys.readouterr().out)["theorem"] == "demand_driven"


def test_every_name_the_benchmark_imports_resolves():
    # A name that bench/ imports and the package lost would fail every benchmark run.
    imported = [
        (node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hydrostate"
        for alias in node.names
    ]
    assert imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_benchmark_selfcheck_passes():
    # The benchmark's own self-check: metric names and units against BENCHMARK.json, its
    # correctness gate, and its refusal to run without the package sources.
    child = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=BENCH.parent,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout + child.stderr
    assert "selfcheck passed" in child.stdout


# --- one number rule at every entry point ---------------------------------------

#: Values that no entry point reads as a number: each must end in the entry point's typed error.
NOT_NUMBERS = {
    "True": True,
    "np.True_": np.True_,
    "str": "1.5",
    "bytes": b"1.5",
    "None": None,
    "complex": 1 + 2j,
    "np.complex128": np.complex128(1 + 2j),
    "array": np.array([1.0, 2.0]),
    "10**400": 10**400,
    "nan": math.nan,
    "inf": math.inf,
}
RULE_NET = random_connected_wds(GeneratorConfig(seed=3, n_consumers=5, extra_edges=3))
RULE_ROUTES = route_observations(RULE_NET, random_ground_truth_state(RULE_NET, seed=1))
TWO_PIPES = (["R", "J", "K"], ["reservoir", "consumer", "consumer"], ["P1", "P2"], ["R", "J"],
             ["J", "K"])
ONE_PIPE = [("R", "reservoir"), ("J", "consumer")], "P1", "R", "J"


def _corrupt(obs: ObservationSet, value) -> tuple[ObservationSet, str]:
    """``obs`` with ``value`` as the last entry of its last observed section, and where that is."""
    section = next(s for s in ("demands", "flows", "heads") if getattr(obs, s))
    key = list(getattr(obs, section))[-1]
    where = f"at {key!r} in observation section {section!r}"
    return replace(obs, **{section: {**getattr(obs, section), key: value}}), where


def _rule_entry_points():
    """Name, call of one bad value, error and the text naming where it is, per entry point."""
    for method, obs in RULE_ROUTES.items():
        where = _corrupt(obs, 0.0)[1]
        yield (f"classify-{method.value}",
               lambda v, obs=obs: classify_observation_pattern(RULE_NET, _corrupt(obs, v)[0]),
               InvalidObservationError, where)
        for forced in (None, method):
            yield (f"complete-{method.value}-{'forced' if forced else 'classified'}",
                   lambda v, obs=obs, m=forced: complete(RULE_NET, _corrupt(obs, v)[0], m),
                   InvalidObservationError, where)
    forest = RULE_ROUTES[CompletionMethod.FOREST_FLOWS]
    yield ("complete_from_forest_flows",
           lambda v: complete_from_forest_flows(
               RULE_NET, np.array(list(forest.heads.values())), _corrupt(forest, v)[0].flows),
           InvalidObservationError, _corrupt(forest, 0.0)[1])
    yield ("network_from_columns-alone",
           lambda v: network_from_columns(*TWO_PIPES, [v, 1.0], [0.3, 0.3], [100.0, 100.0]),
           NonpositiveParameterError, "pipe 'P1': length must be finite and > 0")
    yield ("network_from_columns-mixed",
           lambda v: network_from_columns(*TWO_PIPES, [1.0, 2.0], [0.3, v], [100.0, 100.0]),
           NonpositiveParameterError, "pipe 'P2': diameter must be finite and > 0")
    yield ("build_network",
           lambda v: build_network(ONE_PIPE[0], [(*ONE_PIPE[1:], PipeParams(1.0, 0.3, v))]),
           NonpositiveParameterError, "pipe 'P1': roughness must be finite and > 0")
    yield ("resistance", lambda v: resistance(PipeParams(v, 0.3, 100.0)),
           NonpositiveParameterError, "length must be finite and > 0")


RULE_ENTRY_POINTS = {name: rest for name, *rest in _rule_entry_points()}


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("entry", RULE_ENTRY_POINTS)
def test_a_value_that_is_not_a_finite_number_ends_in_a_typed_error(entry, value):
    call, error, where = RULE_ENTRY_POINTS[entry]
    with pytest.raises(error) as info:
        call(value)
    assert where in str(info.value) and repr(value) in str(info.value)


def _outcome(call):
    """The completed state's bytes, or the class and message of the error raised."""
    try:
        state = call().state
    except HydrostateError as exc:
        return type(exc), str(exc)
    return [column.tobytes() for column in (state.heads, state.flows, state.demands)]


@pytest.mark.parametrize("kind", [Fraction, Decimal, np.float64, int])
def test_every_real_number_type_reads_as_its_float(kind):
    exact = round if kind is int else float  # the float each value of this kind stands for

    def given(obs: ObservationSet, as_kind) -> ObservationSet:
        return ObservationSet(*({k: as_kind(v) for k, v in getattr(obs, s).items()}
                                for s in ("heads", "flows", "demands")))

    typed_and_floats = {method: (given(obs, lambda v: kind(exact(v))),
                                 given(obs, lambda v: float(exact(v))))
                        for method, obs in RULE_ROUTES.items()}
    for method, (typed, floats) in typed_and_floats.items():
        for forced in (None, method):
            assert _outcome(lambda: complete(RULE_NET, typed, forced)) == _outcome(
                lambda: complete(RULE_NET, floats, forced))
        verdict = classify_observation_pattern(RULE_NET, typed)
        assert verdict == classify_observation_pattern(RULE_NET, floats)
    typed, floats = typed_and_floats[CompletionMethod.FOREST_FLOWS]
    h_r = list(floats.heads.values())
    assert _outcome(lambda: complete_from_forest_flows(RULE_NET, h_r, typed.flows)) == _outcome(
        lambda: complete_from_forest_flows(RULE_NET, h_r, floats.flows))

    # Resistances equal those of the parameters as floats, pinned bit for bit.
    values, expected = ((1000, 1, 130), "0x1.4c2f9c3fb71b5p+0") if kind is int else (
        (1000.0, 0.3, 130.0), "0x1.c8d89d781dbf2p+8")
    params = PipeParams(*map(kind, values))
    assert resistance(params).hex() == expected
    net = build_network(ONE_PIPE[0], [(*ONE_PIPE[1:], params)])
    assert float(net.resistances[0]).hex() == expected
    columns = network_from_columns(*TWO_PIPES, *([kind(v)] * 2 for v in values))
    assert [r.hex() for r in columns.resistances.tolist()] == [expected] * 2
