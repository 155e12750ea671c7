"""Guards over the whole package: what its runtime paths build, and what the benchmark imports."""

import ast
import importlib
import json
import sys
from pathlib import Path

import numpy as np

import hydrostate.cli
import hydrostate.exact  # noqa: F401  (loaded so that every module is patched below)
import hydrostate.testkit  # noqa: F401
from hydrostate import (
    CompletionMethod,
    GeneratorConfig,
    ObservationSet,
    Verdict,
    classify_observation_pattern,
    complete,
    cycle_space_basis,
    image_membership,
    network_to_json_dict,
    random_connected_wds,
    random_ground_truth_state,
    select_independent_edges,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


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

    heads = dict(zip(net.node_ids, truth.heads.tolist()))
    reservoir_heads = {nid: heads[nid] for nid in net.reservoir_ids}
    flows = dict(zip(net.pipe_ids, truth.flows.tolist()))
    demands = dict(zip(net.consumer_ids, truth.demands.tolist()))
    routes = {
        CompletionMethod.ALL_HEADS: ObservationSet(heads=heads),
        CompletionMethod.HEADS_AND_FLOWS: ObservationSet(reservoir_heads, flows),
        CompletionMethod.FOREST_FLOWS: ObservationSet(
            reservoir_heads, {pid: flows[pid] for pid in dec.independent}
        ),
        CompletionMethod.DEMAND_DRIVEN: ObservationSet(reservoir_heads, demands=demands),
    }
    for method, obs in routes.items():
        assert classify_observation_pattern(net, obs).verdict.determined
        report = complete(net, obs, method)
        assert np.allclose(report.state.heads, truth.heads, rtol=0, atol=1e-6)
    deficient = ObservationSet(reservoir_heads, {dec.independent[0]: flows[dec.independent[0]]})
    verdict = classify_observation_pattern(net, deficient).verdict
    assert verdict is Verdict.UNDETERMINED_RANK_DEFICIENT

    assert cycle_space_basis(net, dec).dimension == net.n_pipes - net.n_consumers
    h = np.zeros(net.n_nodes)
    h[net.consumer_indices] = truth.heads[net.consumer_indices]
    assert image_membership(net, h[net.tail_indices] - h[net.head_indices]).member

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
