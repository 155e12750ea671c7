"""End-to-end tests of the command line interface via run_cli."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hydrostate
from hydrostate import (
    ObservationSet,
    completion,
    network_to_json_dict,
    observability,
    solve_reservoir_heads_demands,
    state_to_json_dict,
    structure,
)
from hydrostate.cli import _emit, run_cli
from hydrostate.testkit import GeneratorConfig, random_connected_wds, random_ground_truth_state

SINGLE_PIPE_HEAD = 99.44598382606754  # 100 - 2 * 0.5**1.852, 50-digit evaluation


def write_json(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def invoke(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture
def net_file(tmp_path, single_pipe_net):
    return write_json(tmp_path / "net.json", network_to_json_dict(single_pipe_net))


@pytest.fixture
def triangle_file(tmp_path, triangle_net):
    return write_json(tmp_path / "triangle.json", network_to_json_dict(triangle_net))


class TestUsageAndFileErrors:
    def test_no_arguments(self, capsys):
        code, _ = invoke(capsys, [])
        assert code == 64

    def test_unknown_subcommand(self, capsys):
        code, _ = invoke(capsys, ["frobnicate"])
        assert code == 64

    def test_help_exits_zero(self, capsys):
        code = run_cli(["--help"])
        capsys.readouterr()
        assert code == 0

    def test_missing_file(self, capsys):
        code, payload = invoke(capsys, ["validate", "/does/not/exist.json"])
        assert code == 65
        assert payload is None

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, payload = invoke(capsys, ["validate", str(bad)])
        assert code == 65
        assert payload is None

    def test_bad_schema(self, capsys, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"nodes": [{"id": "x"}], "pipes": []})
        code, _ = invoke(capsys, ["validate", bad])
        assert code == 65

    def test_unknown_observation_id(self, capsys, tmp_path, net_file):
        obs = write_json(tmp_path / "obs.json", {"heads": {"nope": 1.0}})
        code, payload = invoke(capsys, ["solve", net_file, "--obs", obs])
        assert code == 65
        assert payload is None


class TestValidate:
    def test_valid_network(self, capsys, net_file):
        code, payload = invoke(capsys, ["validate", net_file])
        assert code == 0
        assert payload == {
            "valid": True,
            "nodes": 2,
            "reservoirs": 1,
            "consumers": 1,
            "pipes": 1,
        }

    def test_disconnected_network(self, capsys, tmp_path):
        doc = {
            "nodes": [
                {"id": "R", "role": "reservoir"},
                {"id": "J", "role": "consumer"},
            ],
            "pipes": [],
        }
        path = write_json(tmp_path / "net.json", doc)
        code, payload = invoke(capsys, ["validate", path])
        assert code == 1
        assert payload["valid"] is False
        assert payload["error"] == "DisconnectedNetworkError"


DISCONNECTED = {
    "nodes": [{"id": "R", "role": "reservoir"}, {"id": "J", "role": "consumer"}],
    "pipes": [],
}
#: A pipe whose resistance underflows to 0.
ZERO_RESISTANCE = {
    "nodes": [{"id": "R", "role": "reservoir"}, {"id": "J", "role": "consumer"}],
    "pipes": [{"id": "P", "from": "R", "to": "J", "length_m": 1.0, "diameter_m": 1e70,
               "roughness": 100.0}],
}


@pytest.mark.parametrize(
    "doc, error",
    [(DISCONNECTED, "DisconnectedNetworkError"), (ZERO_RESISTANCE, "NonpositiveParameterError")],
    ids=["disconnected", "zero_resistance"],
)
@pytest.mark.parametrize("command", ["validate", "analyze", "solve", "check"])
def test_invalid_network_is_one_error_document(capsys, tmp_path, command, doc, error):
    net = write_json(tmp_path / "net.json", doc)
    obs = write_json(tmp_path / "obs.json", {"heads": {"R": 1.0}, "demands": {"J": 0.1}})
    options = {"validate": [], "analyze": ["--pattern", obs], "solve": ["--obs", obs],
               "check": ["--state", obs]}
    code = run_cli([command, net, *options[command]])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 1
    assert payload == {"valid": False, "error": error, "message": payload["message"]}
    assert captured.err == ""


class TestGenerate:
    def test_emits_buildable_network(self, capsys):
        code, payload = invoke(
            capsys,
            ["generate", "--seed", "5", "--reservoirs", "2", "--consumers", "6", "--extra-edges", "3"],
        )
        assert code == 0
        from hydrostate import network_from_json_dict

        net = network_from_json_dict(payload)
        assert net.n_nodes == 8
        assert net.n_pipes == 10

    def test_deterministic_output(self, capsys):
        code_a, payload_a = invoke(capsys, ["generate", "--seed", "5"])
        code_b, payload_b = invoke(capsys, ["generate", "--seed", "5"])
        assert code_a == code_b == 0
        assert payload_a == payload_b

    def test_infeasible_config(self, capsys):
        code, payload = invoke(
            capsys,
            ["generate", "--seed", "1", "--reservoirs", "1", "--consumers", "1", "--extra-edges", "99"],
        )
        assert code == 64
        assert payload is None

    def test_negative_seed_is_a_usage_error(self, capsys):
        code = run_cli(["generate", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "seed" in captured.err

    def test_ten_thousand_consumers(self, capsys):
        code, payload = invoke(
            capsys, ["generate", "--seed", "3", "--consumers", "10000", "--extra-edges", "5000"]
        )
        assert code == 0
        assert len(payload["nodes"]) == 10_001
        assert len(payload["pipes"]) == 15_000


class TestSolve:
    def test_demand_driven_single_pipe(self, capsys, tmp_path, net_file):
        obs = write_json(
            tmp_path / "obs.json", {"heads": {"R": 100.0}, "demands": {"J1": 0.5}}
        )
        code, payload = invoke(
            capsys, ["solve", net_file, "--obs", obs, "--theorem", "demand-driven"]
        )
        assert code == 0
        assert payload["theorem"] == "demand_driven"
        assert payload["state"]["heads"]["J1"] == pytest.approx(SINGLE_PIPE_HEAD, abs=1e-9)
        assert payload["state"]["flows"]["P1"] == pytest.approx(0.5, abs=1e-10)
        assert payload["residuals"]["energy_inf_norm"] <= 1e-8

    def test_auto_dispatches_demand_driven(self, capsys, tmp_path, net_file):
        obs = write_json(
            tmp_path / "obs.json", {"heads": {"R": 100.0}, "demands": {"J1": 0.5}}
        )
        code, payload = invoke(capsys, ["solve", net_file, "--obs", obs])
        assert code == 0
        assert payload["theorem"] == "demand_driven"

    def test_auto_dispatches_all_heads(self, capsys, tmp_path, net_file):
        obs = write_json(
            tmp_path / "obs.json", {"heads": {"R": 100.0, "J1": 98.0}}
        )
        code, payload = invoke(capsys, ["solve", net_file, "--obs", obs])
        assert code == 0
        assert payload["theorem"] == "all_heads"
        assert payload["state"]["flows"]["P1"] == pytest.approx(1.0, rel=1e-12)

    def test_auto_dispatches_forest_flows(self, capsys, tmp_path, triangle_file, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=3)
        obs = write_json(
            tmp_path / "obs.json",
            {
                "heads": {"R": float(truth.heads[0])},
                "flows": {
                    "e1": float(truth.flows[0]),
                    "e2": float(truth.flows[1]),
                },
            },
        )
        code, payload = invoke(capsys, ["solve", triangle_file, "--obs", obs])
        assert code == 0
        assert payload["theorem"] == "forest_flows"
        assert payload["state"]["heads"]["c1"] == pytest.approx(truth.heads[1], abs=1e-9)

    @pytest.mark.parametrize("theorem", ["auto", "forest-flows"])
    def test_forest_route_scans_once(
        self, monkeypatch, capsys, tmp_path, triangle_file, triangle_net, theorem
    ):
        # With ``auto`` the forest comes from the verdict, not a second scan.
        # Both the classifier and ``complete`` live in ``observability``.
        calls = []

        def counted(net, candidates):
            calls.append(tuple(candidates))
            return structure.greedy_independent_columns(net, candidates)

        monkeypatch.setattr(observability, "greedy_independent_columns", counted)
        truth = random_ground_truth_state(triangle_net, seed=3)
        flows = {pid: float(truth.flows[i]) for i, pid in enumerate(triangle_net.pipe_ids)}
        obs = write_json(
            tmp_path / "obs.json", {"heads": {"R": float(truth.heads[0])}, "flows": flows}
        )
        code, payload = invoke(
            capsys, ["solve", triangle_file, "--obs", obs, "--theorem", theorem]
        )
        assert code == 0
        assert payload["theorem"] == "forest_flows"
        assert len(calls) == 1

    def test_inconsistent_flows_exit_2(self, capsys, tmp_path, triangle_file, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=4)
        flows = {pid: float(truth.flows[i]) for i, pid in enumerate(triangle_net.pipe_ids)}
        flows["e3"] += 0.1
        obs = write_json(
            tmp_path / "obs.json", {"heads": {"R": float(truth.heads[0])}, "flows": flows}
        )
        code, payload = invoke(
            capsys, ["solve", triangle_file, "--obs", obs, "--theorem", "heads-flows"]
        )
        assert code == 2
        assert payload["error"] == "inconsistent_observations"
        assert payload["residual"] > 0

    def test_auto_checks_surplus_flows(self, capsys, tmp_path, triangle_file, triangle_net):
        # Every flow observed: the forest route completes the state from e1, e2
        # and must still check the chord e3 against the completed heads.
        truth = random_ground_truth_state(triangle_net, seed=4)
        flows = {pid: float(truth.flows[i]) for i, pid in enumerate(triangle_net.pipe_ids)}
        heads = {"R": float(truth.heads[0])}
        consistent = write_json(tmp_path / "ok.json", {"heads": heads, "flows": flows})
        code, payload = invoke(capsys, ["solve", triangle_file, "--obs", consistent])
        assert code == 0
        assert payload["theorem"] == "forest_flows"
        assert payload["state"]["flows"]["e3"] == pytest.approx(flows["e3"], abs=1e-9)

        flows["e3"] += 1e-3
        contradicted = write_json(tmp_path / "bad.json", {"heads": heads, "flows": flows})
        code, payload = invoke(capsys, ["solve", triangle_file, "--obs", contradicted])
        assert code == 2
        assert payload["error"] == "inconsistent_observations"
        assert payload["residual"] > 0
        # The forest route checks the energy law directly; no least squares runs.
        assert "least-squares" not in payload["message"]
        assert f"energy-law residual {payload['residual']:.6e}" in payload["message"]

    @pytest.mark.parametrize(
        "observed, theorem, wrong",
        [
            ({"heads": "R c1 c2", "flows": "e3"}, "all_heads", ("flows", "e3")),
            ({"heads": "R c1 c2", "demands": "c1"}, "all_heads", ("demands", "c1")),
            ({"heads": "R", "flows": "e1 e2", "demands": "c2"}, "forest_flows", ("demands", "c2")),
            ({"heads": "R", "flows": "e3", "demands": "c1 c2"}, "demand_driven", ("flows", "e3")),
            ({"heads": "R c1", "demands": "c1 c2"}, "demand_driven", ("heads", "c1")),
        ],
        ids=[
            "all_heads_flow",
            "all_heads_demand",
            "forest_flows_demand",
            "demand_driven_flow",
            "demand_driven_head",
        ],
    )
    def test_left_over_observations_are_checked(
        self, capsys, tmp_path, triangle_file, triangle_net, observed, theorem, wrong
    ):
        # The route does not use the wrong observation; it must still be checked.
        truth = random_ground_truth_state(triangle_net, seed=4)
        values = {
            "heads": dict(zip(triangle_net.node_ids, truth.heads.tolist())),
            "flows": dict(zip(triangle_net.pipe_ids, truth.flows.tolist())),
            "demands": dict(zip(triangle_net.consumer_ids, truth.demands.tolist())),
        }
        doc = {
            section: {key: values[section][key] for key in keys.split()}
            for section, keys in observed.items()
        }
        consistent = write_json(tmp_path / "ok.json", doc)
        code, payload = invoke(capsys, ["solve", triangle_file, "--obs", consistent])
        assert code == 0
        assert payload["theorem"] == theorem

        section, key = wrong
        doc[section][key] += 1e-3
        contradicted = write_json(tmp_path / "bad.json", doc)
        code, payload = invoke(capsys, ["solve", triangle_file, "--obs", contradicted])
        assert code == 2
        assert payload["error"] == "inconsistent_observations"
        assert payload["residual"] > 0
        assert section in payload["message"]

    def test_non_convergence_exit_3(self, capsys, tmp_path, triangle_file):
        obs = write_json(
            tmp_path / "obs.json",
            {"heads": {"R": 100.0}, "demands": {"c1": 5.0, "c2": 7.0}},
        )
        code, payload = invoke(
            capsys,
            ["solve", triangle_file, "--obs", obs, "--theorem", "demand-driven", "--max-iter", "1"],
        )
        assert code == 3
        assert payload["error"] == "no_convergence"

    @pytest.mark.parametrize("extra_edges", [0, 1], ids=["tree", "looped"])
    def test_overflowing_demand_exit_3(self, capsys, tmp_path, extra_edges):
        # A finite demand of 1e300 overflows the head loss: the residual norm
        # is inf (looped) or the conductances underflow to a singular head
        # matrix (tree). Either way the run exits 3 with valid JSON.
        net = random_connected_wds(GeneratorConfig(1, 1, 3, extra_edges))
        net_path = write_json(tmp_path / "net.json", network_to_json_dict(net))
        demands = {nid: 0.1 for nid in net.consumer_ids}
        demands[net.consumer_ids[0]] = 1e300
        obs = write_json(tmp_path / "obs.json", {"heads": {"R1": 100.0}, "demands": demands})
        with pytest.warns(RuntimeWarning, match="overflow"):
            code, payload = invoke(capsys, ["solve", net_path, "--obs", obs])
        assert code == 3
        assert payload["error"] == "no_convergence"
        assert payload["iterations"] == 0
        assert payload["residual"] is None

    def test_nan_start_exit_3(self, capsys, monkeypatch, tmp_path, triangle_file):
        def start(net, reservoir_heads, demands):
            return np.full(net.n_pipes, np.nan), np.full(net.n_consumers, np.nan)

        monkeypatch.setattr(completion, "_initial_point", start)
        obs = write_json(
            tmp_path / "obs.json", {"heads": {"R": 100.0}, "demands": {"c1": 0.5, "c2": 0.5}}
        )
        code, payload = invoke(capsys, ["solve", triangle_file, "--obs", obs])
        assert code == 3
        assert payload["error"] == "no_convergence"
        assert payload["iterations"] == 0
        assert payload["residual"] is None

    def test_not_covered_exit_4(self, capsys, tmp_path, triangle_file):
        obs = write_json(tmp_path / "obs.json", {"demands": {"c1": 0.5}})
        code, payload = invoke(capsys, ["solve", triangle_file, "--obs", obs])
        assert code == 4
        assert payload["verdict"] == "not_covered"

    def test_rank_deficient_auto_exit_4(self, capsys, tmp_path, triangle_file):
        obs = write_json(
            tmp_path / "obs.json", {"heads": {"R": 100.0}, "flows": {"e3": 0.1}}
        )
        code, payload = invoke(capsys, ["solve", triangle_file, "--obs", obs])
        assert code == 4
        assert payload["verdict"] == "undetermined_rank_deficient"

    def test_forest_theorem_with_deficient_flows_exit_4(self, capsys, tmp_path, triangle_file):
        obs = write_json(
            tmp_path / "obs.json", {"heads": {"R": 100.0}, "flows": {"e3": 0.1}}
        )
        code, payload = invoke(
            capsys, ["solve", triangle_file, "--obs", obs, "--theorem", "forest-flows"]
        )
        assert code == 4
        assert payload["error"] == "rank_deficient_flows"

    def test_missing_observations_for_requested_theorem(self, capsys, tmp_path, net_file):
        obs = write_json(tmp_path / "obs.json", {"heads": {"R": 100.0}})
        code, payload = invoke(
            capsys, ["solve", net_file, "--obs", obs, "--theorem", "all-heads"]
        )
        assert code == 4
        assert payload["error"] == "missing_observations"


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "obs",
        [
            {"heads": {"R": 100.0}, "demands": {"c1": float("nan"), "c2": 0.5}},
            {"heads": {"R": float("inf")}, "demands": {"c1": 0.5, "c2": 0.5}},
            {"heads": {"R": 100.0}, "flows": {"e1": float("-inf"), "e2": 0.5}},
        ],
        ids=["nan_demand", "inf_head", "inf_flow"],
    )
    def test_solve_rejects_at_parse(self, capsys, tmp_path, triangle_file, obs):
        path = write_json(tmp_path / "obs.json", obs)
        code = run_cli(["solve", triangle_file, "--obs", path])
        assert code == 65
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("theorem", ["auto", "forest-flows", "heads-flows"])
    def test_overflowing_flow_exit_65(self, capsys, tmp_path, path3_net, theorem):
        # 1e300 is finite, but its head loss is not: reported like a
        # non-finite value in the file, not as NaN heads or a cycle residual.
        net_path = write_json(tmp_path / "net.json", network_to_json_dict(path3_net))
        obs = write_json(
            tmp_path / "obs.json",
            {"heads": {"R1": 100}, "flows": {"P1": 1e300, "P2": 0.01, "P3": 0.01}},
        )
        code = run_cli(["solve", net_path, "--obs", obs, "--theorem", theorem])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "pipe 'P1' overflows its head loss" in captured.err

    def test_overflowing_surplus_flow_exit_65(self, capsys, tmp_path, triangle_file):
        # The chord e3 is checked, not used, on the forest route; its overflow
        # must not pass that check unnoticed.
        obs = write_json(
            tmp_path / "obs.json",
            {"heads": {"R": 100.0}, "flows": {"e1": 0.5, "e2": 0.5, "e3": 1e300}},
        )
        code = run_cli(["solve", triangle_file, "--obs", obs])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "pipe 'e3' overflows its head loss" in captured.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("theorem", ["auto", "heads-flows"])
    def test_overflowing_head_sum_exit_65(self, capsys, tmp_path, path3_net, theorem):
        net_path = write_json(tmp_path / "net.json", network_to_json_dict(path3_net))
        q = (1e308 / path3_net.resistances[0]) ** (1 / hydrostate.HAZEN_WILLIAMS_EXPONENT)
        obs = write_json(
            tmp_path / "obs.json", {"heads": {"R1": 100}, "flows": {"P1": q, "P2": q, "P3": 0.01}}
        )
        code = run_cli(["solve", net_path, "--obs", obs, "--theorem", theorem])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "overflow the" in captured.err

    def test_check_rejects_non_finite_state(self, capsys, tmp_path, triangle_file, triangle_net):
        doc = state_to_json_dict(triangle_net, random_ground_truth_state(triangle_net, seed=6))
        doc["flows"]["e1"] = float("nan")
        state = write_json(tmp_path / "state.json", doc)
        code = run_cli(["check", triangle_file, "--state", state])
        assert code == 65
        assert capsys.readouterr().out == ""

    def test_emit_refuses_nan(self, capsys):
        with pytest.raises(ValueError):
            _emit({"residual": float("nan")})
        assert capsys.readouterr().out == ""


class TestTolerance:
    @pytest.fixture
    def contradicted(self, tmp_path, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=4)
        flows = {pid: float(truth.flows[i]) for i, pid in enumerate(triangle_net.pipe_ids)}
        flows["e3"] += 0.1
        return write_json(
            tmp_path / "obs.json", {"heads": {"R": float(truth.heads[0])}, "flows": flows}
        )

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9", "loose"])
    @pytest.mark.parametrize("theorem", ["auto", "heads-flows", "demand-driven"])
    def test_solve_rejects_bad_tolerance(self, capsys, triangle_file, contradicted, theorem, tol):
        # ``--tol=`` keeps argparse from reading a negative value as an option.
        argv = ["solve", triangle_file, "--obs", contradicted, "--theorem", theorem, f"--tol={tol}"]
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "tolerance must be finite and >= 0" in captured.err

    def test_solve_takes_zero_and_finite_tolerance(self, capsys, triangle_file, contradicted):
        # The chord e3 is off by 0.1, which only a huge tolerance forgives.
        for tol, expected in (("0", 2), ("1e-9", 2), ("1e6", 0)):
            code = run_cli(["solve", triangle_file, "--obs", contradicted, "--tol", tol])
            capsys.readouterr()
            assert code == expected

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "loose"])
    def test_check_rejects_bad_tolerance(self, capsys, tmp_path, triangle_file, triangle_net, tol):
        doc = state_to_json_dict(triangle_net, random_ground_truth_state(triangle_net, seed=5))
        state = write_json(tmp_path / "state.json", doc)
        code = run_cli(["check", triangle_file, "--state", state, f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "tolerance must be finite and >= 0" in captured.err
        code, payload = invoke(capsys, ["check", triangle_file, "--state", state, "--tol", "0.001"])
        assert code == 0
        assert payload["tolerance"] == 0.001


class TestMaxIter:
    @pytest.fixture
    def demands(self, tmp_path):
        doc = {"heads": {"R": 100.0}, "demands": {"c1": 0.1, "c2": 0.2}}
        return write_json(tmp_path / "obs.json", doc)

    @pytest.mark.parametrize("value", ["-1", "-30", "1.5", "many", ""])
    @pytest.mark.parametrize("theorem", ["auto", "demand-driven"])
    def test_solve_rejects_bad_iteration_count(self, capsys, triangle_file, demands, theorem, value):
        argv = ["solve", triangle_file, "--obs", demands, "--theorem", theorem, f"--max-iter={value}"]
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "iteration count must be an integer >= 0" in captured.err

    def test_solve_takes_nonnegative_iteration_count(self, capsys, triangle_file, demands):
        argv = ["solve", triangle_file, "--obs", demands, "--theorem", "demand-driven"]
        code, payload = invoke(capsys, [*argv, "--max-iter", "0"])
        assert code == 3
        assert payload["iterations"] == 0
        code, payload = invoke(capsys, [*argv, "--max-iter", "50"])
        assert code == 0
        assert payload["theorem"] == "demand_driven"


class TestStrictParsing:
    """Wrongly typed JSON values are file errors (exit 65), never coerced or crashed on."""

    @staticmethod
    def network_doc():
        return {
            "nodes": [{"id": "R", "role": "reservoir"}, {"id": "J", "role": "consumer"}],
            "pipes": [
                {"id": "P1", "from": "R", "to": "J", "length_m": 100.0, "diameter_m": 0.3,
                 "roughness": 100},
            ],
        }

    def test_valid_document_passes(self, capsys, tmp_path):
        path = write_json(tmp_path / "net.json", self.network_doc())
        code, payload = invoke(capsys, ["validate", path])
        assert code == 0
        assert payload["valid"] is True

    @pytest.mark.parametrize(
        "change",
        [
            {"nodes": 5},
            {"pipes": 5},
            {"nodes": "RJ"},
            {"pipes": {"P1": {}}},
        ],
        ids=["nodes_number", "pipes_number", "nodes_string", "pipes_object"],
    )
    def test_non_array_sections(self, capsys, tmp_path, change):
        path = write_json(tmp_path / "net.json", {**self.network_doc(), **change})
        code = run_cli(["validate", path])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "must be an array" in captured.err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("length_m", True),
            ("length_m", "100"),
            ("diameter_m", False),
            ("roughness", None),
            ("id", None),
            ("id", 7),
            ("from", 1),
            ("to", ["J"]),
        ],
    )
    def test_wrongly_typed_pipe_field(self, capsys, tmp_path, key, value):
        doc = self.network_doc()
        doc["pipes"][0][key] = value
        code = run_cli(["validate", write_json(tmp_path / "net.json", doc)])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert "malformed pipe entry" in captured.err

    @pytest.mark.parametrize("value", [None, 3, True])
    def test_non_string_node_id(self, capsys, tmp_path, value):
        doc = self.network_doc()
        doc["nodes"][1]["id"] = value
        code = run_cli(["validate", write_json(tmp_path / "net.json", doc)])
        captured = capsys.readouterr()
        assert code == 65
        assert "id must be a string" in captured.err

    def test_huge_integer_parameter(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        text = json.dumps(self.network_doc()).replace('"roughness": 100', '"roughness": 1' + "0" * 400)
        path.write_text(text)
        code = run_cli(["validate", str(path)])
        captured = capsys.readouterr()
        assert code == 65
        assert "roughness is out of range" in captured.err

    @pytest.mark.parametrize("value", [True, "1.5", None, [1.0]])
    def test_wrongly_typed_observation(self, capsys, tmp_path, net_file, value):
        doc = {"heads": {"R": 100.0, "J1": 99.0}, "flows": {"P1": value}}
        obs = write_json(tmp_path / "obs.json", doc)
        code = run_cli(["solve", net_file, "--obs", obs])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert f"non-numeric value {value!r} at 'P1' in observation section 'flows'" in captured.err

    @pytest.mark.parametrize(
        "section, key, value",
        [("heads", "R", True), ("heads", "J1", "0.5"), ("flows", "P1", None), ("demands", "J1", [1])],
    )
    def test_wrongly_typed_state(self, capsys, tmp_path, net_file, section, key, value):
        doc = {"heads": {"R": 100.0, "J1": 99.0}, "flows": {"P1": 0.5}, "demands": {"J1": 0.5}}
        doc[section][key] = value
        code = run_cli(["check", net_file, "--state", write_json(tmp_path / "state.json", doc)])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert f"non-numeric value {value!r} at {key!r} in state section {section!r}" in captured.err

    @pytest.mark.parametrize("digits", [400, 5000], ids=["over_float", "over_int_digit_limit"])
    def test_huge_integer_state(self, capsys, tmp_path, net_file, digits):
        doc = {"heads": {"R": 100, "J1": 99.0}, "flows": {"P1": 0.5}, "demands": {"J1": 0.5}}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc).replace('"R": 100', '"R": 1' + "0" * digits))
        code = run_cli(["check", net_file, "--state", str(path)])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, key",
        [("validate", "pipes"), ("analyze", "R"), ("solve", "R"), ("check", "R")],
    )
    def test_duplicate_key(self, capsys, tmp_path, net_file, command, key):
        # Without the check the later value would silently replace the earlier one.
        path = tmp_path / "duplicated.json"
        if command == "validate":
            path.write_text(Path(net_file).read_text().replace('"nodes"', '"pipes": [], "nodes"'))
            argv = [command, str(path)]
        else:
            path.write_text('{"heads": {"R": 100.0, "J1": 99.0, "R": 200.0}, '
                            '"flows": {"P1": 0.5}, "demands": {"J1": 0.5}}')
            flag = {"analyze": "--pattern", "solve": "--obs", "check": "--state"}[command]
            argv = [command, net_file, flag, str(path)]
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert f"duplicate key {key!r}" in captured.err

    @pytest.mark.parametrize("key", ["demand", "comment"])
    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_unknown_observation_section(self, capsys, tmp_path, command, key):
        # A misspelt "demands" would otherwise leave the demands unobserved, and a
        # comment would pass unread.
        net = random_connected_wds(GeneratorConfig(seed=3, n_consumers=4, extra_edges=2))
        truth = random_ground_truth_state(net, seed=1)
        heads = {nid: float(truth.heads[net.node_index[nid]]) for nid in net.reservoir_ids}
        demands = dict(zip(net.consumer_ids, truth.demands.tolist()))
        doc = {"heads": heads, "demand": demands} if key == "demand" else {
            "heads": heads, "demands": demands, "comment": "x"}
        net_path = write_json(tmp_path / "net.json", network_to_json_dict(net))
        obs = write_json(tmp_path / "obs.json", doc)
        flag = {"analyze": "--pattern", "solve": "--obs"}[command]
        code = run_cli([command, net_path, flag, obs])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert f"unknown observation section {key!r}" in captured.err


class TestCheck:
    def test_ground_truth_passes(self, capsys, tmp_path, triangle_file, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=5)
        state = write_json(
            tmp_path / "state.json", state_to_json_dict(triangle_net, truth)
        )
        code, payload = invoke(capsys, ["check", triangle_file, "--state", state])
        assert code == 0
        assert payload["physically_correct"] is True

    def test_corrupted_state_fails(self, capsys, tmp_path, triangle_file, triangle_net):
        truth = random_ground_truth_state(triangle_net, seed=6)
        doc = state_to_json_dict(triangle_net, truth)
        doc["flows"]["e1"] += 0.5
        state = write_json(tmp_path / "state.json", doc)
        code, payload = invoke(capsys, ["check", triangle_file, "--state", state])
        assert code == 1
        assert payload["physically_correct"] is False

    def test_incomplete_state_is_parse_error(self, capsys, tmp_path, triangle_file):
        state = write_json(tmp_path / "state.json", {"heads": {"R": 1.0}})
        code, payload = invoke(capsys, ["check", triangle_file, "--state", state])
        assert code == 65
        assert payload is None

    @pytest.mark.parametrize(
        "section, added",
        [("heads", ["ZZZ", "AAA"]), ("flows", ["ZZZ"]), ("demands", ["R"])],
        ids=["heads", "flows", "reservoir_demand"],
    )
    def test_unknown_id_is_parse_error(
        self, capsys, tmp_path, triangle_file, triangle_net, section, added
    ):
        doc = state_to_json_dict(triangle_net, random_ground_truth_state(triangle_net, seed=5))
        doc[section].update(dict.fromkeys(added, 1.0))
        state = write_json(tmp_path / "state.json", doc)
        code = run_cli(["check", triangle_file, "--state", state])
        captured = capsys.readouterr()
        assert code == 65
        assert captured.out == ""
        assert f"unknown id {added[0]!r} in state section {section!r}" in captured.err


class TestAnalyze:
    def test_cycle_only_flows(self, capsys, tmp_path, triangle_file):
        obs = write_json(
            tmp_path / "pattern.json", {"heads": {"R": 100.0}, "flows": {"e3": 1.0}}
        )
        code, payload = invoke(capsys, ["analyze", triangle_file, "--pattern", obs])
        assert code == 0
        assert payload["verdict"] == "undetermined_rank_deficient"
        assert payload["detail"]["flow_rank"] == 1

    def test_validates_the_pattern_once(self, capsys, monkeypatch, tmp_path, triangle_file):
        calls, validate = [], ObservationSet.validate

        def counted(pattern, net):
            calls.append(pattern)
            return validate(pattern, net)

        monkeypatch.setattr(ObservationSet, "validate", counted)
        obs = write_json(tmp_path / "pattern.json", {"heads": {"R": 100.0}, "flows": {"e3": 1.0}})
        code, payload = invoke(capsys, ["analyze", triangle_file, "--pattern", obs])
        assert code == 0 and payload["verdict"] == "undetermined_rank_deficient"
        assert len(calls) == 1

        calls.clear()
        bad = write_json(tmp_path / "bad.json", {"heads": {"R": 100.0}, "flows": {"nope": 1.0}})
        assert run_cli(["analyze", triangle_file, "--pattern", bad]) == 65
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown pipe 'nope'" in captured.err
        assert len(calls) == 1


class TestOutputStability:
    def test_solve_output_round_trips(self, capsys, tmp_path, net_file):
        obs = write_json(
            tmp_path / "obs.json", {"heads": {"R": 100.0}, "demands": {"J1": 0.5}}
        )
        code, first = invoke(capsys, ["solve", net_file, "--obs", obs])
        assert code == 0
        # serializing the parsed payload again must not change it
        assert json.loads(json.dumps(first)) == first
        code, second = invoke(capsys, ["solve", net_file, "--obs", obs])
        assert first == second

    def test_generate_emit_parse_emit_idempotent(self, capsys, tmp_path):
        code, doc = invoke(capsys, ["generate", "--seed", "17", "--consumers", "5"])
        assert code == 0
        path = write_json(tmp_path / "net.json", doc)
        code, _ = invoke(capsys, ["validate", path])
        assert code == 0


def test_emit_is_plain_json_dumps(capsys, triangle_net):
    truth = random_ground_truth_state(triangle_net, seed=9)
    report = solve_reservoir_heads_demands(
        triangle_net, truth.reservoir_heads(triangle_net), truth.demands
    )
    payload = report.to_json_dict(triangle_net)
    _emit(payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


def _loaded_in_child(code: str) -> list[str]:
    """What a fresh interpreter running ``code`` prints to stderr, split into words."""
    src = str(Path(hydrostate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        check=True,
    )
    return child.stderr.split()


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, hydrostate.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
    )
    assert _loaded_in_child(code) == ["[]"]


#: Modules that neither ``import hydrostate`` nor ``hydrostate solve`` may load.
_NOT_LOADED = "[m in sys.modules for m in ('hydrostate.testkit', 'hydrostate.exact', 'fractions')]"


@pytest.mark.parametrize(
    "observed, theorem",
    [({"heads": {"R": 100.0}, "demands": {"J1": 0.5}}, "demand_driven"),
     ({"heads": {"R": 100.0}, "flows": {"P1": 0.5}}, "forest_flows")],
    ids=["demand_driven", "forest_flows"],
)
def test_cli_solve_loads_no_generator(tmp_path, net_file, observed, theorem):
    # ``solve`` never needs the random network generator, the exact test
    # oracles or the rational cycle-basis solve, so none is imported.
    obs = write_json(tmp_path / "obs.json", observed)
    code = (
        "import io, json, sys, contextlib, hydrostate.cli; out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = hydrostate.cli.run_cli(['solve', {net_file!r}, '--obs', {obs!r}])\n"
        f"print(code, json.loads(out.getvalue())['theorem'], *{_NOT_LOADED}, file=sys.stderr)"
    )
    assert _loaded_in_child(code) == ["0", theorem, "False", "False", "False"]


def test_import_loads_no_generator():
    code = f"import sys, hydrostate; print(*{_NOT_LOADED}, file=sys.stderr)"
    assert _loaded_in_child(code) == ["False", "False", "False"]
    # The package still exports the generator and oracle names, loaded on first use.
    from hydrostate import incidence_matrix as oracle
    from hydrostate import random_connected_wds as exported
    from hydrostate.exact import incidence_matrix

    assert exported is random_connected_wds and oracle is incidence_matrix


# --- byte-identity guard on the linear routes ---------------------------------

#: sha256 of ``hydrostate solve`` stdout and its exit code per (network seed, input
#: kind), computed on the implementation before the grounded tree was cached. Any
#: change to the tree walk, the forest scan or the JSON output shows up here.
SOLVE_STDOUT_DIGESTS = {
    (31, "all_heads"): (0, "0f24067adcce1ab905233a068929da937e4003a3fdb1ab3f402656810fb67e3d"),
    (31, "forest_flows"): (0, "d2cf39360db7997b2f0cd0d3366e01042d8ae81ce548b0b042f6d23a931becf8"),
    (31, "heads_flows"): (0, "04e1f4cd3d30566a50d125918e07cf03a6758b5f482fb7d8afeae42d0144d82f"),
    (31, "contradicted"): (2, "7b3842b0b50b7de9858a34dcd3d223ab435c58a4f6b47bc5bf08783fafbc9fc6"),
    (47, "all_heads"): (0, "60c01c26ed510336f10d3cca7cd6104e91c5d00bac864b3eff30d853511085dd"),
    (47, "forest_flows"): (0, "6c261be8aea900f52d6f9736e5f5cc8574985fad80c3116dacca57d87e66c91f"),
    (47, "heads_flows"): (0, "c45e96b6b4dd3649685e4b451f6a1d29932943f5c773ce66fbba495472ae51ba"),
    (47, "contradicted"): (2, "2cd3e45f2eee8e31a0a930f333d6b72573e3c6a9d50cd72ea06a448582e1db54"),
}


def _solve_inputs(net_seed):
    """The network and the four linear-route observation documents of one seeded network."""
    net = random_connected_wds(GeneratorConfig(net_seed, 2, 15, 8))
    truth = random_ground_truth_state(net, seed=net_seed + 100)
    heads = {nid: float(truth.heads[net.node_index[nid]]) for nid in net.reservoir_ids}
    flows = {pid: float(truth.flows[j]) for j, pid in enumerate(net.pipe_ids)}
    dec = hydrostate.select_independent_edges(net)
    contradicted = dict(flows)
    contradicted[dec.dependent[0]] += 1e-3
    observations = {
        "all_heads": ("auto", {"heads": dict(zip(net.node_ids, map(float, truth.heads)))}),
        "forest_flows": ("auto", {"heads": heads, "flows": {p: flows[p] for p in dec.independent}}),
        "heads_flows": ("heads-flows", {"heads": heads, "flows": flows}),
        "contradicted": ("auto", {"heads": heads, "flows": contradicted}),
    }
    return net, observations


def _solve_digest(capsys, tmp_path, net_seed, kind):
    net, observations = _solve_inputs(net_seed)
    theorem, obs = observations[kind]
    net_path = write_json(tmp_path / "net.json", network_to_json_dict(net))
    obs_path = write_json(tmp_path / "obs.json", obs)
    code = run_cli(["solve", net_path, "--obs", obs_path, "--theorem", theorem])
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("kind", ["all_heads", "forest_flows", "heads_flows", "contradicted"])
@pytest.mark.parametrize("net_seed", [31, 47])
def test_solve_stdout_is_pinned(capsys, tmp_path, net_seed, kind):
    assert _solve_digest(capsys, tmp_path, net_seed, kind) == SOLVE_STDOUT_DIGESTS[net_seed, kind]


# --- byte-identity guard on generate and validate ------------------------------

#: sha256 of ``hydrostate generate --seed S --reservoirs 2 --consumers C
#: --extra-edges K`` stdout per (S, C, K), computed on the implementation that
#: still built networks from per-pipe objects.
GENERATE_STDOUT_DIGESTS = {
    (1, 3, 0): "9c4e518c89c4a68b39a5921ed2c50d0202ce831da61e46a6eb9accedcc824f86",
    (1, 3, 2): "558d67683d3813fad389063262f7b78f485a1df934005221e41051b2021cefa3",
    (1, 60, 0): "dfc68cd31ffae6282c024923b29971ba77d6165ccf45fcb3c07239b362aa1f8b",
    (1, 60, 30): "542cb8a91df88d0b3bdcaef4f2b411233eaafb92e6313d85a5ef4fb9d3240b4a",
    (2, 3, 0): "738a26c695280e8490c5dde47fdeb5270f910f6ec88ec57953e62a9e7f19cf41",
    (2, 3, 2): "2c597d5e0caf01c43cfd1b53f3cfaaeb6388d9832cbff223f09db54587af66a0",
    (2, 60, 0): "90feb6909ad17a96df02a64f38aa3703d19cf0e676785e7d8b23a6475561f5e8",
    (2, 60, 30): "2be37aabb75d822206d4bc5a81a6c43358f4064a67e46bb1976b89ca939449b6",
    (3, 3, 0): "0fe0c6b9e428da23bbfbead8e11e17f0f15ba08cb4a83628468402353b206c2a",
    (3, 3, 2): "009534f61f9a485b25d3bfd1f9c741ba0e4be9dc1dc8ca94c09c530672f95e7c",
    (3, 60, 0): "79af8f917bbe8859a682853482181e2a1d66ef70332138da651f7a7bf5b8f49c",
    (3, 60, 30): "914c854a75c206f5877cd3c121dc5eaef433c64c59a0940f83a7273964b51a41",
}

#: sha256 of ``hydrostate validate`` stdout on those files, per (C, K).
VALIDATE_STDOUT_DIGESTS = {
    (3, 0): "f5a7a769cb9a3acfce5e39ad7ffbef693dbb548031fd608fa436ede8c5ac4b17",
    (3, 2): "a8b44ab1ee1d9b99d0c3dfd3415972d2894fe2a9ad09ab2f5735f6881954928b",
    (60, 0): "4a7156e9ce6fcafcd4b7bb0459072c155bde59304881c7eeb355967aaa63af6d",
    (60, 30): "34ece9d6c6f1e0b8fa72f0e0517f2e4421534939d93426c4cc5653524fa16afc",
}


@pytest.mark.parametrize("seed, consumers, extra", list(GENERATE_STDOUT_DIGESTS))
def test_generate_and_validate_stdout_are_pinned(capsys, tmp_path, seed, consumers, extra):
    argv = ["--seed", str(seed), "--reservoirs", "2", "--consumers", str(consumers)]
    assert run_cli(["generate", *argv, "--extra-edges", str(extra)]) == 0
    text = capsys.readouterr().out
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GENERATE_STDOUT_DIGESTS[seed, consumers, extra]
    path = tmp_path / "net.json"
    path.write_text(text)
    assert run_cli(["validate", str(path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VALIDATE_STDOUT_DIGESTS[consumers, extra]
