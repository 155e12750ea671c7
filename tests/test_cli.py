"""End-to-end tests of the command line interface via run_cli."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hydrostate
from hydrostate import (
    cli,
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
        calls = []

        def counted(net, candidates):
            calls.append(tuple(candidates))
            return structure.greedy_independent_columns(net, candidates)

        monkeypatch.setattr(cli, "greedy_independent_columns", counted)
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


class TestAnalyze:
    def test_cycle_only_flows(self, capsys, tmp_path, triangle_file):
        obs = write_json(
            tmp_path / "pattern.json", {"heads": {"R": 100.0}, "flows": {"e3": 1.0}}
        )
        code, payload = invoke(capsys, ["analyze", triangle_file, "--pattern", obs])
        assert code == 0
        assert payload["verdict"] == "undetermined_rank_deficient"
        assert payload["detail"]["flow_rank"] == 1


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


def test_cli_import_loads_no_scipy():
    src = str(Path(hydrostate.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, hydrostate.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        check=True,
    )
    assert child.stdout.strip() == "[]"
