"""Self-check of the benchmark at a tiny size (about a minute).

    python3 bench/selfcheck.py

Checks, for every workload, that an untraced and a traced run report exactly
the metrics named in ``BENCHMARK.json``; that the correctness gate fails
answers once its tolerances are made impossible to meet; and that the
benchmark exits non-zero without a result where the package sources are
missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

TINY = {
    "newton-grid": {"n_consumers": 30, "scenarios": 2},
    "sensor-patterns": {"n_consumers": 12, "n_networks": 2},
    "cli-solve": {"n_consumers": 8, "n_networks": 1},
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def quiet_run(workload: str, trace: bool) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, seed=1, seconds=0.2, trace=trace, sizes=TINY[workload])
    return result, out.getvalue()


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(run.prepare(), "package sources found")
    import workloads

    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in run.WORKLOADS:
        for trace, names in ((False, end_to_end), (True, per_layer)):
            result, text = quiet_run(workload, trace)
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            check(reported == names, f"{workload} trace={int(trace)}: metric names and units")
            check(result["attempted"] >= 1 and result["correct"], f"{workload}: answers pass the gate")
            check(
                all(f"# {line}" in text for line in ("failed_fraction = ", "latency_tail_ms is p", "commit ")),
                f"{workload}: failed_fraction, tail percentile and environment printed",
            )

    # An impossible tolerance must fail every answer compared with the truth.
    saved = workloads.CLOSED_FORM_TOL, workloads.NEWTON_TOL
    workloads.CLOSED_FORM_TOL = workloads.NEWTON_TOL = -1.0
    try:
        for workload in run.WORKLOADS:
            result, _ = quiet_run(workload, False)
            check(result["failed"] > 0 and not result["correct"], f"{workload}: gate rejects wrong answers")
    finally:
        workloads.CLOSED_FORM_TOL, workloads.NEWTON_TOL = saved

    # Without the package sources the benchmark must refuse to report.
    bare = run.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        child = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-solve", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    check(child.returncode != 0 and not child.stdout.strip(), "no result without package sources")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
