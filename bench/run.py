"""hydrostate benchmark: one closed-loop client per workload.

    python3 bench/run.py --workload newton-grid --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``. The client sends its next request only after the
previous answer has been checked, and repeats whole rounds of the workload's
request mix until ``--seconds`` have passed. With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` every request is run twice, untraced and traced, and the JSON
object holds the per-layer metrics. The lines before it describe the
environment and the run. See ``bench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("newton-grid", "sensor-patterns", "cli-solve")
#: One BLAS thread in this process and its children: timings then do not
#: depend on a second core that other processes share.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is repeated and its median reported, so one slow repetition does not
#: decide ``setup_s``.
SETUP_REPEATS = 5
#: The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "correct_fraction": "fraction",
    "peak_rss_mb": "MB",
}
LAYERS = ("bench", "network", "structure", "observability", "completion", "hydraulics", "testkit", "cli")
#: Per-layer time metrics: median duration of one call of the named function,
#: over the calls made inside requests (testkit: inside set-up).
SPAN_METRICS = {
    "completion.demand_driven_ms": "completion.solve_reservoir_heads_demands",
    "completion.forest_flows_ms": "completion.complete_from_forest_flows",
    "completion.heads_flows_ms": "completion.complete_from_reservoir_heads_and_flows",
    "completion.all_heads_ms": "completion.complete_from_heads",
    "network.incidence_ms": "network.incidence_matrix",
    "network.parse_ms": "network.network_from_json_dict",
    "structure.decompose_ms": "structure.select_independent_edges",
    "structure.cycle_basis_ms": "structure.cycle_space_basis",
    "structure.greedy_columns_ms": "structure.greedy_independent_columns",
    "structure.flow_rank_ms": "structure.flow_pattern_rank",
    "structure.image_membership_ms": "structure.image_membership",
    "hydraulics.residuals_ms": "hydraulics.residuals",
    "cli.startup_ms": "cli.startup",
    "cli.run_cli_ms": "cli.run_cli",
    "cli.emit_ms": "cli._emit",
}
SETUP_SPAN_METRICS = {
    "testkit.generate_ms": "testkit.random_connected_wds",
    "testkit.ground_truth_ms": "testkit.random_ground_truth_state",
}
CLASSIFY_VERDICTS = (
    "undetermined_rank_deficient",
    "determined_forest_flows",
    "determined_all_heads",
    "determined_demand_driven",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def prepare() -> bool:
    """Pin the BLAS thread count and import the package from this checkout's sources.

    Must run before numpy is imported. Returns False when the sources are missing.
    """
    if not (ROOT / "src" / "hydrostate" / "__init__.py").is_file():
        print(f"bench: no hydrostate sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """Set up, measure and summarize one run; returns the result object."""
    import numpy as np  # after the BLAS thread count is pinned

    import workloads as wl
    from tracer import Tracer

    _print_environment(np)
    tracer = Tracer(callers=[wl])
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_times, unexpected = [], 0
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            with tracer.installed() if trace else nullcontext(), tracer.span("bench.setup"):
                bench = _build(wl, workload, seed, workdir, tracer, sizes or {})
                for request in bench.warm_up:
                    answer = wl.attempt(request)
                    unexpected += not (answer.ok or answer.known_defect)
            setup_times.append(time.perf_counter() - start)

        latencies, overheads, answers = [], [], []
        start = time.perf_counter()
        deadline = start + seconds
        r = 0
        while r == 0 or time.perf_counter() < deadline:
            for request in bench.rounds[r % len(bench.rounds)]:
                t0 = time.perf_counter()
                answer = wl.attempt(request, bench.probe if trace else None)
                plain = time.perf_counter() - t0
                if trace:
                    with tracer.installed(), tracer.request(request.kind):
                        t0 = time.perf_counter()
                        traced = wl.attempt(request, bench.probe)
                        overheads.append(time.perf_counter() - t0 - plain)
                    if not traced.ok:
                        answer = traced
                latencies.append(plain)
                answers.append((request.kind, answer))
            r += 1
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(kind, a) for kind, a in answers if not a.ok]
    unexpected += sum(not a.known_defect for _, a in failed)
    print(f"# set-up times: {', '.join(f'{t:.3f}' for t in setup_times)} s")
    _print_run(workload, seed, answers, failed, latencies, r)
    if trace:
        trace_path = OUT / f"trace-{workload}-{seed}.jsonl"
        tracer.write(trace_path)
        print(f"# spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        metrics = _per_layer(tracer, answers, overheads)
    else:
        metrics = _end_to_end(workload, setup_times, latencies, elapsed, len(failed))
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": unexpected == 0,
        "attempted": len(answers),
        "failed": len(failed),
        "metrics": metrics,
    }


def _build(wl, workload: str, seed: int, workdir: Path, tracer, sizes: dict):
    if workload == "newton-grid":
        return wl.newton_grid(seed, **sizes)
    if workload == "sensor-patterns":
        return wl.sensor_patterns(seed, **sizes)
    return wl.cli_solve(seed, ROOT, workdir, tracer, **sizes)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest sample with ``TAIL_BEYOND`` samples above it."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[k], 100.0 * k / max(1, len(ordered) - 1)


def _end_to_end(workload: str, setup_times, latencies, elapsed: float, failed: int) -> dict:
    who = resource.RUSAGE_CHILDREN if workload == "cli-solve" else resource.RUSAGE_SELF
    tail, _ = _tail(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": len(latencies) / elapsed,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        "correct_fraction": (len(latencies) - failed) / len(latencies),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _per_layer(tracer, answers, overheads) -> dict:
    metrics = {}
    for name, span in SPAN_METRICS.items():
        metrics[name] = (tracer.median_ms(span), "ms")
    for name, span in SETUP_SPAN_METRICS.items():
        metrics[name] = (tracer.median_ms(span, in_requests=False), "ms")
    for verdict in CLASSIFY_VERDICTS:
        metrics[f"observability.classify_ms.{verdict}"] = (
            tracer.median_ms("observability.classify_observation_pattern", tag=verdict),
            "ms",
        )

    def median_info(key: str) -> float:
        values = [a.info[key] for _, a in answers if key in a.info]
        return float(statistics.median(values)) if values else 0.0

    metrics["completion.newton_iterations"] = (median_info("newton_iterations"), "count")
    metrics["completion.jacobian_bytes_computed"] = (median_info("jacobian_bytes"), "bytes")
    metrics["network.incidence_bytes_computed"] = (median_info("incidence_bytes"), "bytes")
    perturbed = sum(a.info.get("perturbed", 0) for _, a in answers)
    detected = sum(a.info.get("detected", 0) for _, a in answers)
    metrics["completion.inconsistency_detected_ratio"] = (
        detected / perturbed if perturbed else 0.0,
        "ratio",
    )
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (1e3 * self_times.get(layer, 0.0) / len(answers), "ms")
    metrics["trace.overhead_ms"] = (1e3 * statistics.median(overheads), "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _print_environment(np) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# python {sys.version.split()[0]}, numpy {np.__version__}, "
          f"blas {blas.get('name')} {blas.get('version')}, "
          f"blas threads {BLAS_THREADS}, nproc {os.cpu_count()}, "
          f"usable cpus {len(os.sched_getaffinity(0))}")
    print(f"# commit {_commit()}, source sha256 {_source_digest()}")


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hydrostate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _print_run(workload: str, seed: int, answers, failed, latencies, rounds: int) -> None:
    kinds: dict[str, list] = {}
    for (kind, a), latency in zip(answers, latencies):
        kinds.setdefault(kind, [0, []])[0] += not a.ok
        kinds[kind][1].append(latency)
    print(f"# workload {workload}, seed {seed}, one closed-loop client, {rounds} rounds")
    for kind, (bad, times) in sorted(kinds.items()):
        print(f"#   {kind}: {len(times)} requests, {bad} failed, "
              f"median {1e3 * statistics.median(times):.1f} ms")
    _, pct = _tail(latencies)
    print(f"# latency_tail_ms is p{pct:.1f} of {len(latencies)} samples "
          f"({TAIL_BEYOND} beyond it)")
    print(f"# failed_fraction = {len(failed) / len(answers):.6g} "
          f"({len(failed)} of {len(answers)})")
    for kind, a in failed[:5]:
        detail = a.info.get("error") or f"returncode {a.info.get('returncode')}"
        note = " (known defect)" if a.known_defect else ""
        print(f"#   failed {kind}{note}: {detail}")


if __name__ == "__main__":
    sys.exit(main())
