"""Benchmark entry point: one workload, medians over fresh-interpreter runs.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-overload --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10      # every workload

``--trace 0`` repeats the workload, each run in a new interpreter, for as
long as the next run is expected to end within ``--seconds`` (at least
three runs), and reports the median of every end-to-end metric.  ``--trace 1`` makes one untraced run, two
traced runs and one micro-run instead, and reports the per-layer metrics.
Both first byte-compare the example scenarios against their goldens.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable table.  ``--root`` points the runs at another checkout
of the program (``compare.py`` uses it); the benchmark code is always
this one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_ROOT = Path(__file__).resolve().parent.parent
if str(BENCH_ROOT) not in sys.path:
    sys.path.insert(0, str(BENCH_ROOT))

from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.micro import MICRO_METRICS  # noqa: E402
from perfbench.probes import HOST_PROBE_S  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = BENCH_ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("stream-overload", "dag-burst", "sweep-cache", "llm-shared")
#: Runnable, but not declared in BENCHMARK.json: its host-scaled wall time
#: spread 13-18% of the median across ten seeds (see README.md).
UNSTEADY = ("dag-burst",)

#: End-to-end metrics: name -> unit.  Each is a median over the runs of
#: the run's value scaled to reference host speed (see ``scaled``).
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "sim_req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "warm_wall_s": "s",
}
PER_LAYER = dict(LAYER_METRICS + MICRO_METRICS)

#: Counters that must repeat exactly across the runs of one invocation.
COUNTERS = ("events", "requests", "completed", "good", "dropped", "goodput")

MIN_RUNS = 3
#: No run starts after this many seconds, keeping one invocation within
#: the 180 s a benchmark run may take.
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    pass


def child(root: Path, *args: str) -> dict:
    """Run ``child.py`` and parse the JSON on its last stdout line."""
    cmd = [sys.executable, str(CHILD), "--root", str(root), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=BENCH_ROOT)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: timed out after {exc.timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def scaled(run: dict) -> dict[str, float]:
    """A run's end-to-end metrics at reference host speed.

    Times are multiplied, and the request rate divided, by the run's
    ``host_factor``: the host's speed sampled between simulation slices,
    relative to a host where the probe takes ``HOST_PROBE_S``.  The warm
    pass uses the factor sampled between its cache loads.  Memory is not
    scaled.
    """
    factor = run["host_factor"]
    out = {name: run[name] * factor for name in END_TO_END}
    out["sim_req_per_s"] = run["sim_req_per_s"] / factor
    out["peak_rss_mb"] = run["peak_rss_mb"]
    out["warm_wall_s"] = run["warm_wall_s"] * run["warm_host_factor"]
    return out


def run_key(run: dict) -> tuple:
    """What must be identical between runs of one workload and seed."""
    return tuple(run["counters"][c] for c in COUNTERS), run["digest"]


def goldens_gate(root: Path) -> tuple[int, int, dict]:
    status = child(root, "goldens")
    return len(status), sum(v != "ok" for v in status.values()), status


def measure_e2e(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """Timed runs until ``seconds`` pass; medians of every metric."""
    attempted, failed, goldens = goldens_gate(root)
    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        # Start another run only if it is expected to end within
        # ``seconds`` (at least MIN_RUNS, none after LAST_START_S).
        if len(runs) >= MIN_RUNS and (
            elapsed * (len(runs) + 1) / len(runs) > seconds or elapsed > LAST_START_S
        ):
            break
        runs.append(child(root, "run", "--workload", workload, "--seed", str(seed),
                          "--sample-host"))
    first = run_key(runs[0])
    mismatched = sum(run_key(r) != first for r in runs)
    attempted += sum(r["attempted"] for r in runs)
    failed += sum(r["failed"] for r in runs) + mismatched
    metrics, spread = {}, {}
    values = [scaled(r) for r in runs]
    for name, unit in END_TO_END.items():
        q1, med, q3 = quartiles([v[name] for v in values])
        metrics[name] = {"value": med, "unit": unit}
        spread[name] = (q1, q3)
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "runs": len(runs),
            "quartiles": spread,
            "counters": runs[0]["counters"],
            "unscaled_wall_s": statistics.median(r["wall_s"] for r in runs),
            "host_factor": statistics.median(r["host_factor"] for r in runs),
            "goldens": goldens,
        },
    }


def measure_layers(root: Path, workload: str, seed: int) -> dict:
    """One untraced run, two traced runs and the micro-runs."""
    attempted, failed, goldens = goldens_gate(root)
    run_args = ("run", "--workload", workload, "--seed", str(seed))
    base = child(root, *run_args)
    traced = [child(root, *run_args, "--trace") for _ in range(2)]
    micro = child(root, "micro", "--seed", str(seed))
    attempted += base["attempted"] + sum(t["attempted"] for t in traced)
    failed += base["failed"] + sum(t["failed"] for t in traced)
    # Tracing must not change the work: same results and event counts as
    # the untraced run, and identical call counts in both traced runs.
    failed += sum(run_key(t) != run_key(base) for t in traced)
    failed += sum(
        t["counters"]["events"] != t["layers"]["simulation.engine.events"]
        for t in traced
    )
    counts_match = traced[0]["call_counts"] == traced[1]["call_counts"]
    attempted += 1
    failed += not counts_match
    values = {
        name: statistics.median(t["layers"][name] for t in traced)
        for name, _ in LAYER_METRICS if name != "tracing.overhead_s"
    }
    values["tracing.overhead_s"] = (
        statistics.median(t["wall_s"] for t in traced) - base["wall_s"])
    values.update(micro)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    trace_file = WORK_DIR / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "untraced_wall_s": base["wall_s"],
        "traced": [{k: t[k] for k in ("wall_s", "call_counts", "spans")} for t in traced],
        "metrics": values,
    }, indent=1, sort_keys=True) + "\n")
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
        "detail": {
            "counters": base["counters"],
            "goldens": goldens,
            "call_counts_identical": counts_match,
            "trace_file": str(trace_file.relative_to(BENCH_ROOT)),
        },
    }


def render(result: dict) -> str:
    """The readable table printed above the JSON line."""
    detail = result["detail"]
    lines = [f"== {result['workload']} (seed {result['seed']})"]
    quarts = detail.get("quartiles", {})
    header = f"{'metric':<58} {'unit':>8} {'median':>14}"
    if quarts:
        header += f" {'q1':>12} {'q3':>12}  (n={detail['runs']})"
    lines.append(header)
    for name, m in result["metrics"].items():
        row = f"{name:<58} {m['unit']:>8} {m['value']:>14.6g}"
        if name in quarts:
            q1, q3 = quarts[name]
            row += f" {q1:>12.6g} {q3:>12.6g}"
        lines.append(row)
    counters = ", ".join(f"{k}={v}" for k, v in detail["counters"].items())
    lines.append(f"counters: {counters}")
    if "host_factor" in detail:
        lines.append(
            f"host: median speed factor {detail['host_factor']:.3f} "
            f"(probe {HOST_PROBE_S * 1e3:.0f} ms = 1); unscaled wall_s median "
            f"{detail['unscaled_wall_s']:.4g} s")
    goldens = ", ".join(f"{k}={v}" for k, v in detail["goldens"].items())
    lines.append(f"goldens: {goldens}")
    frac = result["failed"] / result["attempted"]
    lines.append(
        f"correct: {result['correct']}  attempted={result['attempted']} "
        f"failed={result['failed']} failed_frac={frac:.4g}")
    return "\n".join(lines)


def program_present(root: Path) -> bool:
    return all((root / p).exists() for p in (
        "src/repro/__init__.py", "examples/scenarios", "benchmarks/goldens"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the PARD simulator (see perfbench/README.md).")
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, default=BENCH_ROOT,
                        help="checkout of the program to measure")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not program_present(root):
        print(f"error: no program sources under {root} "
              "(expected src/repro, examples/scenarios, benchmarks/goldens)",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.trace:
                result = measure_layers(root, name, args.seed)
            else:
                result = measure_e2e(root, name, args.seed, args.seconds)
            print(render(result), flush=True)
            results[name] = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    except ChildFailed as exc:
        print(f"error: a benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
