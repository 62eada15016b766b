"""Parent-versus-change comparison with the same benchmark code.

Usage, from the repository root::

    python3 perfbench/compare.py --parent ../parent-checkout --change . \\
        --workloads stream-overload,dag-burst --pairs 10 --seconds 20
    python3 perfbench/compare.py --history

Each pair runs ``perfbench/run.py`` once against each checkout, with the
same seed, alternating which side goes first.  The report has one row per
workload and metric: each side's median and quartiles, the change/parent
ratio (with the parent as base), and the share of pairs the change won.
A metric whose spread (quartile distance over median) exceeds its bound
in ``BENCHMARK.json`` is marked unresolved unless every change run beats
every parent run.  There is no macro sum and no combined score.

``--history`` prints the schema-1 ``BENCH_*.json`` files the older
``repro bench`` wrote.  They are history only: their best-of-3 timings are
not comparable with these medians and are never used as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def load_spec(path: Path = BENCH_ROOT / "BENCHMARK.json") -> dict:
    return json.loads(path.read_text())


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def compare_metric(parent: list[float], change: list[float], better: str,
                   bound: float | None) -> dict:
    """Verdict for one metric from paired runs (``parent[i]`` with
    ``change[i]``).

    ``better`` is ``"lower"`` or ``"higher"``.  ``bound`` (a share of the
    parent median) is the tolerated worsening; ``None`` for per-layer
    metrics, which only get the ratio and win share.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q = {}
    for side, values in (("parent", parent), ("change", change)):
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        q[side] = (q1, statistics.median(values), q3)
    row = {
        "parent": q["parent"],
        "change": q["change"],
        "ratio": c_med / p_med if p_med else float("nan"),
        "win_share": wins / len(parent),
    }
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    spreads = [spread(v) for v in (parent, change) if len(v) >= 2]
    parent_iqr = q["parent"][2] - q["parent"][0]
    gain = sign * (c_med - p_med)
    if bound is not None and spreads and max(spreads) > bound and not all_better:
        verdict = "unresolved"
    elif row["win_share"] >= 0.9 and gain > parent_iqr:
        verdict = "better"
    elif bound is not None and -gain > bound * abs(p_med):
        verdict = "worse"
    else:
        verdict = "no change"
    row["verdict"] = verdict
    return row


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--root", str(root), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH_ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: {workload} seed {seed} produced wrong results")
    return result["metrics"]


def run_pairs(parent: Path, change: Path, workload: str, pairs: int, seed: int,
              seconds: float, trace: int) -> tuple[list[dict], list[dict]]:
    """Alternating-order pairs; pair ``i`` runs seed ``seed + i`` on both."""
    runs: dict[Path, list[dict]] = {parent: [], change: []}
    for i in range(pairs):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        for root in order:
            runs[root].append(run_side(root, workload, seed + i, seconds, trace))
    return runs[parent], runs[change]


def report(workload: str, parent: list[dict], change: list[dict], metrics: list[dict]) -> str:
    lines = [f"== {workload}: {len(parent)} pairs",
             f"{'metric':<40} {'unit':>6} {'parent q1/med/q3':>32} "
             f"{'change q1/med/q3':>32} {'ratio':>7} {'wins':>5}  verdict"]
    for m in metrics:
        name = m["name"]
        row = compare_metric([r[name]["value"] for r in parent],
                             [r[name]["value"] for r in change],
                             m.get("better", "lower"), m.get("bound"))
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        lines.append(
            f"{name:<40} {m['unit']:>6} {fmt(row['parent']):>32} {fmt(row['change']):>32} "
            f"{row['ratio']:>7.3f} {row['win_share']:>5.0%}  {row['verdict']}")
    return "\n".join(lines)


def history(root: Path) -> str:
    """The schema-1 ``BENCH_*.json`` trajectory, per workload."""
    lines = ["schema-1 history (best-of-N walls; not a baseline):"]
    files = sorted(root.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    for path in files:
        data = json.loads(path.read_text())
        cells = ", ".join(f"{w['name']}={w['wall_s']:.3f}s" for w in data.get("workloads", []))
        lines.append(f"{path.name} (schema {data.get('schema')}): {cells}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path, default=BENCH_ROOT)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--history", action="store_true")
    args = parser.parse_args(argv)
    if args.history:
        print(history(BENCH_ROOT))
        return 0
    if args.parent is None:
        parser.error("--parent is required (or use --history)")
    spec = load_spec()
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in spec["workloads"]])
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    for workload in workloads:
        parent, change = run_pairs(args.parent.resolve(), args.change.resolve(), workload,
                                   args.pairs, args.seed, seconds, args.trace)
        print(report(workload, parent, change, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
